"""The exact-path behaviour contract of the registry families and the demo chain.

For each family it records the fold (``exact.folded``) and, over the ranges
below, the ``domain_report`` intervals and markers and the
``reality_islands`` at every reachable real count.  On the exact path the
intervals, the islands and the marker positions are correctly rounded
discriminant roots, so they are recorded bit for bit; only a coalescence
marker's residual is an angle from LAPACK.

``test_exact_path_contract.py`` compares the package against the stored
``exact_path.json``.  After a change that is meant to move these numbers,
rewrite the file and review its diff:

    PYTHONPATH=src python tests/contract/exact_contract.py
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = HERE / "exact_path.json"
DEMO_CHAIN = HERE.parents[1] / "perfbench" / "demo-chain.yaml"

# (lo, hi) per family: the ranges of the perfbench scan workload and of the
# README and CI domains, ep and islands commands.
RANGES = {
    "mdg6-open": [(-1.0, 1.0)],
    "mdg6-w1": [(-0.4, 0.4)],
    "mdg6-w2": [(-0.7, 0.4)],
    "ec4": [(-1.6, 1.6), (1.0, 1.45), (0.0, 1.5)],
    "ec4-strongbond": [(0.0, 1.6), (0.0002, 1.6002)],
    "ec4-recoupled": [(-1.6, 1.6)],
    "demo-chain": [(0.0, 3.0)],
}


def family(name: str):
    from ptlattice import get_family
    from ptlattice.custom import load_custom_model

    return load_custom_model(str(DEMO_CHAIN)) if name == "demo-chain" else get_family(name)


def contract() -> dict:
    """The recorded quantities, as JSON types."""
    from ptlattice import domain_report, reality_islands
    from ptlattice.exact import folded

    out = {}
    for name, ranges in RANGES.items():
        f = family(name)
        fold = folded(f)
        entry = {"folded": None if fold is None else fold._asdict(), "ranges": []}
        for lo, hi in ranges:
            report = domain_report(f, lo, hi)
            entry["ranges"].append({
                "lo": lo,
                "hi": hi,
                "intervals": report.intervals,
                "eps": [(e.t_star, e.order, e.kind.value, e.residual) for e in report.eps],
                "islands": {
                    str(k): reality_islands(f, lo, hi, k) for k in range(f.n % 2, f.n + 1, 2)
                },
            })
        out[name] = entry
    return json.loads(json.dumps(out))


def dumps(data: dict) -> str:
    """JSON with one line per fold and per range, so a moved number is a one-line diff."""
    families = []
    for name, entry in data.items():
        ranges = ",\n   ".join(json.dumps(r) for r in entry["ranges"])
        families.append(
            f' {json.dumps(name)}: {{\n  "folded": {json.dumps(entry["folded"])},\n'
            f'  "ranges": [\n   {ranges}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(families) + "\n}\n"


if __name__ == "__main__":
    CONTRACT.write_text(dumps(contract()), encoding="utf-8")
    print(f"wrote {CONTRACT}")
