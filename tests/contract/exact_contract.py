"""The exact-path behaviour contract of the registry families and the demo chain.

For each family it records the fold (``exact.folded``) and, over the ranges
below, the ``domain_report`` intervals and markers and the
``reality_islands`` at every reachable real count.  On the exact path the
intervals, the islands and the marker positions are correctly rounded
discriminant roots, so they are recorded bit for bit; only a coalescence
marker's residual is an angle from LAPACK.

Under the key ``"cli"`` it records each README and CI ``domains``, ``ep``
and ``islands`` command on a model the exact engine takes: its exit code,
stdout and stderr, and the same for the command with ``--out``, with the
CSV bundle it writes (and the ``--svg`` file, where the command draws one).

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


# The 6-site chain with couplings affine in t of the CI README step, at the
# exact engine's degree cap.
GENERIC6 = """\
name: generic6
n: 6
topology: open
diag: ["-2.5", "-1.3", "-0.4", "0.7", "1.9", "3.1"]
couplings: ["0.8*t + 0.3", "1.1*t - 0.2", "0.6*t + 0.9", "1.3*t - 0.5", "0.9*t + 0.4"]
t_range: [-3, 3]
"""

# (id, argv) of the README and CI commands; {demo} and {generic6} name the
# documents.  Each also runs with --out, so the bundle is recorded as a file.
CLI_COMMANDS = [
    ("readme-domains-mdg6-w1", "domains --model mdg6-w1 --t-min -0.4 --t-max 0.4"),
    ("readme-islands-mdg6-w2", "islands --model mdg6-w2 --t-min -0.7 --t-max 0.4 --k 4"),
    ("readme-ep-ec4", "ep --model ec4 --t-min 1.0 --t-max 1.45"),
    ("readme-ep-mdg6-open", "ep --model mdg6-open --t-min -1 --t-max 1"),
    ("readme-domains-demo-chain", "domains --config {demo} --t-min 0 --t-max 3"),
    ("ci-domains-ec4-inf", "domains --model ec4 --t-min 0 --t-max inf"),
    ("ci-domains-ec4", "domains --model ec4 --t-min 0 --t-max 1.5"),
    ("ci-domains-ec4-strongbond-svg",
     "domains --model ec4-strongbond --t-min 0 --t-max 1.6 --svg {svg}"),
    ("ci-domains-generic6", "domains --config {generic6} --t-min -3 --t-max 3"),
]


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


def _run(argv: list) -> dict:
    """Exit code, stdout and stderr of the command line, run in this process."""
    import contextlib
    import io

    from ptlattice.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def cli_contract() -> list:
    """Each command of CLI_COMMANDS as it runs, without and with --out."""
    import tempfile

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "generic6.yaml").write_text(GENERIC6, encoding="utf-8")
        for name, command in CLI_COMMANDS:
            svg, out = tmp / f"{name}.svg", tmp / f"{name}.csv"
            argv = command.format(demo=DEMO_CHAIN, generic6=tmp / "generic6.yaml", svg=svg).split()
            record = {"id": name, "command": command, "plain": _run(argv)}
            with_out = _run(argv + ["--out", str(out)])
            with_out["file"] = out.read_text(encoding="utf-8") if out.exists() else None
            with_out["svg"] = svg.read_text(encoding="utf-8") if svg.exists() else None
            record["out"] = with_out
            records.append(record)
    return records


# The ep-marker header; a coalescence row's residual is an angle from LAPACK.
EP_HEADER = "t_star,order,kind,residual"


def split_residuals(text):
    """(text, residuals): each coalescence residual of a CSV bundle cut out as a float."""
    if text is None:
        return None, []
    lines, residuals, in_markers = [], [], False
    for line in text.splitlines(keepends=True):
        if line.startswith("#") or line.rstrip("\n") == EP_HEADER:
            in_markers = line.rstrip("\n") == EP_HEADER
        elif in_markers and ",complexification," not in line:
            head, _, value = line.rstrip("\n").rpartition(",")
            residuals.append(float(value))
            line = head + ",<residual>\n"
        lines.append(line)
    return "".join(lines), residuals


def dumps(data: dict) -> str:
    """JSON with one line per fold, per range and per command, so a change is a one-line diff."""
    families = []
    for name, entry in data.items():
        if name == "cli":
            commands = ",\n  ".join(json.dumps(record) for record in entry)
            families.append(f' "cli": [\n  {commands}\n ]')
            continue
        ranges = ",\n   ".join(json.dumps(r) for r in entry["ranges"])
        families.append(
            f' {json.dumps(name)}: {{\n  "folded": {json.dumps(entry["folded"])},\n'
            f'  "ranges": [\n   {ranges}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(families) + "\n}\n"


if __name__ == "__main__":
    CONTRACT.write_text(dumps({**contract(), "cli": cli_contract()}), encoding="utf-8")
    print(f"wrote {CONTRACT}")
