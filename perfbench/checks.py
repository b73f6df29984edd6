"""Checks of ptlattice outputs against the derived reference data.

Every check returns a list of problems; an empty list means the output
passed.  The checks use only the standard library, so the command-line
workload can run them in a process that never imports numpy or ptlattice.

Tolerances follow the README: 1e-8 for a boundary or exceptional point of
order 2, and u**(1/k) for an order-k point, where u is the double-precision
unit roundoff.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import pathlib
import xml.etree.ElementTree as ET

UNIT_ROUNDOFF = 2.0**-52
ORACLE_REL_TOL = 1e-8
CLOSED_FORM_TOL = 1e-12

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def order_tolerance(order: int) -> float:
    """Accuracy to which an order-k point can be placed in double precision."""
    return 1e-8 if order <= 2 else UNIT_ROUNDOFF ** (1.0 / order)


def roots_in(family_ref: dict, lo: float, hi: float, *, boundary=None) -> list:
    return [
        r
        for r in family_ref["roots"]
        if lo < r["t"] < hi and (boundary is None or r["boundary"] == boundary)
    ]


def expected_partition(family_ref: dict, lo: float, hi: float) -> list:
    """Exact maximal constant-count intervals of [lo, hi].

    Each entry is (lo, hi, count, lo_tol, hi_tol); the ends of the scanned
    range must be reproduced exactly, a boundary to its order's tolerance.
    """
    edges = roots_in(family_ref, lo, hi, boundary=True)
    points = [lo, *(r["t"] for r in edges), hi]
    tols = [0.0, *(order_tolerance(r["order"]) for r in edges), 0.0]
    out = []
    for k, (a, b) in enumerate(zip(points[:-1], points[1:])):
        mid = (a + b) / 2
        count = next(
            c["count"] for c in family_ref["cells"] if c["lo"] <= mid <= c["hi"]
        )
        out.append((a, b, count, tols[k], tols[k + 1]))
    return out


def _edge_problems(got, want) -> list:
    """Compare (lo, hi) pairs with the (lo, hi, lo_tol, hi_tol) of the exact ones."""
    problems = []
    for (a, b), (ea, eb, ta, tb) in zip(got, want):
        for value, exact, tol in ((a, ea, ta), (b, eb, tb)):
            if abs(value - exact) > tol:
                problems.append(
                    f"edge {value!r} is {abs(value - exact):.3e} from the exact "
                    f"{exact!r} (tolerance {tol:.1e})"
                )
    return problems


def check_partition(intervals, lo: float, hi: float, family_ref: dict) -> list:
    """Intervals (lo, hi, count) must tile [lo, hi] like the exact partition."""
    intervals = [(float(a), float(b), int(c)) for a, b, c in intervals]
    if not intervals:
        return ["no intervals reported"]
    problems = []
    for (_, b, _), (a, _, _) in zip(intervals[:-1], intervals[1:]):
        if a != b:
            problems.append(f"gap or overlap between {b!r} and {a!r}")
    expected = expected_partition(family_ref, lo, hi)
    got_counts = [c for _, _, c in intervals]
    want_counts = [e[2] for e in expected]
    if got_counts != want_counts:
        problems.append(f"real counts {got_counts}, exact {want_counts}")
        return problems
    return problems + _edge_problems(
        [(a, b) for a, b, _ in intervals], [(a, b, ta, tb) for a, b, _, ta, tb in expected]
    )


def check_markers(markers, lo: float, hi: float, family_ref: dict, *, complete: bool) -> list:
    """Markers (t_star, order, kind) must sit on discriminant roots in [lo, hi].

    With complete=True every root inside (lo, hi) must also carry a marker.
    """
    problems = []
    roots = roots_in(family_ref, lo, hi)
    matched = set()
    for t_star, order, kind in markers:
        t_star = float(t_star)
        near = [
            r for r in roots if abs(t_star - r["t"]) <= order_tolerance(r["order"])
        ]
        if not near:
            problems.append(f"marker at {t_star!r} is on no discriminant root")
            continue
        root = near[0]
        matched.add(root["t"])
        if int(order) != root["order"]:
            problems.append(
                f"marker at {t_star!r} has order {order}, exact {root['order']}"
            )
        want = "complexification" if root["boundary"] else "real-coalescence"
        if (root["boundary"] or root["real"]) and kind != want:
            problems.append(f"marker at {t_star!r} is {kind!r}, exact {want!r}")
    if complete:
        for root in roots:
            if root["t"] not in matched:
                problems.append(f"no marker at the discriminant root {root['t']!r}")
    return problems


def check_islands(islands, lo: float, hi: float, k: int, family_ref: dict) -> list:
    """Islands (lo, hi) must be the exact maximal intervals with k real eigenvalues."""
    want = [(a, b, ta, tb) for a, b, c, ta, tb in expected_partition(family_ref, lo, hi) if c == k]
    got = [(float(a), float(b)) for a, b in islands]
    if len(got) != len(want):
        return [f"{len(got)} islands with {k} real eigenvalues, exact {len(want)}"]
    return _edge_problems(got, want)


def bottleneck_distance(a, b) -> float:
    """Largest elementwise distance under the best pairing of two short spectra."""
    a = [complex(x) for x in a]
    b = [complex(x) for x in b]
    if len(a) != len(b):
        return math.inf
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max((abs(x - b[j]) for x, j in zip(a, perm)), default=0.0)
        best = min(best, worst)
    return best


def check_spectrum(values, reference, scale: float, tol: float) -> list:
    dist = bottleneck_distance(values, reference)
    if dist > tol * scale:
        return [f"spectrum is {dist:.3e} from the reference (tolerance {tol * scale:.1e})"]
    return []


def ec4_spectrum(t: float) -> list:
    r = cmath.sqrt(9 - 4 * t * t)
    return [-r, -1.0, 1.0, r]


def mdg6_open_spectrum(t: float) -> list:
    return [s * k * cmath.sqrt(t) for k in (1, 3, 5) for s in (-1, 1)]


def check_interval_end(value: float, exact: float, tol: float, what: str) -> list:
    if abs(value - exact) > tol:
        return [f"{what} {value!r} is {abs(value - exact):.3e} from {exact!r} (tolerance {tol:.0e})"]
    return []


# ---------------------------------------------------------------- CSV bundles


def parse_bundle(text: str) -> tuple[dict, dict]:
    """Header dict and {table name: (columns, rows of str)} of a CSV bundle."""
    header, tables, current = {}, {}, None
    for line in text.splitlines():
        if line.startswith("# table: "):
            current = line[len("# table: "):]
            tables[current] = (None, [])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif current is not None:
            columns, rows = tables[current]
            cells = line.split(",")
            if columns is None:
                tables[current] = (tuple(cells), rows)
            else:
                rows.append(cells)
    return header, tables


def check_columns(tables: dict, expected: dict) -> list:
    problems = []
    for name, columns in expected.items():
        if name not in tables:
            problems.append(f"table {name!r} missing")
        elif tables[name][0] != tuple(columns):
            problems.append(f"table {name!r} has columns {tables[name][0]}, want {columns}")
    return problems


def check_svg(text: str | None) -> list:
    if not text:
        return ["no SVG written"]
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse as XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag!r}"]
    return []


def check_exit(code: int, expected: int, stderr: str) -> list:
    problems = []
    if code != expected:
        problems.append(f"exit code {code}, documented {expected}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if expected != 0 and code == expected and not stderr.startswith("error:"):
        problems.append("no 'error:' message on stderr")
    return problems
