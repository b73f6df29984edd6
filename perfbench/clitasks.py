"""The command-line workload: README commands and documented error exits.

Each command runs as ``ptlattice <args>``; ``{out}``, ``{svg}`` and
``{demo}`` stand for the CSV path, the SVG path and the demo-chain
document.  The checks read the exit code, stderr, the CSV bundle and the
SVG, and compare the numbers with the reference data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

DEMO_DOC = "perfbench/demo-chain.yaml"
ENTRY = "import sys; from ptlattice.cli import main; sys.exit(main())"

INTERVAL_COLUMNS = ("lo", "hi", "count_real", "boundary_tol")
EP_COLUMNS = ("t_star", "order", "kind", "residual")


@dataclass(frozen=True)
class CommandResult:
    code: int
    stdout: str
    stderr: str
    out_text: str | None
    svg_text: str | None


@dataclass(frozen=True)
class Command:
    kind: str
    args: tuple
    exit_code: int
    check: Callable[[CommandResult, dict], list] | None = None

    def argv(self, out: str, svg: str) -> list:
        return [a.format(out=out, svg=svg, demo=DEMO_DOC) for a in self.args]

    @property
    def writes_svg(self) -> bool:
        return "--svg" in self.args


def _rows(tables, name) -> list:
    return tables[name][1] if name in tables else []


def _domains(family: str, lo: float, hi: float):
    def check(result: CommandResult, ref: dict) -> list:
        header, tables = checks.parse_bundle(result.out_text or "")
        problems = checks.check_columns(
            tables, {"intervals": INTERVAL_COLUMNS, "ep_markers": EP_COLUMNS}
        )
        if problems:
            return problems
        fref = ref["families"][family]
        intervals = [(float(a), float(b), int(c)) for a, b, c, _ in _rows(tables, "intervals")]
        markers = [(float(t), int(o), k) for t, o, k, _ in _rows(tables, "ep_markers")]
        problems += checks.check_partition(intervals, lo, hi, fref)
        problems += checks.check_markers(markers, lo, hi, fref, complete=False)
        if header.get("model") != family:
            problems.append(f"header model {header.get('model')!r}")
        return problems

    return check


def _spectrum_ec4(result: CommandResult, ref: dict) -> list:
    _, tables = checks.parse_bundle(result.out_text or "")
    n = 4
    columns = ("t", *(f"re_{k + 1}" for k in range(n)), *(f"im_{k + 1}" for k in range(n)))
    problems = checks.check_columns(tables, {"spectrum": columns})
    rows = _rows(tables, "spectrum")
    if len(rows) != 201:
        problems.append(f"{len(rows)} spectrum rows, asked for 201")
    for row in rows:
        t, values = float(row[0]), [float(x) for x in row[1:]]
        spectrum = [complex(re, im) for re, im in zip(values[:n], values[n:])]
        exact = checks.ec4_spectrum(t)
        scale = max(1.0, max(abs(x) for x in exact))
        problems += checks.check_spectrum(spectrum, exact, scale, checks.ORACLE_REL_TOL)
        if problems:
            break
    return problems


def _metric_ec4(result: CommandResult, ref: dict) -> list:
    header, tables = checks.parse_bundle(result.out_text or "")
    problems = checks.check_columns(
        tables, {"positivity_interval": ("lo", "hi"), "min_eig": ("t", "min_eig")}
    )
    rows = _rows(tables, "positivity_interval")
    if len(rows) != 1:
        return problems + [f"{len(rows)} positivity intervals"]
    endpoint = ref["constants"]["ec4_metric_endpoint"]
    lo, hi = (float(x) for x in rows[0])
    problems += checks.check_interval_end(lo, 0.0, 0.0, "interval start")
    problems += checks.check_interval_end(hi, endpoint, 1e-8, "interval end")
    for t, value in _rows(tables, "min_eig"):
        t, value = float(t), float(value)
        if abs(t - endpoint) > 1e-6 and (value > 0) != (t < endpoint):
            problems.append(f"min eig {value:.3e} at t={t:.6g} has the wrong sign")
            break
    if header.get("metric_provenance") != "reference-ec4":
        problems.append(f"provenance {header.get('metric_provenance')!r}")
    return problems


def _islands_mdg6_w2(result: CommandResult, ref: dict) -> list:
    _, tables = checks.parse_bundle(result.out_text or "")
    problems = checks.check_columns(tables, {"islands": ("lo", "hi", "count_real")})
    rows = _rows(tables, "islands")
    if any(int(c) != 4 for _, _, c in rows):
        problems.append("island row with count_real other than 4")
    islands = [(float(a), float(b)) for a, b, _ in rows]
    return problems + checks.check_islands(islands, -0.7, 0.4, 4, ref["families"]["mdg6-w2"])


def _ep_ec4(result: CommandResult, ref: dict) -> list:
    _, tables = checks.parse_bundle(result.out_text or "")
    problems = checks.check_columns(tables, {"eps": EP_COLUMNS})
    markers = [(float(t), int(o), k) for t, o, k, _ in _rows(tables, "eps")]
    return problems + checks.check_markers(markers, 1.0, 1.45, ref["families"]["ec4"], complete=True)


def _validate(result: CommandResult, ref: dict) -> list:
    _, tables = checks.parse_bundle(result.out_text or "")
    problems = checks.check_columns(tables, {"checks": ("check", "status", "detail")})
    names = ("pt-structure", "conjugate-closure", "oracle-agreement")
    statuses = {row[0]: row[1] for row in _rows(tables, "checks")}
    for name in names:
        if statuses.get(name) != "ok":
            problems.append(f"{name} status {statuses.get(name)!r}")
        if not any(line.startswith(f"{name}: ok") for line in result.stdout.splitlines()):
            problems.append(f"stdout lacks '{name}: ok'")
    return problems


COMMANDS = (
    Command(
        "spectrum:ec4",
        ("spectrum", "--model", "ec4", "--t-min", "-1.2", "--t-max", "1.2",
         "--steps", "201", "--out", "{out}", "--svg", "{svg}"),
        0,
        _spectrum_ec4,
    ),
    Command(
        "domains:mdg6-w1",
        ("domains", "--model", "mdg6-w1", "--t-min", "-0.4", "--t-max", "0.4",
         "--out", "{out}", "--svg", "{svg}"),
        0,
        _domains("mdg6-w1", -0.4, 0.4),
    ),
    Command(
        "metric:ec4",
        ("metric", "--model", "ec4", "--t-min", "0", "--t-max", "1.4", "--out", "{out}"),
        0,
        _metric_ec4,
    ),
    Command(
        "islands:mdg6-w2",
        ("islands", "--model", "mdg6-w2", "--t-min", "-0.7", "--t-max", "0.4",
         "--k", "4", "--out", "{out}"),
        0,
        _islands_mdg6_w2,
    ),
    Command(
        "ep:ec4",
        ("ep", "--model", "ec4", "--t-min", "1.0", "--t-max", "1.45", "--out", "{out}"),
        0,
        _ep_ec4,
    ),
    Command(
        "validate:ec4-strongbond",
        ("validate", "--model", "ec4-strongbond", "--t-min", "0.2", "--t-max", "1.0",
         "--out", "{out}"),
        0,
        _validate,
    ),
    Command(
        "domains:demo-chain",
        ("domains", "--config", "{demo}", "--t-min", "0", "--t-max", "3", "--out", "{out}"),
        0,
        _domains("demo-chain", 0.0, 3.0),
    ),
    Command(
        "error:unknown-model",
        ("domains", "--model", "mdg6-w9", "--t-min", "0", "--t-max", "1", "--out", "{out}"),
        2,
    ),
    Command(
        "error:outside-validity",
        ("domains", "--model", "mdg6-w1", "--t-min", "-0.4", "--t-max", "1.5", "--out", "{out}"),
        3,
    ),
    Command(
        "error:metric-without-track",
        ("metric", "--model", "mdg6-w1", "--t-min", "0.2", "--t-max", "0.9", "--out", "{out}"),
        2,
    ),
    Command(
        "error:t-max-inf",
        ("domains", "--model", "ec4", "--t-min", "0", "--t-max", "inf", "--out", "{out}"),
        2,
    ),
    Command(
        "error:steps-zero",
        ("spectrum", "--model", "ec4", "--t-min", "-1.2", "--t-max", "1.2",
         "--steps", "0", "--out", "{out}"),
        2,
    ),
    Command(
        "error:negative-eps-real",
        ("domains", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
         "--eps-real", "-1", "--out", "{out}"),
        2,
    ),
)

KNOWN_FAULTS = {
    "error:t-max-inf": "OverflowError traceback, exit 1 (automatic grid density, domains.py:310)",
    "error:steps-zero": "exit 0 with an empty spectrum table",
    "error:negative-eps-real": "negative --eps-real accepted; every real count is 0",
}


def check_command(command: Command, result: CommandResult, ref: dict) -> list:
    problems = checks.check_exit(result.code, command.exit_code, result.stderr)
    if problems or command.check is None:
        return problems
    if result.out_text is None:
        return ["no CSV bundle written"]
    problems = command.check(result, ref)
    if command.writes_svg:
        problems += checks.check_svg(result.svg_text)
    return problems
