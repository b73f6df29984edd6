"""The benchmark's checks accept exact outputs and reject perturbed ones.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import clitasks  # noqa: E402
import run  # noqa: E402

REF = checks.load_reference()


def exact_intervals(family, lo, hi):
    return [(a, b, c) for a, b, c, _, _ in checks.expected_partition(REF["families"][family], lo, hi)]


def exact_markers(family, lo, hi):
    fref = REF["families"][family]
    out = []
    for root in checks.roots_in(fref, lo, hi):
        kind = "complexification" if root["boundary"] else "real-coalescence"
        out.append((root["t"], root["order"], kind))
    return out


def test_exact_partition_passes():
    assert checks.check_partition(exact_intervals("mdg6-w1", -0.4, 0.4), -0.4, 0.4, REF["families"]["mdg6-w1"]) == []


def test_boundary_moved_by_1e_6_is_rejected():
    intervals = exact_intervals("mdg6-w1", -0.4, 0.4)
    (a0, b0, c0), (a1, b1, c1), rest = intervals[0], intervals[1], intervals[2:]
    moved = [(a0, b0 + 1e-6, c0), (a1 + 1e-6, b1, c1), *rest]
    problems = checks.check_partition(moved, -0.4, 0.4, REF["families"]["mdg6-w1"])
    assert any("edge" in p for p in problems)


def test_boundary_within_tolerance_passes():
    intervals = exact_intervals("mdg6-w1", -0.4, 0.4)
    (a0, b0, c0), (a1, b1, c1), rest = intervals[0], intervals[1], intervals[2:]
    moved = [(a0, b0 + 1e-11, c0), (a1 + 1e-11, b1, c1), *rest]
    assert checks.check_partition(moved, -0.4, 0.4, REF["families"]["mdg6-w1"]) == []


def test_flipped_count_is_rejected():
    intervals = exact_intervals("ec4", -1.6, 1.6)
    a, b, c = intervals[1]
    intervals[1] = (a, b, c - 2)
    problems = checks.check_partition(intervals, -1.6, 1.6, REF["families"]["ec4"])
    assert any("real counts" in p for p in problems)


def test_missing_window_is_rejected():
    intervals = exact_intervals("ec4-strongbond", 0.0, 1.6)
    merged = intervals[:2] + [(intervals[2][0], intervals[3][1], 2)]
    assert checks.check_partition(merged, 0.0, 1.6, REF["families"]["ec4-strongbond"])


def test_dropped_marker_is_rejected_by_an_ep_query():
    fref = REF["families"]["ec4"]
    markers = exact_markers("ec4", -1.6, 1.6)
    assert checks.check_markers(markers, -1.6, 1.6, fref, complete=True) == []
    problems = checks.check_markers(markers[1:], -1.6, 1.6, fref, complete=True)
    assert any("no marker" in p for p in problems)
    # A domain report need not mark every root.
    assert checks.check_markers(markers[1:], -1.6, 1.6, fref, complete=False) == []


def test_marker_off_its_root_is_rejected():
    fref = REF["families"]["ec4"]
    t, order, kind = exact_markers("ec4", 1.0, 1.45)[0]
    problems = checks.check_markers([(t + 1e-6, order, kind)], 1.0, 1.45, fref, complete=False)
    assert any("on no discriminant root" in p for p in problems)


def test_wrong_marker_order_and_kind_are_rejected():
    fref = REF["families"]["ec4"]
    t, _, _ = exact_markers("ec4", 1.0, 1.45)[0]
    problems = checks.check_markers([(t, 3, "complexification")], 1.0, 1.45, fref, complete=False)
    assert len(problems) == 2


def test_islands_moved_edge_is_rejected():
    fref = REF["families"]["mdg6-w2"]
    islands = [(a, b) for a, b, c in exact_intervals("mdg6-w2", -0.7, 0.4) if c == 4]
    assert checks.check_islands(islands, -0.7, 0.4, 4, fref) == []
    islands[0] = (islands[0][0] - 1e-6, islands[0][1])
    assert checks.check_islands(islands, -0.7, 0.4, 4, fref)
    assert checks.check_islands(islands[:1], -0.7, 0.4, 4, fref)


def test_spectrum_perturbation_is_rejected():
    exact = checks.ec4_spectrum(0.7)
    assert checks.check_spectrum(list(reversed(exact)), exact, 3.0, 1e-8) == []
    perturbed = [exact[0] + 1e-6, *exact[1:]]
    assert checks.check_spectrum(perturbed, exact, 3.0, 1e-8)


def test_mdg6_open_closed_form_is_complex_for_negative_t():
    values = checks.mdg6_open_spectrum(-1e-4)
    assert all(abs(v.real) == 0.0 for v in values)
    assert sorted(abs(v.imag) for v in values)[-1] == pytest.approx(0.05)


@pytest.mark.parametrize(
    "code, expected, stderr, ok",
    [
        (2, 2, "error: unknown model\n", True),
        (0, 2, "", False),
        (1, 2, "Traceback (most recent call last):\n", False),
        (3, 2, "error: outside\n", False),
        (3, 3, "", False),
    ],
)
def test_exit_codes(code, expected, stderr, ok):
    assert (checks.check_exit(code, expected, stderr) == []) is ok


def test_wrong_exit_code_fails_a_command():
    command = next(c for c in clitasks.COMMANDS if c.kind == "error:outside-validity")
    found = clitasks.CommandResult(2, "", "error: x\n", None, None)
    assert clitasks.check_command(command, found, REF)
    found = clitasks.CommandResult(3, "", "error: x\n", None, None)
    assert clitasks.check_command(command, found, REF) == []


def bundle(intervals, markers):
    lines = ["# command: domains", "# model: mdg6-w1", "# table: intervals",
             "lo,hi,count_real,boundary_tol"]
    lines += [f"{a!r},{b!r},{c},1e-10" for a, b, c in intervals]
    lines += ["# table: ep_markers", "t_star,order,kind,residual"]
    lines += [f"{t!r},{o},{k},1e-10" for t, o, k in markers]
    return "\n".join(lines) + "\n"


def test_domains_command_checks_csv_and_svg():
    command = next(c for c in clitasks.COMMANDS if c.kind == "domains:mdg6-w1")
    intervals = exact_intervals("mdg6-w1", -0.4, 0.4)
    markers = [m for m in exact_markers("mdg6-w1", -0.4, 0.4) if m[2] == "complexification"]
    svg = '<svg xmlns="http://www.w3.org/2000/svg"></svg>'
    good = clitasks.CommandResult(0, "", "", bundle(intervals, markers), svg)
    assert clitasks.check_command(command, good, REF) == []
    broken_svg = clitasks.CommandResult(0, "", "", bundle(intervals, markers), "<svg")
    assert clitasks.check_command(command, broken_svg, REF)
    flipped = [intervals[0], (intervals[1][0], intervals[1][1], 4), intervals[2]]
    bad = clitasks.CommandResult(0, "", "", bundle(flipped, markers), svg)
    assert clitasks.check_command(command, bad, REF)
    renamed = good.out_text.replace("count_real", "real_count")
    assert clitasks.check_command(command, clitasks.CommandResult(0, "", "", renamed, svg), REF)


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:        50 |        150 | numpy",
            "import time:        10 |         10 |     scipy._lib",
            "import time:        20 |         30 |   scipy",
            "import time:         5 |          5 |     numpy.linalg",
            "import time:        40 |         75 |   scipy.optimize",
            "import time:        30 |        135 | ptlattice",
        ]
    )
    totals = run.parse_importtime(text)
    assert totals["ptlattice"] == pytest.approx(135e-6)
    assert totals["scipy"] == pytest.approx(105e-6)
    assert totals["numpy"] == pytest.approx(155e-6)


def test_reference_file_is_reproduced():
    pytest.importorskip("sympy")
    import derive_reference

    text = json.dumps(derive_reference.derive(), indent=1, sort_keys=True) + "\n"
    assert text == checks.REFERENCE_PATH.read_text(encoding="utf-8")
