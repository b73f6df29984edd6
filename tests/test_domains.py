"""Reality domains, boundary refinement, and exceptional-point location."""

import math

import numpy as np
import pytest

from ptlattice import (
    BracketError,
    ConsistencyError,
    DegenerateSpectrumError,
    EPKind,
    EpNotFoundError,
    InvalidSpecError,
    Model,
    ModelDomainError,
    count_real,
    degeneracy_order,
    domain_report,
    get_family,
    iter_families,
    load_custom_model,
    locate_coalescence_ep,
    maximal_jordan_block,
    min_pairwise_gap,
    positivity_interval,
    reality_islands,
    refine_reality_boundary,
    reference_metric_ec4,
)
from ptlattice.cli import main
from ptlattice.domains import bisect_edge
from ptlattice.spectra import count_real_rows, min_pairwise_gaps
from ptlattice.tolerances import (
    MAX_GRID_POINTS,
    POINTS_PER_UNIT,
    check_bracket,
    check_eps_real,
    grid_steps,
)


def test_refine_boundary_ec4_three_halves():
    family = get_family(Model.EC4)
    b = refine_reality_boundary(family, 1.4, 1.6, 1e-10)
    assert b == pytest.approx(1.5, abs=1e-8)


def test_refine_boundary_needs_a_real_bracket():
    family = get_family(Model.EC4)
    with pytest.raises(BracketError):
        refine_reality_boundary(family, 0.2, 0.4, 1e-8)


def test_bisect_edge_stops_where_doubles_are_wider_than_tol():
    # Above 2^19 adjacent doubles lie more than 1e-10 apart, so the bracket
    # cannot shrink to tol; it must stop at two adjacent doubles.
    calls = 0

    def keep(t):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("bisect_edge does not terminate")
        return t < 5.3e5 + 0.3

    edge = bisect_edge(keep, 5.3e5, 5.3e5 + 1, 1e-10)
    assert abs(edge - (5.3e5 + 0.3)) <= math.ulp(5.3e5)
    assert calls < 100


def test_locate_coalescence_ep_ec4():
    family = get_family(Model.EC4)
    ep = locate_coalescence_ep(family, 1.3, 1.45, 1e-9)
    assert ep.t_star == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert ep.order == 2
    assert ep.kind is EPKind.REAL_COALESCENCE
    assert ep.residual <= 1e-4


def test_locate_coalescence_ep_mdg6_order6():
    family = get_family(Model.MDG6_OPEN)
    ep = locate_coalescence_ep(family, -0.1, 0.1, 1e-9)
    # An order-6 coalescence smears eigenvalues by u**(1/6) ~ 2e-3 around
    # the true point, so the minimum-gap locator can only pin t_star to
    # roughly that scale; the order itself is the sharp contract.
    assert ep.t_star == pytest.approx(0.0, abs=1e-3)
    assert ep.order == 6


def test_locate_rejects_avoided_crossing():
    # Hermitian comparison stub: eigenvalues repel, eigenvectors stay apart.
    class Repulsive:
        n = 2

        @staticmethod
        def matrix(t):
            return np.array([[t, 0.05], [0.05, -t]])

    with pytest.raises(EpNotFoundError):
        locate_coalescence_ep(Repulsive, -0.3, 0.3, 1e-9)


def test_locate_rejects_diabolical_crossing():
    # Eigenvalues do cross here, but the eigenvectors stay orthogonal,
    # so the point must not be classified as an exceptional point.
    class Diabolical:
        n = 2

        @staticmethod
        def matrix(t):
            return np.array([[t, 0.0], [0.0, -t]])

    with pytest.raises(EpNotFoundError):
        locate_coalescence_ep(Diabolical, -0.3, 0.3, 1e-9)


def test_locate_rejects_degenerate_endpoint():
    family = get_family(Model.EC4)
    with pytest.raises(DegenerateSpectrumError):
        locate_coalescence_ep(family, 1.5, 1.55, 1e-9)


def test_degeneracy_order_counts_clusters():
    assert degeneracy_order(np.diag([1.0, 1.0 + 1e-9, 5.0]), 1e-6) == 2
    assert degeneracy_order(np.diag([1.0, 2.0, 5.0]), 1e-9) == 1


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_degeneracy_order_rejects_a_bad_tol(tol):
    with pytest.raises(InvalidSpecError, match="tol must be positive and finite"):
        degeneracy_order(np.diag([1.0, 2.0, 5.0]), tol)


def test_degeneracy_order_full_collapse():
    h = get_family(Model.MDG6_OPEN).matrix(0.0)
    assert degeneracy_order(h, 1e-2) == 6


def test_maximal_jordan_block_detection():
    h = get_family(Model.MDG6_OPEN).matrix(0.0)
    assert maximal_jordan_block(h)
    # diagonalizable degeneracy is NOT a maximal block
    assert not maximal_jordan_block(np.zeros((3, 3)))


def test_domain_report_ec4():
    family = get_family(Model.EC4)
    report = domain_report(family, 0.0, 1.6)
    counts = [c for _, _, c in report.intervals]
    assert counts == [4, 2]
    assert report.intervals[0][1] == pytest.approx(1.5, abs=1e-8)
    kinds = {ep.kind for ep in report.eps}
    assert kinds == {EPKind.REAL_COALESCENCE, EPKind.COMPLEXIFICATION}
    coalescence = [ep for ep in report.eps if ep.kind is EPKind.REAL_COALESCENCE]
    assert len(coalescence) == 1
    assert coalescence[0].t_star == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_domain_report_intervals_tile_the_range():
    family = get_family(Model.MDG6_W1)
    report = domain_report(family, -0.4, 0.4)
    assert report.intervals[0][0] == -0.4
    assert report.intervals[-1][1] == 0.4
    for (_, hi1, _), (lo2, _, _) in zip(report.intervals, report.intervals[1:]):
        assert hi1 == lo2


def test_reality_islands_w2_contains_zero():
    family = get_family(Model.MDG6_W2)
    islands = reality_islands(family, -0.1, 0.1, 4)
    assert any(lo < 0.0 < hi for lo, hi in islands)


def test_reality_islands_rejects_unreachable_count():
    family = get_family(Model.EC4)
    with pytest.raises(InvalidSpecError):
        reality_islands(family, 0.0, 1.0, 3)


def test_domain_report_validates_range():
    family = get_family(Model.EC4)
    with pytest.raises(InvalidSpecError):
        domain_report(family, 1.0, 0.0)


@pytest.mark.parametrize(
    "lo, hi, options",
    [
        (0.0, math.inf, {}),
        (-math.inf, 0.0, {}),
        (math.nan, 1.0, {}),
        (0.0, 1e6, {}),
        (0.0, 1.0, {"coarse_steps": 1}),
        (0.0, 1.0, {"coarse_steps": MAX_GRID_POINTS + 1}),
        (0.0, 1.0, {"eps_real": -1e-9}),
        (0.0, 1.0, {"eps_real": math.nan}),
        (0.0, 1.0, {"tol": 0.0}),
        (0.0, 1.0, {"tol": math.nan}),
    ],
)
def test_domain_report_rejects_unbounded_inputs(lo, hi, options):
    with pytest.raises(InvalidSpecError):
        domain_report(get_family(Model.EC4), lo, hi, **options)


def test_grid_steps_automatic_density_and_bound():
    assert grid_steps(-0.4, 0.4) == math.ceil(0.8 * POINTS_PER_UNIT) + 1
    assert grid_steps(0.0, 1e-9) == 2
    assert grid_steps(0.0, 1.0, 201) == 201
    assert grid_steps(0.0, 1.0, MAX_GRID_POINTS) == MAX_GRID_POINTS
    with pytest.raises(InvalidSpecError, match="give fewer steps or a narrower range$"):
        grid_steps(-1e308, 1e308)


def _scan_rows():
    """Eigenvalue rows of every registry family across a dense grid."""
    for family in iter_families():
        ts = np.linspace(max(family.t_min, -2.0), min(family.t_max, 2.0), 801)
        yield np.linalg.eigvals(family.matrices(ts))
    # A repeated eigenvalue, pairs with |Im| at the reality threshold, a nan.
    yield np.array(
        [
            [1.0, 1.0, 2.0, 3.0],
            [1.0 + 1e-9j, 1.0 - 1e-9j, -2.0, 0.5],
            [4.0 + 4e-9j, 4.0 - 4e-9j, 1.0, 1.0],
            [math.nan, 1.0, 2.0, 3.0],
        ]
    )


def test_row_rules_match_the_one_row_calls():
    for rows in _scan_rows():
        counts = count_real_rows(rows)
        gaps = min_pairwise_gaps(rows)
        assert counts.tolist() == [count_real(row) for row in rows]
        # Bit for bit, nan included.
        expected = np.array([min_pairwise_gap(row) for row in rows])
        assert gaps.tobytes() == expected.tobytes()
    assert min_pairwise_gaps(np.ones((3, 1))).tolist() == [math.inf] * 3
    assert count_real_rows(np.ones((2, 0))).tolist() == [0, 0]


def test_row_count_rejects_the_first_odd_complex_row():
    rows = np.array([[1.0, 2.0, 3.0], [1.0j, 2.0, 3.0], [1.0j, 2.0j, 3.0j]])
    with pytest.raises(ConsistencyError) as err:
        count_real_rows(rows)
    with pytest.raises(ConsistencyError) as one_row:
        count_real(rows[1])
    assert str(err.value) == str(one_row.value)
    assert str(err.value).startswith("1 eigenvalues classified complex")


# Two real eigenvalues only on a window of width 2e-3 around t = 0.5, where
# the coupling drops below 1.
WINDOW_DOC = """\
name: window
n: 2
topology: open
diag: ["-1", "1"]
couplings: ["sqrt(10000*(t - 0.5)*(t - 0.5) + 0.99)"]
t_range: [0, 1]
"""


def test_interval_counts_come_from_the_grid_points_they_cover(tmp_path):
    path = tmp_path / "window.yaml"
    path.write_text(WINDOW_DOC, encoding="utf-8")
    family = load_custom_model(str(path))
    # Both points of a two-point grid read 0; the window between them is
    # not seen, and the interval takes their count.
    assert domain_report(family, 0.0, 1.0, coarse_steps=2).intervals == ((0.0, 1.0, 0),)
    fine = domain_report(family, 0.0, 1.0).intervals
    assert [count for _, _, count in fine] == [0, 2, 0]
    assert fine[1][0] == pytest.approx(0.499, abs=1e-9)
    assert fine[1][1] == pytest.approx(0.501, abs=1e-9)


# Undefined for |t| < 1/4, inside the stated range.
HOLE_DOC = """\
name: hole
n: 4
topology: open
diag: ["2", "-1", "1", "-2"]
couplings: ["sqrt(t*t - 0.0625)", "t", "t"]
t_range: [-1, 1]
"""


def test_undefined_entry_inside_the_range_is_reported_at_its_first_grid_point(
    tmp_path, capsys
):
    path = tmp_path / "hole.yaml"
    path.write_text(HOLE_DOC, encoding="utf-8")
    family = load_custom_model(str(path))
    grid = np.linspace(-1.0, 1.0, grid_steps(-1.0, 1.0))
    first = grid[grid * grid - 0.0625 < 0][0]
    with pytest.raises(ModelDomainError) as err:
        domain_report(family, -1.0, 1.0)
    assert err.value.t == first
    code = main(["domains", "--config", str(path), "--t-min", "-1", "--t-max", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {err.value}\n"
    assert f"undefined at t={first}" in captured.err


# The library names its parameters; the command line adds its option names.
_BAD_OPTIONS = [
    ((0.0, math.inf, 1e-8, 0.0), ["--t-min", "0", "--t-max", "inf"],
     "t-range must be finite, got [0.0, inf]",
     "t-range (--t-min, --t-max) must be finite, got [0.0, inf]"),
    ((1.0, 0.0, 1e-8, 0.0), ["--t-min", "1", "--t-max", "0"],
     "need lo < hi, got [1.0, 0.0]",
     "need lo < hi (--t-min < --t-max), got [1.0, 0.0]"),
    ((0.0, 1.0, 0.0, 0.0), ["--t-min", "0", "--t-max", "1", "--tol", "0"],
     "tol must be positive and finite, got 0.0",
     "tol (--tol) must be positive and finite, got 0.0"),
    ((0.0, 1.0, 1e-8, -1.0), ["--t-min", "0", "--t-max", "1", "--eps-real", "-1"],
     "eps_real must be non-negative and finite, got -1.0",
     "eps_real (--eps-real) must be non-negative and finite, got -1.0"),
    ((-1e308, 1e308, 1e-8, 0.0), ["--t-min=-1e308", "--t-max=1e308"],
     "t-range must have a finite width, got [-1e+308, 1e+308]",
     "t-range (--t-min, --t-max) must have a finite width, got [-1e+308, 1e+308]"),
]


@pytest.mark.parametrize("values, options, library, cli", _BAD_OPTIONS)
def test_library_messages_name_no_option(values, options, library, cli):
    lo, hi, tol, eps_real = values
    with pytest.raises(InvalidSpecError) as info:
        check_bracket(lo, hi, tol)
        check_eps_real(eps_real)
    assert str(info.value) == library


@pytest.mark.parametrize("values, options, library, cli", _BAD_OPTIONS)
def test_cli_messages_name_the_options(values, options, library, cli, capsys):
    assert main(["domains", "--model", "ec4", *options]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cli}\n"
    assert captured.out == ""


# The grid-size checks, in the library and on the command line.
_BAD_GRIDS = [
    (1, "need at least 2 grid points, got 1", "need at least 2 grid points (--steps), got 1"),
    (MAX_GRID_POINTS + 1,
     f"the grid on [0.0, 1.0] would exceed {MAX_GRID_POINTS} points; "
     "give fewer steps or a narrower range",
     f"the grid on [0.0, 1.0] would exceed {MAX_GRID_POINTS} points; "
     "give fewer --steps or a narrower --t-min/--t-max range"),
]


@pytest.mark.parametrize("steps, library, cli", _BAD_GRIDS)
def test_library_grid_messages_name_no_option(steps, library, cli):
    with pytest.raises(InvalidSpecError) as info:
        positivity_interval(reference_metric_ec4(0.0), 0.0, 1.0, 1e-8, coarse_steps=steps)
    assert str(info.value) == library


@pytest.mark.parametrize("command", ["domains", "metric"])
@pytest.mark.parametrize("steps, library, cli", _BAD_GRIDS)
def test_cli_grid_messages_name_the_options(command, steps, library, cli, capsys):
    options = ["--t-min", "0", "--t-max", "1", "--steps", str(steps)]
    assert main([command, "--model", "ec4", *options]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cli}\n"
    assert captured.out == ""
