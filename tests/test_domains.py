"""Reality domains, boundary refinement, and exceptional-point location."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ptlattice import (
    BracketError,
    ConsistencyError,
    DegenerateSpectrumError,
    EPKind,
    EPLocation,
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
    vector_angle,
)
from ptlattice.cli import main
from ptlattice.domains import bisect_edge
from ptlattice.exact import reality_map
from ptlattice.models import ModelFamily
from ptlattice.poly import square_free_part
from ptlattice.spectra import _perturbation_order, count_real_rows, min_pairwise_gaps
from ptlattice.tolerances import (
    ANGLE_TOL,
    EPS_REAL,
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


def test_degeneracy_order_survives_a_frobenius_norm_above_the_dot_product_range():
    # ||1e200 H||_F overflows the one-dot-product norm; the scale must not.
    h = get_family(Model.EC4).matrix(math.sqrt(2.0))
    assert degeneracy_order(1e200 * h, 1e-6) == degeneracy_order(h, 1e-6) == 2


def test_huge_entries_keep_the_coalescence_of_a_document_that_does_not_fold(
    tmp_path, capsys
):
    # The ec4 ring, its corner bond written so that it does not fold, with
    # every entry times 1e200: ||H||_F lies above the dot-product range.
    path = tmp_path / "big.yaml"
    path.write_text(
        'name: big-ec4\nn: 4\ntopology: ring\n'
        'diag: ["-3e200", "-1e200", "1e200", "3e200"]\n'
        'couplings: ["1e200*t", "1e200*t", "1e200*t", "1e200*sqrt(sqrt(t*t*t*t))"]\n'
        "t_range: [-10, 10]\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ep", "--config", str(path), "--t-min", "-2", "--t-max", "2"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines() if "real-coalescence" in line]
    assert len(rows) == 1 and abs(float(rows[0][0]) - math.sqrt(2.0)) < 1e-6


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


# The same coupling through a nested sqrt, which the exact engine does not
# fold, so its domains come from the grid.
GRID_WINDOW_DOC = WINDOW_DOC.replace(
    '"sqrt(10000*(t - 0.5)*(t - 0.5) + 0.99)"',
    '"sqrt(sqrt((10000*(t - 0.5)*(t - 0.5) + 0.99)*(10000*(t - 0.5)*(t - 0.5) + 0.99)))"',
)


def _load(tmp_path, text: str, name: str = "model.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_custom_model(str(path))


def test_interval_counts_come_from_the_grid_points_they_cover(tmp_path):
    family = _load(tmp_path, GRID_WINDOW_DOC)
    assert reality_map(family) is None
    # Both points of a two-point grid read 0; the window between them is
    # not seen, and the interval takes their count.
    assert domain_report(family, 0.0, 1.0, coarse_steps=2).intervals == ((0.0, 1.0, 0),)
    fine = domain_report(family, 0.0, 1.0).intervals
    assert [count for _, _, count in fine] == [0, 2, 0]
    assert fine[1][0] == pytest.approx(0.499, abs=1e-9)
    assert fine[1][1] == pytest.approx(0.501, abs=1e-9)


@pytest.mark.parametrize("steps", [2, 3, None])
def test_exact_engine_finds_the_window_at_any_grid(tmp_path, steps):
    # 1 - c^2 = 0.01 - 10000 (t - 0.5)^2: real exactly for |t - 0.5| <= 0.001.
    family = _load(tmp_path, WINDOW_DOC)
    report = domain_report(family, 0.0, 1.0, coarse_steps=steps)
    assert report.intervals == ((0.0, 0.499, 0), (0.499, 0.501, 2), (0.501, 1.0, 0))


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


# ------------------------------------------------------------ exact engine

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DEMO_CHAIN = REFERENCE.parent / "demo-chain.yaml"


def _reference_family(name: str):
    return load_custom_model(str(DEMO_CHAIN)) if name == "demo-chain" else get_family(name)


@pytest.mark.parametrize(
    "name",
    ["mdg6-open", "mdg6-w1", "mdg6-w2", "ec4", "ec4-strongbond", "ec4-recoupled", "demo-chain"],
)
def test_reality_map_equals_the_reference(name):
    # reference.json was derived with sympy, without ptlattice.
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["families"][name]
    rmap = reality_map(_reference_family(name))
    lo, hi = ref["range"]
    assert rmap.degree == ref["disc_degree"]
    assert [r for r in rmap.roots if lo < r < hi] == [r["t"] for r in ref["roots"]]
    assert [rmap.count_above(max(c["lo"], lo)) for c in ref["cells"]] == [
        c["count"] for c in ref["cells"]
    ]


PRIME = 2**61 - 1  # the modulus of square_free_part's modular test


@pytest.mark.parametrize(
    "p, core",
    [
        ([2, -3, 1], [2, -3, 1]),  # (t - 1)(t - 2)
        ([-2, 3, 0, -1], [-2, 1, 1]),  # -(t - 1)^2 (t + 2)
        ([0, 0, 1, 1], [0, 1, 1]),  # t^2 (t + 1)
        ([1, 2 * PRIME, PRIME**2], [1, PRIME]),  # (q t + 1)^2 is 1 modulo q
        ([PRIME, 0, 1], [PRIME, 0, 1]),  # t^2 + q is t^2 modulo q, a square
    ],
)
def test_square_free_part(p, core):
    assert square_free_part(p) == core


def test_range_ending_on_an_ep_is_one_interval():
    report = domain_report(get_family(Model.EC4), 0.0, 1.5)
    assert report.intervals == ((0.0, 1.5, 4),)
    assert [(ep.t_star, ep.order, ep.kind) for ep in report.eps] == [
        (1.4142135623730951, 2, EPKind.REAL_COALESCENCE)
    ]


def test_order_six_point_has_no_sliver():
    report = domain_report(get_family(Model.MDG6_OPEN), -1.0, 1.0)
    assert report.intervals == ((-1.0, 0.0, 0), (0.0, 1.0, 6))
    assert [(ep.t_star, ep.order, ep.kind) for ep in report.eps] == [
        (0.0, 6, EPKind.COMPLEXIFICATION)
    ]


def test_strongbond_window_between_grid_points():
    # The window is 2.9e-4 wide; the grid of this range has spacing 5e-4.
    report = domain_report(get_family(Model.EC4_STRONG_BOND), 0.0002, 1.6002)
    assert (1.3719886811400708, 1.3722813232690143, 4) in report.intervals


def test_w1_coalescence_of_complex_pairs_is_marked():
    report = domain_report(get_family(Model.MDG6_W1), -0.4, 0.4)
    marker = [ep for ep in report.eps if ep.t_star == -0.14997243286963111]
    assert [(ep.order, ep.kind) for ep in marker] == [(2, EPKind.COMPLEX_COALESCENCE)]
    assert [ep.t_star for ep in report.eps] == [
        -0.28204255045541421, -0.14997243286963111, 0.16316036035895568
    ]


def _chain_doc(n: int, diag, couplings, topology="open", t_range="[-1, 1]") -> str:
    return (
        f"name: doc\nn: {n}\ntopology: {topology}\ndiag: {json.dumps(diag)}\n"
        f"couplings: {json.dumps(couplings)}\nt_range: {t_range}\n"
    )


EC4_DIAG = ["-3", "-1", "1", "3"]


@pytest.mark.parametrize(
    "doc",
    [
        _chain_doc(4, ["sqrt(2)", "-1", "1", "3"], ["t", "t", "t"]),
        _chain_doc(4, EC4_DIAG, ["sqrt(t + 2) + sqrt(2 - t)", "t", "t"]),
        _chain_doc(4, EC4_DIAG, ["sqrt(sqrt(t + 2))", "t", "t"]),
        _chain_doc(4, EC4_DIAG, ["1/t", "t", "t"], t_range="[0.5, 2]"),
        _chain_doc(4, EC4_DIAG, ["sqrt(1 - t)", "t / 3", "sqrt(t + 2) * t", "1 - t*t"], "ring"),
        _chain_doc(4, EC4_DIAG, ["sqrt(t*t)", "t", "t", "t"], "ring"),
        _chain_doc(4, ["1", "1", "1", "1"], ["0", "t", "0"]),
        # w = 3, so the degree bound is 3 * 6 * 5 = 90.
        _chain_doc(6, ["0", "1", "2", "3", "4", "5"], ["t*t*t"] * 5),
    ],
    ids=[
        "radical-on-diagonal", "sum-of-radicals", "nested-sqrt", "non-constant-divisor",
        "ring-radicands-not-a-square", "ring-square-root-changes-sign",
        "discriminant-identically-zero", "degree-bound-above-the-cap",
    ],
)
def test_documents_outside_the_engine_take_the_float_path(tmp_path, doc):
    assert reality_map(_load(tmp_path, doc)) is None


@pytest.mark.parametrize(
    "n, coupling, taken",
    [
        (6, "t + 0.5", True),  # w = 1: degree bound 30, the cap
        (7, "t + 0.5", False),  # degree bound 42
        (4, "t*t*t + 0.5", False),  # w = 3: degree bound 36
        (8, "sqrt(t + 2)", True),  # w = 1/2: degree bound 28, whatever n is
    ],
)
def test_engine_takes_a_document_by_its_degree_bound(tmp_path, n, coupling, taken):
    doc = _chain_doc(n, [str(k) for k in range(n)], [coupling] * (n - 1))
    assert (reality_map(_load(tmp_path, doc)) is not None) is taken


def test_ring_square_root_of_one_sign_folds(tmp_path):
    # sqrt(t*t) is t on [0.5, 2], where this ring is ec4.
    doc = _chain_doc(4, EC4_DIAG, ["sqrt(t*t)", "t", "t", "t"], "ring", "[0.5, 2]")
    family = _load(tmp_path, doc)
    ec4 = reality_map(get_family(Model.EC4))
    rmap = reality_map(family)
    assert [r for r in rmap.roots if 0.5 < r < 2] == [r for r in ec4.roots if 0.5 < r < 2]
    assert domain_report(family, 0.5, 2.0).intervals == domain_report(
        get_family(Model.EC4), 0.5, 2.0
    ).intervals


def test_non_folding_document_keeps_the_grid_and_eps_real(tmp_path):
    # Guard: the float path classifies with eps_real, so a threshold wider
    # than the window's imaginary parts reads the whole range as real.
    family = _load(tmp_path, GRID_WINDOW_DOC)
    wide = domain_report(family, 0.0, 1.0, eps_real=1.0)
    assert wide.intervals == ((0.0, 1.0, 2),)
    exact = _load(tmp_path, WINDOW_DOC, "exact.yaml")
    assert domain_report(exact, 0.0, 1.0, eps_real=1.0).intervals[1] == (0.499, 0.501, 2)


# Each family's reference.json range, the ranges of the benchmark's scan
# workload, and the ranges of the README and CI commands.
MARKER_RANGES = {
    "mdg6-open": [(-1.0, 1.0)],
    "mdg6-w1": [(-1.0, 1.0), (-0.4, 0.4), (0.2, 0.9)],
    "mdg6-w2": [(-1.0, 1.0), (-0.7, 0.4)],
    "ec4": [(-2.0, 2.0), (-1.6, 1.6), (1.0, 1.45), (0.0, 1.5), (-20.0, 20.0)],
    "ec4-strongbond": [(-2.0, 2.0), (0.0, 1.6), (0.0002, 1.6002), (0.2, 1.0)],
    "ec4-recoupled": [(-2.0, 2.0), (-1.6, 1.6), (0.0, 1.4)],
    "demo-chain": [(-3.0, 3.0), (0.0, 3.0)],
}


def _one_root_marker(family, root: float, boundary: bool, tol: float):
    """The marker at one root built alone: its own matrix, norm and eigensolve.

    None where the eigenvector-alignment test rejects a crossing.
    """
    h = family.matrix(root)
    n = h.shape[0]
    scale = max(1.0, float(np.linalg.norm(h)))
    if boundary:
        order = max(2, _perturbation_order(np.linalg.eigvals(h), scale, n))
        return EPLocation(float(root), order, EPKind.COMPLEXIFICATION, float(tol))
    values, vectors = np.linalg.eig(h)
    order = _perturbation_order(values, scale, n)
    if order < 2:
        return None
    i, j = np.triu_indices(n, 1)
    closest = np.abs(values[i] - values[j]).argmin()
    i, j = i[closest], j[closest]
    angle = vector_angle(vectors[:, i], vectors[:, j])
    if angle > max(ANGLE_TOL, 50.0 * float(np.finfo(float).eps) ** (1.0 / order)):
        return None
    off_axis = abs((values[i] + values[j]).imag) / 2 > EPS_REAL * max(
        1.0, float(np.abs(values).max())
    )
    kind = EPKind.COMPLEX_COALESCENCE if off_axis else EPKind.REAL_COALESCENCE
    return EPLocation(float(root), order, kind, float(angle))


def test_stacked_markers_equal_the_one_root_construction():
    mixed = 0  # stacks whose rows come back complex where a row alone is real
    for name, ranges in MARKER_RANGES.items():
        family = _reference_family(name)
        rmap = reality_map(family)
        for lo, hi in ranges:
            report = domain_report(family, lo, hi)
            expected, rows = [], {True: [], False: []}
            for root in rmap.roots_inside(lo, hi):
                boundary = rmap.count_above(root) != rmap.count_above(np.nextafter(root, -np.inf))
                rows[boundary].append(family.matrix(root))
                expected.append(_one_root_marker(family, root, boundary, 1e-10))
            assert [repr(ep) for ep in report.eps] == [
                repr(ep) for ep in expected if ep is not None
            ], (name, lo, hi)
            for stack in filter(None, rows.values()):
                real_alone = any(np.isrealobj(np.linalg.eigvals(h)) for h in stack)
                mixed += real_alone and np.iscomplexobj(np.linalg.eigvals(np.stack(stack)))
    assert mixed > 0


def test_exact_path_checks_the_grid_without_assembling_it(monkeypatch):
    lengths = []
    matrices = ModelFamily.matrices

    def spy(self, ts):
        lengths.append(len(ts))
        return matrices(self, ts)

    monkeypatch.setattr(ModelFamily, "matrices", spy)
    for name, ranges in MARKER_RANGES.items():
        family = _reference_family(name)
        assert reality_map(family) is not None
        for lo, hi in ranges:
            domain_report(family, lo, hi)
            assert grid_steps(lo, hi) not in lengths, (name, lo, hi)


# An entry that overflows a double for |t| < 0.45, inside the stated range.
OVERFLOW_DOC = """\
name: overflow
n: 2
topology: open
diag: ["1", "-1"]
couplings: ["1e308*(2 - t*t)"]
t_range: [-1, 1]
"""


@pytest.mark.parametrize(
    "doc, name, lo, hi, message, t",
    [
        (HOLE_DOC, None, -1.0, 1.0,
         "model hole: an entry is undefined at t=-0.24987506246876567 (math domain error)",
         -0.24987506246876567),
        (OVERFLOW_DOC, None, -1.0, 1.0,
         "model overflow: an entry is not finite in double precision at t=-0.4497751124437781",
         -0.4497751124437781),
        (None, "mdg6-w1", -0.4, 1.5,
         "model mdg6-w1: t=1.5 outside validity range [-inf, 1.0]; "
         "radical sqrt(1 - t) would be imaginary",
         1.5),
    ],
    ids=["undefined-inside", "overflow-inside", "past-the-validity-interval"],
)
def test_exact_path_grid_errors_are_those_of_matrix(
    tmp_path, capsys, doc, name, lo, hi, message, t
):
    # Message and t as the report gave them when it assembled the grid's stack.
    if doc:
        path = tmp_path / "model.yaml"
        path.write_text(doc, encoding="utf-8")
        family, source = load_custom_model(str(path)), ["--config", str(path)]
    else:
        family, source = get_family(name), ["--model", name]
    assert reality_map(family) is not None
    assert not family.certify_entries(lo, hi)  # so the grid is checked
    with pytest.raises(ModelDomainError) as err:
        domain_report(family, lo, hi)
    assert type(err.value) is ModelDomainError
    assert (str(err.value), err.value.t) == (message, t)
    code = main(["domains", *source, "--t-min", str(lo), "--t-max", str(hi)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


# A two-site chain whose inferred end 3.0 is the correctly rounded root of
# its radicand, where 0.3 - 0.1*3.0 is -5.6e-17 in doubles.
ROUNDED_ROOT_DOC = """\
name: edge
n: 2
topology: open
diag: ["1", "-1"]
couplings: ["sqrt(0.3 - 0.1*t)"]
"""


def test_a_range_the_certificate_cannot_prove_takes_the_grid_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "edge.yaml"
    path.write_text(ROUNDED_ROOT_DOC, encoding="utf-8")
    family = load_custom_model(str(path))
    assert reality_map(family) is not None and family.t_max == 3.0
    checked = []
    check_entries = ModelFamily.check_entries

    def spy(self, ts):
        checked.append(len(ts))
        return check_entries(self, ts)

    monkeypatch.setattr(ModelFamily, "check_entries", spy)
    message = "model edge: an entry is undefined at t=3.0 (math domain error)"
    with pytest.raises(ModelDomainError) as err:
        domain_report(family, 0.0, 3.0)
    assert (str(err.value), err.value.t) == (message, 3.0)
    assert checked == [grid_steps(0.0, 3.0)]
    code = main(["domains", "--config", str(path), "--t-min", "0", "--t-max", "3.0"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


# The exact-path ranges of the README, the CI README step and the scan
# workload; the interval enclosure proves each one's entries.
CERTIFIED_RANGES = {
    "mdg6-open": [(-1.0, 1.0)],
    "mdg6-w1": [(-0.4, 0.4)],
    "mdg6-w2": [(-0.7, 0.4)],
    "ec4": [(-1.6, 1.6), (1.0, 1.45), (0.0, 1.5)],
    "ec4-strongbond": [(0.0, 1.6), (0.0002, 1.6002)],
    "ec4-recoupled": [(-1.6, 1.6)],
    "demo-chain": [(0.0, 3.0)],
}


def _refuse(*args, **kwargs):
    raise AssertionError("not to be called here")


def _certified_cases():
    for name, ranges in CERTIFIED_RANGES.items():
        family = _reference_family(name)
        for lo, hi in ranges:
            yield family, lo, hi, range(family.n % 2, family.n + 1, 2)


def test_certified_ranges_build_no_grid(monkeypatch):
    expected = {
        (family.name, lo, hi): (
            domain_report(family, lo, hi), [reality_islands(family, lo, hi, k) for k in ks]
        )
        for family, lo, hi, ks in _certified_cases()
    }
    monkeypatch.setattr(np, "linspace", _refuse)
    monkeypatch.setattr(ModelFamily, "check_entries", _refuse)
    for family, lo, hi, ks in _certified_cases():
        report, islands = expected[family.name, lo, hi]
        assert domain_report(family, lo, hi) == report
        assert [reality_islands(family, lo, hi, k) for k in ks] == islands


def test_exact_path_islands_reach_no_eigensolver(monkeypatch):
    expected = {
        (family.name, lo, hi): [reality_islands(family, lo, hi, k) for k in ks]
        for family, lo, hi, ks in _certified_cases()
    }
    for solver in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "qr", "solve"):
        monkeypatch.setattr(np.linalg, solver, _refuse)
    monkeypatch.setattr(ModelFamily, "matrix", _refuse)
    for family, lo, hi, ks in _certified_cases():
        assert [reality_islands(family, lo, hi, k) for k in ks] == expected[family.name, lo, hi]


# The ring of ec4 with its corner bond written sqrt(sqrt(t^4)) = |t|: the
# nested sqrt does not fold, so the document takes the float path.
SMALL_EC4_DOC = """\
name: small-ec4
n: 4
topology: ring
diag: ["-3", "-1", "1", "3"]
couplings: ["t", "t", "t", "sqrt(sqrt(t*t*t*t))"]
t_range: [-10, 10]
"""


def test_float_path_islands_run_no_golden_section_search(tmp_path, monkeypatch):
    from ptlattice import domains

    family = _load(tmp_path, SMALL_EC4_DOC)
    assert reality_map(family) is None
    located = []
    locate = domains.locate_coalescence_ep

    def spy(*args):
        located.append(args[1:])
        return locate(*args)

    monkeypatch.setattr(domains, "locate_coalescence_ep", spy)
    report = domain_report(family, -2.0, 2.0)
    assert located  # the report tests its gap minima
    monkeypatch.setattr(domains, "locate_coalescence_ep", _refuse)
    for k in (0, 2, 4):
        expected = tuple((a, b) for a, b, count in report.intervals if count == k)
        assert reality_islands(family, -2.0, 2.0, k) == expected


# ec4 times 1e200: ||H||_F overflows a dot product, not a double.
HUGE_EC4_DOC = """\
name: huge-ec4
n: 4
topology: ring
diag: ["-3e200", "-1e200", "1e200", "3e200"]
couplings: ["1e200*t", "1e200*t", "1e200*t", "1e200*t"]
"""


def test_marker_orders_of_a_huge_model_are_those_of_the_model(tmp_path):
    # The cluster threshold scales with the finite norm of _frobenius_scales;
    # an infinite scale would link every eigenvalue and read order 4.
    report = domain_report(_load(tmp_path, HUGE_EC4_DOC), -2.0, 2.0)
    assert [(ep.t_star, ep.order) for ep in report.eps] == [
        (-1.5, 2), (-1.4142135623730951, 2), (1.4142135623730951, 2), (1.5, 2)
    ]


def test_grid_within_agrees_with_linspace():
    import random

    from ptlattice.domains import _grid_within

    rng = random.Random(35)
    for _ in range(2000):
        e = rng.randint(-30, 30)
        hi = rng.uniform(-1.0, 1.0) * 2.0**e
        lo = hi - rng.random() * 2.0 ** rng.randint(e - 55, e + 2)
        if not lo < hi:
            continue
        steps = rng.randint(2, 3000)
        grid = np.linspace(lo, hi, steps)
        assert _grid_within(lo, hi, steps) == bool((lo <= grid).all() and (grid <= hi).all())
    # linspace converts other ends, or computes in another precision.
    assert not _grid_within(0, 1, 5)
    assert not _grid_within(np.float32(0.0), np.float32(1.0), 5)
