"""Command-line front end.

Subcommands: spectrum, domains, metric, islands, ep, validate.  Models come
from the built-in registry (--model) or a YAML document (--config).  All
numeric output is written as deterministic CSV bundles; spectrum, domains
and metric take --svg for a static plot, written before any CSV reaches
stdout.  Exit codes: 0 success, 2 usage error or an output path that
cannot be written, 3 validity-range error, 4 numerical failure.

A process loads only what its command runs.  The options, the model and
its validity range are checked with the standard library alone, so a
usage error exits before numpy loads; each command imports its compute
modules, and ``report`` and ``svgplot``, when it starts.  The version
comes from ``ptlattice.__version__``, the one place it is set.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    ConsistencyError,
    InvalidSpecError,
    ModelDomainError,
    ModelFileError,
    NumericalError,
)
from .lattice import is_pt_symmetric
from .models import Model, get_family, model_names
from .tolerances import (
    EPS_REAL,
    MAX_ORACLE_N,
    POINTS_PER_UNIT,
    POSITIVITY_STEPS,
    PROFILE_PLOT_STEPS,
    check_bracket,
    check_eps_real,
    grid_steps,
)

if TYPE_CHECKING:
    from .metrics import MetricCandidate
    from .report import ReportBundle, Table


def _resolve_family(args):
    if bool(args.model) == bool(args.config):
        raise InvalidSpecError("give exactly one of --model or --config")
    if args.model:
        try:
            model = Model(args.model)
        except ValueError:
            raise InvalidSpecError(
                f"unknown model {args.model!r}; choose from: "
                + ", ".join(model_names())
            ) from None
        return get_family(model)
    from .custom import load_custom_model

    return load_custom_model(args.config)


def _check_options(args) -> None:
    """Reject the numeric options that no command can use."""
    check_bracket(args.t_min, args.t_max, args.tol)
    check_eps_real(args.eps_real)
    if getattr(args, "steps", None) is not None:
        grid_steps(args.t_min, args.t_max, args.steps)


def _new_bundle(args, family, command: str) -> ReportBundle:
    from .report import ReportBundle

    bundle = ReportBundle()
    bundle.add_header("command", command)
    bundle.add_header("version", __version__)
    bundle.add_header("model", family.name)
    bundle.add_header("n", family.n)
    bundle.add_header("topology", family.topology.value)
    bundle.add_header("t_min", float(args.t_min))
    bundle.add_header("t_max", float(args.t_max))
    if getattr(args, "steps", None) is not None:
        bundle.add_header("steps", args.steps)
    bundle.add_header("eps_real", float(args.eps_real))
    bundle.add_header("tol", float(args.tol))
    if args.stamp:
        from datetime import datetime, timezone

        bundle.add_header(
            "generated", datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
    return bundle


def _emit(args, bundle: ReportBundle) -> None:
    if args.out:
        bundle.write(args.out)
    else:
        sys.stdout.write(bundle.to_csv())


def _domain_report(args, family):
    from .domains import domain_report

    return domain_report(
        family,
        args.t_min,
        args.t_max,
        coarse_steps=args.steps,
        tol=args.tol,
        eps_real=args.eps_real,
    )


def _ep_table(name: str, report) -> Table:
    from .report import Table

    return Table(
        name=name,
        columns=("t_star", "order", "kind", "residual"),
        rows=[(ep.t_star, ep.order, ep.kind.value, ep.residual) for ep in report.eps],
    )


def cmd_spectrum(args, family) -> int:
    import numpy as np

    from .report import Table
    from .spectra import sweep_eigenvalues

    grid = np.linspace(args.t_min, args.t_max, args.steps)
    rows = sweep_eigenvalues(family.matrices(grid))
    n = family.n

    bundle = _new_bundle(args, family, "spectrum")
    columns = (
        ["t"]
        + [f"re_{k + 1}" for k in range(n)]
        + [f"im_{k + 1}" for k in range(n)]
    )
    table_rows = [
        [float(t), *row.real.tolist(), *row.imag.tolist()]
        for t, row in zip(grid, rows)
    ]
    bundle.add_table(Table(name="spectrum", columns=columns, rows=table_rows))

    if args.svg:
        from .svgplot import LinePlot

        plot = LinePlot(
            title=f"{family.name}: eigenvalues vs t",
            x_label="t",
            y_label="E",
        )
        for k in range(n):
            plot.add_curve(
                grid, rows[:, k].real, label="Re E" if k == 0 else ""
            )
        for k in range(n):
            plot.add_curve(
                grid, rows[:, k].imag, label="Im E" if k == 0 else "", dashed=True
            )
        plot.write(args.svg)
    _emit(args, bundle)
    return 0


def cmd_domains(args, family) -> int:
    from .report import Table

    report = _domain_report(args, family)
    bundle = _new_bundle(args, family, "domains")
    bundle.add_table(
        Table(
            name="intervals",
            columns=("lo", "hi", "count_real", "boundary_tol"),
            rows=[
                (lo, hi, count, report.boundary_tol)
                for lo, hi, count in report.intervals
            ],
        )
    )
    bundle.add_table(_ep_table("ep_markers", report))

    if args.svg:
        import numpy as np

        from .domains import reality_profile
        from .svgplot import LinePlot

        steps = args.steps if args.steps is not None else PROFILE_PLOT_STEPS
        grid = np.linspace(args.t_min, args.t_max, steps)
        profile = reality_profile(family, grid, eps_real=args.eps_real)
        plot = LinePlot(
            title=f"{family.name}: real eigenvalue count vs t",
            x_label="t",
            y_label="count",
        )
        plot.add_curve(profile.grid, profile.counts, label="real count")
        plot.write(args.svg)
    _emit(args, bundle)
    return 0


def _metric_candidate(args, family) -> MetricCandidate:
    # Checked before the metric modules load, so this usage error exits
    # without them and without numpy.  ec4-recoupled follows a section even
    # without --track.
    untracked = (Model.EC4.value, Model.EC4_STRONG_BOND.value, Model.EC4_RECOUPLED.value)
    if not args.track and family.name not in untracked:
        raise InvalidSpecError(
            f"model {family.name!r} has no closed-form metric family; "
            "pass --track to follow a kernel section numerically"
        )
    from .metrics import (
        MetricCandidate,
        MetricProvenance,
        MetricSection,
        reference_metric_ec4,
        reference_metric_ec4_strong,
    )

    reference = {
        Model.EC4.value: reference_metric_ec4,
        Model.EC4_STRONG_BOND.value: reference_metric_ec4_strong,
    }
    if not args.track and family.name in reference:
        return reference[family.name](0.0)
    if family.contains(0.0) and args.t_min < 0.0 < args.t_max:
        seed = 0.0
    else:
        seed = (args.t_min + args.t_max) / 2
    section = MetricSection(family, t_seed=seed)
    return MetricCandidate(
        provenance=MetricProvenance.BASIS_COMBINATION, family=section.value
    )


def cmd_metric(args, family) -> int:
    candidate = _metric_candidate(args, family)  # checks the usage first
    from .metrics import positivity_interval
    from .report import Table

    report = positivity_interval(
        candidate, args.t_min, args.t_max, args.tol, coarse_steps=args.steps
    )

    bundle = _new_bundle(args, family, "metric")
    bundle.add_header("metric_provenance", candidate.provenance.value)
    if report.interval is not None:
        bundle.add_header("interval_lo", report.interval[0])
        bundle.add_header("interval_hi", report.interval[1])
        interval_rows = [report.interval]
    else:
        print(
            "notice: metric not positive definite anywhere in the scanned range",
            file=sys.stderr,
        )
        interval_rows = []
    bundle.add_table(
        Table(name="positivity_interval", columns=("lo", "hi"), rows=interval_rows)
    )
    bundle.add_table(
        Table(
            name="min_eig",
            columns=("t", "min_eig"),
            rows=[tuple(row) for row in report.min_eig_samples],
        )
    )

    if args.svg:
        from .svgplot import LinePlot

        plot = LinePlot(
            title=f"{family.name}: metric minimum eigenvalue vs t",
            x_label="t",
            y_label="min eig",
        )
        plot.add_curve(
            report.min_eig_samples[:, 0],
            report.min_eig_samples[:, 1],
            label="min eig",
        )
        plot.write(args.svg)
    _emit(args, bundle)
    return 0


def cmd_islands(args, family) -> int:
    from .domains import reality_islands
    from .report import Table

    islands = reality_islands(
        family,
        args.t_min,
        args.t_max,
        args.k,
        coarse_steps=args.steps,
        tol=args.tol,
        eps_real=args.eps_real,
    )
    steps = grid_steps(args.t_min, args.t_max, args.steps)
    spacing = (args.t_max - args.t_min) / (steps - 1)
    for lo, hi in islands:
        if hi - lo < spacing:
            print(
                f"warning: island ({lo:.6g}, {hi:.6g}) is narrower than the "
                "scan resolution; rerun with more --steps to confirm",
                file=sys.stderr,
            )
    if not islands:
        print(
            f"notice: no interval with exactly {args.k} real eigenvalues found",
            file=sys.stderr,
        )
    bundle = _new_bundle(args, family, "islands")
    bundle.add_header("k", args.k)
    bundle.add_table(
        Table(
            name="islands",
            columns=("lo", "hi", "count_real"),
            rows=[(lo, hi, args.k) for lo, hi in islands],
        )
    )
    _emit(args, bundle)
    return 0


def cmd_ep(args, family) -> int:
    report = _domain_report(args, family)
    if not report.eps:
        print(
            "notice: no exceptional point found in the scanned range",
            file=sys.stderr,
        )
    bundle = _new_bundle(args, family, "ep")
    bundle.add_table(_ep_table("eps", report))
    _emit(args, bundle)
    return 0


def cmd_validate(args, family) -> int:
    import numpy as np

    from .charpoly import eigenvalues_charpoly_oracle
    from .report import Table
    from .spectra import eigenvalues, matching_distance

    sample_ts = np.linspace(args.t_min, args.t_max, 11).tolist()
    points = list(zip(sample_ts, family.matrices(sample_ts)))
    checks = []

    for t, h in points:
        if not is_pt_symmetric(h):
            raise ConsistencyError(
                f"PT structure violated at t={t!r} for model {family.name}"
            )
    checks.append(("pt-structure", "ok", f"{len(points)} sample points"))

    spectra = [eigenvalues(h) for _, h in points]  # closure + trace gates inside
    checks.append(("conjugate-closure", "ok", f"{len(points)} sample points"))

    if family.n <= MAX_ORACLE_N:
        worst = 0.0
        for (t, h), spectrum in zip(points, spectra):
            scale = max(1.0, float(np.linalg.norm(h)))
            dist = matching_distance(
                spectrum.values, eigenvalues_charpoly_oracle(h).values
            )
            worst = max(worst, dist / scale)
            if dist > 1e-8 * scale:
                raise ConsistencyError(
                    f"eigensolver disagrees with the characteristic-polynomial "
                    f"oracle at t={t!r}: distance {dist:.3e}"
                )
        checks.append(("oracle-agreement", "ok", f"worst relative distance {worst:.3e}"))
    else:
        checks.append(
            ("oracle-agreement", "skipped", f"n={family.n} above oracle limit")
        )

    if args.out:
        bundle = _new_bundle(args, family, "validate")
        bundle.add_table(
            Table(name="checks", columns=("check", "status", "detail"), rows=checks)
        )
        bundle.write(args.out)
    for name, status, detail in checks:
        print(f"{name}: {status} ({detail})")
    return 0


_AUTO_STEPS = f"grid points (default: {POINTS_PER_UNIT} per unit of t)"


def _add_command(subs, name, func, summary, *, steps=None, svg=False):
    """Subparser with the options every command reads, plus --steps (given
    as a (default, help) pair) and --svg only where the command reads them."""
    sub = subs.add_parser(name, help=summary)
    sub.add_argument("--model", help="registry model name")
    sub.add_argument("--config", help="path to a YAML model document")
    sub.add_argument("--t-min", type=float, required=True, dest="t_min")
    sub.add_argument("--t-max", type=float, required=True, dest="t_max")
    if steps is not None:
        default, steps_help = steps
        sub.add_argument("--steps", type=int, default=default, help=steps_help)
    sub.add_argument("--eps-real", type=float, default=EPS_REAL, dest="eps_real")
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--out", help="write the CSV bundle here instead of stdout")
    if svg:
        sub.add_argument("--svg", help="also write an SVG plot to this path")
    sub.add_argument(
        "--stamp",
        action="store_true",
        help="include a generation timestamp (breaks byte-identical reruns)",
    )
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptlattice",
        description=(
            "Spectra, reality domains, exceptional points, and metric "
            "operators of finite PT-symmetric lattice models."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    _add_command(
        subs, "spectrum", cmd_spectrum, "eigenvalue sweep over t",
        steps=(201, "grid points (default: %(default)s)"), svg=True,
    )
    _add_command(
        subs, "domains", cmd_domains, "reality-domain partition of t",
        steps=(None, _AUTO_STEPS), svg=True,
    )
    sub = _add_command(
        subs, "metric", cmd_metric, "metric positivity interval in t",
        steps=(None, f"coarse scan points (default: {POSITIVITY_STEPS})"),
        svg=True,
    )
    sub.add_argument(
        "--track",
        action="store_true",
        help="follow one kernel section numerically instead of a closed form",
    )
    sub = _add_command(
        subs, "islands", cmd_islands, "intervals with exactly k real eigenvalues",
        steps=(None, _AUTO_STEPS),
    )
    sub.add_argument("--k", type=int, required=True, help="real-eigenvalue count")
    _add_command(
        subs, "ep", cmd_ep, "exceptional points in a t-range", steps=(None, _AUTO_STEPS)
    )
    _add_command(subs, "validate", cmd_validate, "structural and oracle self-checks")
    return parser


# The library names a parameter, at the start or end of a message, where the
# command line has options for it.
_OPTION_NAMES = (
    ("t-range must", "t-range (--t-min, --t-max) must"),
    ("need lo < hi,", "need lo < hi (--t-min < --t-max),"),
    ("tol must", "tol (--tol) must"),
    ("eps_real must", "eps_real (--eps-real) must"),
    ("need at least 2 grid points,", "need at least 2 grid points (--steps),"),
    ("fewer steps or a narrower range", "fewer --steps or a narrower --t-min/--t-max range"),
)


def _option_message(exc: Exception) -> str:
    """The error message with the options named after the parameter."""
    message = str(exc)
    for parameter, option in _OPTION_NAMES:
        if message.startswith(parameter) or message.endswith(parameter):
            return message.replace(parameter, option, 1)
    return message


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        family = _resolve_family(args)
        _check_options(args)
        family.check_validity(args.t_min)
        family.check_validity(args.t_max)
        return args.func(args, family)
    except (InvalidSpecError, ModelFileError) as exc:
        print(f"error: {_option_message(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out or --svg path that cannot be written
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except ModelDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
