"""CSV bundles, SVG output, and the command-line interface."""

import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from ptlattice.cli import main
from ptlattice.report import ReportBundle, Table, format_value
from ptlattice.svgplot import LinePlot, nice_ticks


class TestReport:
    def test_format_value_round_trips_floats(self):
        for x in (1 / 3, 1e-17, -math.pi, 0.1 + 0.2):
            assert float(format_value(x)) == x

    def test_format_value_integers_and_strings(self):
        assert format_value(7) == "7"
        assert format_value("abc") == "abc"
        assert format_value(np.float64(0.5)) == "0.5"

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            Table(name="x", columns=("a", "b"), rows=[(1,)])

    def test_bundle_layout(self):
        bundle = ReportBundle()
        bundle.add_header("model", "ec4")
        bundle.add_table(Table(name="tbl", columns=("a", "b"), rows=[(1, 2.5)]))
        text = bundle.to_csv()
        assert text == "# model: ec4\n# table: tbl\na,b\n1,2.5\n"


class TestSvg:
    def test_nice_ticks_are_round(self):
        ticks = nice_ticks(0.0, 1.0)
        assert all(abs(t / 0.2 - round(t / 0.2)) < 1e-9 for t in ticks)

    def test_plot_splits_on_nonfinite(self):
        plot = LinePlot(title="x")
        plot.add_curve([0, 1, 2, 3], [1.0, float("nan"), 2.0, 3.0])
        svg = plot.to_svg()
        assert svg.count("<polyline") == 1  # one 2-point segment survives
        assert svg.count("<circle") == 1  # the isolated first point

    def test_plot_contains_axes_and_labels(self):
        plot = LinePlot(title="T", x_label="t", y_label="E")
        plot.add_curve([0, 1], [0, 1], label="c")
        svg = plot.to_svg()
        assert "<svg" in svg and svg.strip().endswith("</svg>")
        assert ">T<" in svg and ">t<" in svg and ">E<" in svg


@pytest.fixture()
def ec4_doc(tmp_path):
    doc = {
        "name": "ec4-custom",
        "n": 4,
        "topology": "ring",
        "diag": ["-3", "-1", "1", "3"],
        "couplings": ["t", "t", "t", "t"],
    }
    path = tmp_path / "ec4.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_spectrum_csv_schema(self, capsys):
        code, out, _ = run(
            ["spectrum", "--model", "ec4", "--t-min", "-1", "--t-max", "1",
             "--steps", "5"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any(l == "# model: ec4" for l in header)
        cols = next(l for l in lines if l.startswith("t,"))
        assert cols == "t,re_1,re_2,re_3,re_4,im_1,im_2,im_3,im_4"
        data = [l for l in lines if not l.startswith(("#", "t,"))]
        assert len(data) == 5

    def test_spectrum_rows_sorted_and_conjugate(self, capsys):
        code, out, _ = run(
            ["spectrum", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
             "--steps", "9"],
            capsys,
        )
        assert code == 0
        for line in out.splitlines():
            if line.startswith(("#", "t,")):
                continue
            cells = [float(x) for x in line.split(",")]
            res, ims = cells[1:5], cells[5:9]
            assert res == sorted(res)
            assert abs(sum(ims)) < 1e-12

    def test_spectrum_at_t_one_is_site_energies(self, capsys):
        code, out, _ = run(
            ["spectrum", "--model", "mdg6-open", "--t-min", "-0.5",
             "--t-max", "1", "--steps", "4"],
            capsys,
        )
        assert code == 0
        last = out.splitlines()[-1]
        cells = [float(x) for x in last.split(",")]
        assert cells[0] == 1.0
        assert cells[1:7] == pytest.approx([-5, -3, -1, 1, 3, 5], abs=1e-12)
        assert cells[7:13] == pytest.approx([0] * 6, abs=1e-12)

    def test_determinism_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["spectrum", "--model", "mdg6-w2", "--t-min", "-0.4",
                "--t-max", "0.4", "--steps", "33"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stamp_adds_header_line(self, tmp_path):
        out = tmp_path / "c.csv"
        args = ["spectrum", "--model", "ec4", "--t-min", "0", "--t-max", "1",
                "--steps", "3", "--out", str(out), "--stamp"]
        assert main(args) == 0
        assert "# generated: " in out.read_text()

    def test_domains_intervals_and_markers(self, capsys):
        code, out, _ = run(
            ["domains", "--model", "ec4", "--t-min", "0", "--t-max", "1.6"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        start = lines.index("# table: intervals")
        rows = []
        for line in lines[start + 2:]:
            if line.startswith("#"):
                break
            rows.append(line.split(","))
        assert [r[2] for r in rows] == ["4", "2"]
        assert float(rows[0][1]) == pytest.approx(1.5, abs=1e-8)
        marker_start = lines.index("# table: ep_markers")
        kinds = {line.split(",")[2] for line in lines[marker_start + 2:]}
        assert kinds == {"real-coalescence", "complexification"}

    def test_metric_reference_interval(self, capsys):
        code, out, _ = run(
            ["metric", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
             "--steps", "33"],
            capsys,
        )
        assert code == 0
        hi = next(
            float(l.split(": ")[1])
            for l in out.splitlines()
            if l.startswith("# interval_hi")
        )
        assert hi == pytest.approx(math.sqrt(1.5), abs=1e-6)

    def test_metric_tracked_model_works_without_flag(self, capsys):
        code, out, _ = run(
            ["metric", "--model", "ec4-recoupled", "--t-min", "-1.2",
             "--t-max", "1.2", "--steps", "25", "--tol", "1e-8"],
            capsys,
        )
        assert code == 0
        assert "# metric_provenance: basis-combination" in out

    def test_metric_needs_track_for_other_models(self, capsys):
        code, _, err = run(
            ["metric", "--model", "mdg6-open", "--t-min", "0.2",
             "--t-max", "0.9", "--steps", "9"],
            capsys,
        )
        assert code == 2
        assert "--track" in err

    def test_metric_track_flag_enables_any_model(self, capsys):
        code, out, _ = run(
            ["metric", "--model", "mdg6-open", "--t-min", "0.3",
             "--t-max", "0.9", "--steps", "13", "--track", "--tol", "1e-6"],
            capsys,
        )
        assert code == 0
        assert "# metric_provenance: basis-combination" in out

    def test_islands_finds_w2_central_island(self, capsys):
        code, out, _ = run(
            ["islands", "--model", "mdg6-w2", "--t-min", "-0.1",
             "--t-max", "0.12", "--k", "4"],
            capsys,
        )
        assert code == 0
        rows = [
            l.split(",") for l in out.splitlines()
            if not l.startswith(("#", "lo,"))
        ]
        assert any(float(lo) < 0 < float(hi) for lo, hi, _ in rows)

    def test_ep_reports_coalescence(self, capsys):
        code, out, _ = run(
            ["ep", "--model", "ec4", "--t-min", "1.0", "--t-max", "1.45"],
            capsys,
        )
        assert code == 0
        rows = [
            l.split(",") for l in out.splitlines()
            if not l.startswith(("#", "t_star"))
        ]
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(math.sqrt(2), abs=1e-6)
        assert rows[0][2] == "real-coalescence"

    def test_validate_passes_for_registry_model(self, capsys):
        code, out, _ = run(
            ["validate", "--model", "ec4-strongbond", "--t-min", "-1",
             "--t-max", "1"],
            capsys,
        )
        assert code == 0
        assert "pt-structure: ok" in out
        assert "oracle-agreement: ok" in out

    def test_custom_config_equivalent_to_registry(self, ec4_doc, capsys):
        code_a, out_a, _ = run(
            ["spectrum", "--config", ec4_doc, "--t-min", "-1", "--t-max", "1",
             "--steps", "11"],
            capsys,
        )
        code_b, out_b, _ = run(
            ["spectrum", "--model", "ec4", "--t-min", "-1", "--t-max", "1",
             "--steps", "11"],
            capsys,
        )
        assert code_a == code_b == 0
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith("# model")
        ]
        assert strip(out_a) == strip(out_b)

    def test_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        code, _, _ = run(
            ["spectrum", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
             "--steps", "33", "--out", str(tmp_path / "s.csv"),
             "--svg", str(svg)],
            capsys,
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "stroke-dasharray" in text

    def test_exit_code_usage(self, capsys):
        assert run(["spectrum", "--t-min", "0", "--t-max", "1"], capsys)[0] == 2
        assert run(
            ["spectrum", "--model", "nope", "--t-min", "0", "--t-max", "1"],
            capsys,
        )[0] == 2
        assert run(
            ["spectrum", "--model", "ec4", "--t-min", "1", "--t-max", "0"],
            capsys,
        )[0] == 2

    def test_exit_code_domain(self, capsys):
        code, _, err = run(
            ["spectrum", "--model", "mdg6-open", "--t-min", "0",
             "--t-max", "1.5", "--steps", "5"],
            capsys,
        )
        assert code == 3
        assert "validity" in err

    @pytest.mark.parametrize("model", ["ec4", "ec4-strongbond"])
    def test_metric_that_overflows_exits_3(self, model, capsys):
        code, out, err = run(
            ["metric", "--model", model, "--t-min", "0", "--t-max", "1e200"], capsys
        )
        assert code == 3 and out == ""
        assert err == (
            f"error: reference-{model} metric: an entry is not finite in double "
            "precision at t=1e+197\n"
        )

    @pytest.mark.parametrize(
        "coupling", ["sqrt(t*t - 4)", "1/t"], ids=["negative-radicand", "zero-divisor"]
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["domains", "--t-min", "-1", "--t-max", "1"],
            ["spectrum", "--t-min", "-1", "--t-max", "1", "--steps", "3"],
            ["validate", "--t-min", "-1", "--t-max", "1"],
        ],
        ids=["domains", "spectrum", "validate"],
    )
    def test_undefined_entry_exits_3(self, tmp_path, command, coupling, capsys):
        doc = {
            "name": "undefined",
            "n": 4,
            "topology": "ring",
            "diag": ["-3", "-1", "1", "3"],
            "couplings": [coupling, "t", "t", "t"],
            "t_range": [-1, 1],
        }
        path = tmp_path / "undefined.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, out, err = run(command + ["--config", str(path)], capsys)
        assert code == 3
        assert err.startswith("error:") and "undefined at t=" in err
        assert out == ""

    def test_overflowing_entry_exits_3(self, tmp_path, capsys):
        doc = {
            "name": "overflow",
            "n": 4,
            "topology": "ring",
            "diag": ["-3", "-1", "1", "3"],
            "couplings": ["t", "t", "t", "*".join(["t"] * 50)],
            "t_range": [0.0, 1e10],
        }
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, out, err = run(
            ["spectrum", "--config", str(path), "--t-min", "0", "--t-max", "1e10",
             "--steps", "3"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:") and "not finite" in err
        assert "t=5000000000.0" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["spectrum", "domains"])
    def test_model_above_the_oracle_size_sweeps(self, tmp_path, command, capsys):
        # A 14-site chain, above the largest matrix the oracle takes.
        doc = {
            "name": "chain14",
            "n": 14,
            "topology": "open",
            "diag": ["0", "1", "2"] * 4 + ["0", "1"],
            "couplings": ["t"] * 13,
        }
        path = tmp_path / "chain14.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, out, err = run(
            [command, "--config", str(path), "--t-min", "0.5", "--t-max", "0.6"], capsys
        )
        assert code == 0 and err == ""
        assert "# n: 14" in out

    def test_chain_with_threefold_eigenvalues_sweeps(self, tmp_path, capsys):
        # At t = 0 each site energy of the 9-site chain is a 3-fold eigenvalue,
        # so the polish hands the oracle a charpoly with triple roots.
        doc = {
            "name": "chain9",
            "n": 9,
            "topology": "open",
            "diag": ["0", "1", "2"] * 3,
            "couplings": ["t"] * 8,
        }
        path = tmp_path / "chain9.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, out, err = run(
            ["spectrum", "--config", str(path), "--t-min", "0", "--t-max", "0.5",
             "--steps", "3"],
            capsys,
        )
        assert code == 0 and err == ""
        row = out.split("\n# table: spectrum\n")[1].splitlines()[1]
        assert row == "0," + "0,0,0,1,1,1,2,2,2," + ",".join(["0"] * 9)

    def test_spectrum_at_huge_scale_sweeps(self, capsys):
        # At t = +-1e300 the ec4 eigenvalues are +-1 and +-i sqrt(4t^2 - 9).
        code, out, err = run(
            ["spectrum", "--model", "ec4", "--t-min=-1e300", "--t-max=1e300",
             "--steps", "5"],
            capsys,
        )
        assert code == 0 and err == ""
        rows = out.split("\n# table: spectrum\n")[1].splitlines()[1:]
        big = format_value(2e300)
        for row in (rows[0], rows[-1]):
            assert row.split(",")[1:] == ["-1", "0", "0", "1", "0", f"-{big}", big, "0"]

    def test_metric_edge_above_the_double_spacing_returns(self):
        # Above t = 2^19 adjacent doubles lie more than --tol apart; the edge
        # bisection must still end.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "ptlattice.cli", "metric", "--model", "ec4",
             "--t-min", "0", "--t-max", "1e100", "--steps", "5"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_tracked_section_beyond_the_lattice_bound_exits_2(self, tmp_path, capsys):
        # A constant 2-site chain stays unbroken at every t, so its section
        # would march 1e6 / h lattice points; it is refused before it does.
        doc = {"name": "flat2", "n": 2, "topology": "open", "diag": ["1", "-1"],
               "couplings": ["0.1"]}
        path = tmp_path / "flat2.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        argv = ["metric", "--config", str(path), "--t-min", "0", "--track"]
        start = time.perf_counter()
        code, out, err = run(argv + ["--t-max", "1e6"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: the tracked section") and "100000 lattice points" in err

        code, out, err = run(argv + ["--t-max", "10"], capsys)
        assert code == 0 and err == ""
        assert "\n# table: positivity_interval\nlo,hi\n0,10\n" in out
        rows = out.split("\n# table: min_eig\nt,min_eig\n")[1].splitlines()
        assert len(rows) == 1001 and rows[0] == "0,0.89999999999999958"

    def test_argparse_usage_error_is_2(self, capsys):
        code, _, err = run(
            ["spectrum", "--model", "ec4", "--t-min", "zero", "--t-max", "1"],
            capsys,
        )
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["domains", "--model", "ec4", "--t-min", "0", "--t-max", "inf"],
             "--t-max"),
            (["domains", "--model", "ec4", "--t-min=-inf", "--t-max", "0"],
             "--t-min"),
            (["ep", "--model", "ec4", "--t-min", "nan", "--t-max", "1"],
             "--t-min"),
            (["spectrum", "--model", "ec4", "--t-min", "-1.2", "--t-max", "1.2",
              "--steps", "0"], "--steps"),
            (["spectrum", "--model", "ec4", "--t-min", "-1.2", "--t-max", "1.2",
              "--steps", "1"], "--steps"),
            (["metric", "--model", "ec4", "--t-min", "0", "--t-max", "1.4",
              "--steps", "-3"], "--steps"),
            (["spectrum", "--model", "ec4", "--t-min", "0", "--t-max", "1",
              "--steps", "100001"], "--steps"),
            (["domains", "--model", "ec4", "--t-min", "0", "--t-max", "1e6"],
             "--steps"),
            (["domains", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
              "--eps-real", "-1"], "--eps-real"),
            (["islands", "--model", "ec4", "--t-min", "0", "--t-max", "1.6",
              "--k", "2", "--eps-real", "inf"], "--eps-real"),
            (["domains", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
              "--tol", "0"], "--tol"),
            (["ep", "--model", "ec4", "--t-min", "1.0", "--t-max", "1.45",
              "--tol=-1e-10"], "--tol"),
        ],
    )
    def test_input_without_bound_exits_2(self, args, flag, capsys):
        code, out, err = run(args, capsys)
        assert code == 2
        assert err.startswith("error:") and flag in err
        assert out == ""

    @pytest.mark.parametrize(
        "args, option",
        [
            (["ep", "--model", "ec4", "--t-min", "1.0", "--t-max", "1.45"], "--svg"),
            (["islands", "--model", "mdg6-w2", "--t-min", "-0.7", "--t-max", "0.4",
              "--k", "4"], "--svg"),
            (["validate", "--model", "ec4", "--t-min", "0", "--t-max", "1"], "--svg"),
            (["validate", "--model", "ec4", "--t-min", "0", "--t-max", "1"],
             "--steps"),
        ],
    )
    def test_option_the_command_does_not_read_exits_2(
        self, tmp_path, args, option, capsys
    ):
        value = str(tmp_path / "plot.svg") if option == "--svg" else "7"
        code, out, err = run(args + [option, value], capsys)
        assert code == 2
        assert f"unrecognized arguments: {option} {value}" in err
        assert out == ""
        assert not (tmp_path / "plot.svg").exists()

    # Every command that writes, with a short range; each takes --out.
    _WRITERS = {
        "spectrum": ["spectrum", "--model", "ec4", "--t-min", "-1", "--t-max", "1",
                     "--steps", "5"],
        "domains": ["domains", "--model", "ec4", "--t-min", "0", "--t-max", "1.6"],
        "metric": ["metric", "--model", "ec4", "--t-min", "0", "--t-max", "1.4"],
        "islands": ["islands", "--model", "mdg6-w2", "--t-min", "-0.7",
                    "--t-max", "0.4", "--k", "4"],
        "ep": ["ep", "--model", "ec4", "--t-min", "1.0", "--t-max", "1.45"],
        "validate": ["validate", "--model", "ec4", "--t-min", "0", "--t-max", "1"],
    }

    def test_huge_range_spectrum_prints_no_warning(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                ["spectrum", "--model", "ec4", "--t-min=-1e300", "--t-max=1e300"],
                capsys,
            )
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in err
        assert code == 0 or (code == 4 and err.startswith("error: "))

    @pytest.mark.parametrize("command", sorted(_WRITERS))
    def test_range_of_overflowing_width_exits_2(self, command, capsys):
        args = list(self._WRITERS[command])
        del args[args.index("--t-min"):args.index("--t-max") + 2]
        args += ["--t-min=-1e308", "--t-max=1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(args, capsys)
        assert [str(w.message) for w in caught] == []
        assert code == 2 and out == ""
        assert err == (
            "error: t-range (--t-min, --t-max) must have a finite width, "
            "got [-1e+308, 1e+308]\n"
        )

    @pytest.mark.parametrize("command", sorted(_WRITERS))
    def test_out_in_a_missing_directory_exits_2(self, tmp_path, command, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(self._WRITERS[command] + ["--out", str(path)], capsys)
        assert code == 2
        assert err == f"error: {path}: No such file or directory\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["spectrum", "domains", "metric"])
    def test_svg_in_a_missing_directory_exits_2_before_stdout(
        self, tmp_path, command, capsys
    ):
        path = tmp_path / "missing" / "x.svg"
        code, out, err = run(self._WRITERS[command] + ["--svg", str(path)], capsys)
        assert code == 2
        assert err == f"error: {path}: No such file or directory\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["spectrum", "domains", "metric"])
    def test_svg_then_csv_on_stdout(self, tmp_path, command, capsys):
        path = tmp_path / "x.svg"
        code, out, _ = run(self._WRITERS[command] + ["--svg", str(path)], capsys)
        assert code == 0
        assert path.read_text().startswith("<svg")
        assert out == run(self._WRITERS[command], capsys)[1]

    def test_validate_out_writes_checks_table(self, tmp_path, capsys):
        out = tmp_path / "checks.csv"
        code, stdout, _ = run(
            ["validate", "--model", "ec4-strongbond", "--t-min", "0.2",
             "--t-max", "1.0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert "# command: validate" in lines
        assert not any(line.startswith("# steps:") for line in lines)
        start = lines.index("# table: checks")
        assert lines[start + 1] == "check,status,detail"
        rows = [line.split(",") for line in lines[start + 2:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("pt-structure", "ok"),
            ("conjugate-closure", "ok"),
            ("oracle-agreement", "ok"),
        ]
        assert stdout.splitlines()[0] == "pt-structure: ok (11 sample points)"

    def test_range_is_checked_before_the_island_count(self, capsys):
        code, out, err = run(
            ["islands", "--model", "mdg6-w1", "--t-min", "-0.4", "--t-max", "1.5",
             "--k", "3"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:") and "t=1.5" in err
        assert out == ""

    @pytest.mark.parametrize(
        "coupling",
        ["(" * 400 + "t" + ")" * 400, "+".join(["t"] * 3000)],
        ids=["nested-parentheses", "long-sum"],
    )
    def test_overlong_expression_exits_2(self, tmp_path, coupling, capsys):
        doc = {
            "name": "overlong",
            "n": 4,
            "topology": "ring",
            "diag": ["-3", "-1", "1", "3"],
            "couplings": [coupling, "t", "t", "t"],
        }
        path = tmp_path / "overlong.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, out, err = run(
            ["domains", "--config", str(path), "--t-min", "0", "--t-max", "1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: couplings[0]: expression longer than 256")
        assert "Traceback" not in err
        assert out == ""


def test_domains_svg_draws_the_reported_partition(tmp_path, capsys):
    from ptlattice.svgplot import _HEIGHT, _MARGIN, _WIDTH

    csv, svg = tmp_path / "d.csv", tmp_path / "d.svg"
    code, _, _ = run(
        ["domains", "--model", "ec4-strongbond", "--t-min", "0", "--t-max", "1.6",
         "--out", str(csv), "--svg", str(svg)],
        capsys,
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    start = lines.index("lo,hi,count_real,boundary_tol") + 1
    intervals = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        lo, hi, count, _ = line.split(",")
        intervals.append((float(lo), float(hi), int(count)))
    polylines = [l for l in svg.read_text().splitlines() if l.startswith("<polyline")]
    assert len(polylines) == 1
    points = polylines[0].split('points="')[1].split('"')[0].split()
    vertices = [tuple(map(float, p.split(","))) for p in points]
    assert len(vertices) == 2 * len(intervals)
    # Back from pixels to (t, count) through the plot's axes.
    counts = [count for _, _, count in intervals]
    pad = 0.04 * (max(counts) - min(counts))
    y_lo, y_hi = min(counts) - pad, max(counts) + pad
    for (x, y), (t, count) in zip(
        vertices, [(t, c) for lo, hi, c in intervals for t in (lo, hi)]
    ):
        assert (x - _MARGIN) / (_WIDTH - 2 * _MARGIN) * 1.6 == pytest.approx(t, abs=1e-5)
        level = y_lo + (_HEIGHT - _MARGIN - y) / (_HEIGHT - 2 * _MARGIN) * (y_hi - y_lo)
        assert level == pytest.approx(count, abs=1e-4)


# Finite entries whose trace, 2e308, does not fit in a double.
HUGE_DOC = """\
name: huge
n: 2
topology: open
diag: ["1.0e308", "1.0e308"]
couplings: ["t"]
t_range: [0, 1]
"""


@pytest.mark.parametrize(
    "command",
    [["spectrum", "--steps", "3"], ["validate"]],
    ids=["spectrum", "validate"],
)
def test_huge_finite_entries_run_without_warnings(tmp_path, command, capsys):
    path = tmp_path / "huge.yaml"
    path.write_text(HUGE_DOC, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(
            command + ["--config", str(path), "--t-min", "0", "--t-max", "1"], capsys
        )
    assert (code, err) == (0, "")
    if command[0] == "spectrum":
        assert out.endswith("0.5,1e+308,1e+308,-0.5,0.5\n1,1e+308,1e+308,-1,1\n")
    else:
        assert "oracle-agreement: ok" in out


def test_validate_widens_the_oracle_bound_at_a_high_order_ep(capsys):
    code, out, err = run(
        ["validate", "--model", "mdg6-open", "--t-min", "-1", "--t-max", "1"], capsys
    )
    assert (code, err) == (0, "")
    # LAPACK scatters the order-6 point at t = 0 by about u^(1/6).
    line = out.splitlines()[-1]
    assert line.startswith("oracle-agreement: ok (worst relative distance ")
    assert line.endswith("e-04; 1 sample at an order-6 cluster)")


@pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 4)])
def test_validate_fails_an_eigensolver_beyond_the_order_six_bound(
    monkeypatch, factor, code, capsys
):
    from ptlattice import spectra
    from ptlattice.models import Model, get_family

    at_ep = get_family(Model.MDG6_OPEN).matrix(0.0)
    bound = 10.0 * np.finfo(float).eps ** (1 / 6) * np.linalg.norm(at_ep)
    solve = spectra.eigenvalue_rows

    def off_at_the_ep(stack):
        rows, errors = solve(stack)
        for row, h in zip(rows, stack):
            if np.array_equal(h, at_ep):  # a real shift keeps the conjugate pairs
                row += factor * bound
        return rows, errors

    monkeypatch.setattr(spectra, "eigenvalue_rows", off_at_the_ep)
    result, out, err = run(
        ["validate", "--model", "mdg6-open", "--t-min", "-1", "--t-max", "1"], capsys
    )
    assert result == code
    if code:
        assert err.startswith(
            "error: eigensolver disagrees with the characteristic-polynomial "
            "oracle at t=0.0"
        )
    else:
        assert out.splitlines()[-1].endswith("; 1 sample at an order-6 cluster)")


def test_validate_solves_its_samples_at_once_and_raises_the_first_error(
    monkeypatch, capsys
):
    from ptlattice import spectra
    from ptlattice.errors import SolverError

    sample_ts = np.linspace(0.0, 1.0, 11).tolist()
    solve = spectra.eigenvalue_rows
    stacks = []

    def failing_at_two_samples(stack):
        stacks.append(len(stack))
        rows, errors = solve(stack)
        for i in (7, 3):
            errors[i] = SolverError(f"planted at t={sample_ts[i]!r}")
        return rows, errors

    monkeypatch.setattr(spectra, "eigenvalue_rows", failing_at_two_samples)
    code, _, err = run(["validate", "--model", "ec4", "--t-min", "0", "--t-max", "1"], capsys)
    assert (code, err) == (4, "error: planted at t=0.30000000000000004\n")
    assert stacks == [11]  # one stacked solve for all 11 samples


def test_tracked_section_seeds_off_the_order_six_point(capsys):
    # t = 0 is the order-6 EP of mdg6-open; the fully real cell is (0, 1].
    code, out, err = run(
        ["metric", "--model", "mdg6-open", "--t-min", "-1", "--t-max", "1", "--track"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert "# interval_lo: 0.73288996049761779\n# interval_hi: 1\n" in out


@pytest.mark.parametrize(
    "coupling, warned",
    [
        ("sqrt(10000*(t - 0.5)*(t - 0.5) + 0.99)", False),
        (
            "sqrt(sqrt((10000*(t - 0.5)*(t - 0.5) + 0.99)*(10000*(t - 0.5)*(t - 0.5) + 0.99)))",
            True,
        ),
    ],
    ids=["exact-engine", "float-path"],
)
def test_islands_warns_of_the_grid_only_on_the_float_path(tmp_path, coupling, warned, capsys):
    # The 0.002-wide window around t = 0.5 holds a point of the 401-point
    # grid, whose spacing is 0.0025.
    path = tmp_path / "window.yaml"
    path.write_text(
        "name: window\nn: 2\ntopology: open\ndiag: [\"-1\", \"1\"]\n"
        f"couplings: [\"{coupling}\"]\nt_range: [0, 1]\n",
        encoding="utf-8",
    )
    code, out, err = run(
        ["islands", "--config", str(path), "--t-min", "0", "--t-max", "1", "--k", "2",
         "--steps", "401"],
        capsys,
    )
    assert code == 0
    assert out.count(",2\n") == 1
    assert err.startswith("warning: island (0.499, 0.501) is narrower") is warned
