"""What each entry point loads.

`import ptlattice.cli` loads neither numpy nor the optional packages
(SciPy, mpmath, PyYAML), nor `importlib.metadata`; each loads with the
first command that needs it.  Every documented usage exit returns its code
before numpy loads.  The package serves each public name from the module
that defines it, and `__version__` is the one version the CLI prints.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptlattice
from ptlattice.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("numpy", "scipy", "mpmath", "yaml", "importlib.metadata")

DEMO_DOC = """\
name: demo-chain
n: 4
topology: open
diag: ["2", "-1", "1", "-2"]
couplings: ["t", "t", "t"]
t_range: [-3.0, 3.0]
"""


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def deferred(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in DEFERRED)


def test_cli_import_loads_no_deferred_module():
    proc = run_python("-X", "importtime", "-c", "import ptlattice.cli")
    assert proc.returncode == 0, proc.stderr
    modules = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "ptlattice.cli" in modules
    assert [m for m in modules if deferred(m)] == []


def test_cli_import_and_model_documents_load_neither_dataclasses_nor_inspect(tmp_path):
    # Together about a third of the import; the CLI module, what it loads
    # at start-up and the document loader use neither.
    # The second document infers its range through the exact fold.
    doc = tmp_path / "demo.yaml"
    doc.write_text(DEMO_DOC, encoding="utf-8")
    radical = tmp_path / "radical.yaml"
    radical.write_text(
        DEMO_DOC.replace('"t", "t", "t"]', '"t", "sqrt(1 - t)", "t"]').replace(
            "t_range: [-3.0, 3.0]\n", ""
        ),
        encoding="utf-8",
    )
    proc = run_python(
        "-c",
        "import sys; before = set(sys.modules); import ptlattice.cli, ptlattice; "
        f"ptlattice.load_custom_model({str(doc)!r}); "
        f"f = ptlattice.load_custom_model({str(radical)!r}); "
        "assert (f.t_max, 'ptlattice.exact' in sys.modules) == (1.0, True); "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The documented usage exits: (argv, exit code).
USAGE_EXITS = {
    "unknown-model": (["domains", "--model", "mdg6-w9", "--t-min", "0", "--t-max", "1"], 2),
    "t-max-inf": (["domains", "--model", "ec4", "--t-min", "0", "--t-max", "inf"], 2),
    "steps-zero": (
        ["spectrum", "--model", "ec4", "--t-min", "-1.2", "--t-max", "1.2", "--steps", "0"],
        2,
    ),
    "negative-eps-real": (
        ["domains", "--model", "ec4", "--t-min", "-1.6", "--t-max", "1.6",
         "--eps-real", "-1"],
        2,
    ),
    "outside-validity": (
        ["domains", "--model", "mdg6-w1", "--t-min", "-0.4", "--t-max", "1.5"], 3
    ),
    "metric-without-track": (
        ["metric", "--model", "mdg6-w1", "--t-min", "0.2", "--t-max", "0.9"], 2
    ),
}

EXIT_PROBE = (
    "import json, sys; from ptlattice.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps([code, 'numpy' in sys.modules]))"
)


@pytest.mark.parametrize("case", sorted(USAGE_EXITS))
def test_usage_exit_before_numpy_loads(case):
    argv, expected = USAGE_EXITS[case]
    proc = run_python("-c", EXIT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == expected
    assert numpy_loaded is False
    assert proc.stderr.startswith("error: ")


def test_oversized_model_document_exits_before_numpy_loads(tmp_path):
    doc = tmp_path / "chain65.yaml"
    doc.write_text(
        f"name: chain65\nn: 65\ntopology: open\ndiag: {['0'] * 65}\n"
        f"couplings: {['t'] * 64}\n",
        encoding="utf-8",
    )
    argv = ["domains", "--config", str(doc), "--t-min", "0", "--t-max", "1"]
    proc = run_python("-c", EXIT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 2
    assert numpy_loaded is False
    assert proc.stderr.startswith("error: ") and "n must be" in proc.stderr


def test_every_public_name_is_its_module_definition():
    for name in ptlattice.__all__:
        obj = getattr(ptlattice, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("ptlattice.")
        assert getattr(module, name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from ptlattice import *", namespace)
    assert set(ptlattice.__all__) <= set(namespace)
    assert set(ptlattice.__all__) <= set(dir(ptlattice))
    assert "__version__" in dir(ptlattice)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ptlattice.no_such_name  # noqa: B018


def test_version_option_prints_the_package_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{ptlattice.__version__}\n"


def test_deferred_modules_load_on_demand(tmp_path):
    doc = tmp_path / "demo-chain.yaml"
    doc.write_text(DEMO_DOC, encoding="utf-8")
    proc = run_python(
        "-m", "ptlattice.cli", "domains", "--config", str(doc),
        "--t-min", "0", "--t-max", "3",
    )
    assert proc.returncode == 0, proc.stderr
    assert "# model: demo-chain" in proc.stdout
    assert "# table: intervals" in proc.stdout
    assert f"# version: {ptlattice.__version__}" in proc.stdout

    proc = run_python(
        "-m", "ptlattice.cli", "validate", "--model", "ec4-strongbond",
        "--t-min", "0.2", "--t-max", "1.0",
    )
    assert proc.returncode == 0, proc.stderr
    assert "oracle-agreement: ok" in proc.stdout


def test_exact_engine_loads_neither_numpy_nor_mpmath():
    probe = (
        "import json, sys, ptlattice\n"
        "family = ptlattice.get_family('mdg6-w1')\n"
        "ptlattice.load_custom_model(sys.argv[1])\n"
        "before = 'ptlattice.exact' in sys.modules\n"
        "from ptlattice.exact import reality_map\n"
        "roots = reality_map(family).roots\n"
        "loaded = [m for m in ('numpy', 'mpmath') if m in sys.modules]\n"
        "print(json.dumps([before, len(roots), loaded]))"
    )
    doc = SRC.parent / "perfbench" / "demo-chain.yaml"
    proc = run_python("-c", probe, str(doc))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, 3, []]


ORACLE_PROBE = (
    "import json, sys, ptlattice\n"
    "loaded = lambda: sys.modules.get('mpmath') is not None\n"
    "from ptlattice.cli import main\n"
    "h = ptlattice.get_family('ec4').matrix(0.31)\n"
    "values = ptlattice.eigenvalues_charpoly_oracle(h).values\n"
    "after_oracle = loaded()\n"
    "models = [ptlattice.model_oracle_eigenvalues(f, 0.25).values for f in ptlattice.iter_families()]\n"
    "after_models = loaded()\n"
    "code = main(['validate', '--model', 'ec4', '--t-min', '0', '--t-max', '1.5'])\n"
    "print(json.dumps([len(values), after_oracle, len(models), after_models, code,\n"
    "                  loaded()]))"
)


def test_float_lift_oracle_and_validate_load_no_mpmath():
    # Neither oracle needs mpmath.  The second probe blocks it with
    # sys.modules['mpmath'] = None, where any import of it raises ImportError.
    for prefix in ("", "import sys; sys.modules['mpmath'] = None\n"):
        proc = run_python("-c", prefix + ORACLE_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [4, False, 6, False, 0, False]
        assert "oracle-agreement: ok" in proc.stdout
