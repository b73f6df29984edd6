"""`import ptlattice.cli` stays light; SciPy, mpmath and PyYAML load on demand."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy", "mpmath", "yaml")

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


def test_cli_import_loads_no_deferred_module():
    proc = run_python("-X", "importtime", "-c", "import ptlattice.cli")
    assert proc.returncode == 0, proc.stderr
    modules = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "ptlattice.cli" in modules
    assert [m for m in modules if m.split(".")[0] in DEFERRED] == []


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

    proc = run_python(
        "-m", "ptlattice.cli", "validate", "--model", "ec4-strongbond",
        "--t-min", "0.2", "--t-max", "1.0",
    )
    assert proc.returncode == 0, proc.stderr
    assert "oracle-agreement: ok" in proc.stdout
