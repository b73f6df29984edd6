"""Benchmark of ptlattice: four workloads, each checked against derived data.

Run from the root of a checkout (ptlattice is imported from its ``src``):

    python3 perfbench/run.py --workload {cli,scan,metric,oracle} \\
        --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (setup_s, tasks_per_s, task_gmean_s, peak_rss_mb);
with ``--trace 1`` they are the per-layer ones.  Result and trace files go
to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import clitasks
from harness import Tally, result

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = pathlib.Path(".perfbench_out")
WORKLOADS = ("cli", "scan", "metric", "oracle")
COLD_STARTS = 7
IMPORT_RUNS = 3
IMPORT_PACKAGES = ("scipy", "numpy", "mpmath", "yaml")

# BLAS and OpenMP pools do no useful work at n <= 12; one thread each makes
# start-up cheaper and steadier.
PIN = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PIN)
    src = str(pathlib.Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class Processes:
    """Every child started by the benchmark; all are ended on exit."""

    def __init__(self):
        self.live: list[subprocess.Popen] = []

    def spawn_worker(self, workload: str, env: dict, *, trace: bool = False):
        argv = [sys.executable, str(HERE / "worker.py"), workload]
        if trace:
            argv.append("--trace")
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        self.live.append(proc)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"the {workload} worker did not become ready")
        return proc, elapsed

    def finish(self, proc: subprocess.Popen, message: str) -> str:
        proc.stdin.write(message + "\n")
        proc.stdin.close()
        output = proc.stdout.read()
        code = proc.wait()
        self.live.remove(proc)
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return output

    def close(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def set_up(procs: Processes, workload: str, env: dict):
    """Median cold start after one warm-up start; keeps the last worker."""
    proc, _ = procs.spawn_worker(workload, env)  # compiles bytecode, warms caches
    times = []
    for _ in range(COLD_STARTS):
        procs.finish(proc, "quit")
        proc, elapsed = procs.spawn_worker(workload, env)
        times.append(elapsed)
    return statistics.median(times), proc


def worker_result(procs: Processes, proc, params: dict) -> dict:
    output = procs.finish(proc, json.dumps(params))
    lines = [line for line in output.splitlines() if line.startswith("result ")]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1][len("result "):])


def run_command(command, env: dict, directory: pathlib.Path):
    """One `ptlattice` process: wall time, peak RSS in KiB, and its outputs."""
    out, svg = directory / "out.csv", directory / "plot.svg"
    stdout_path, stderr_path = directory / "stdout.txt", directory / "stderr.txt"
    for path in (out, svg):
        path.unlink(missing_ok=True)
    argv = [sys.executable, "-c", clitasks.ENTRY, *command.argv(str(out), str(svg))]
    with open(stdout_path, "w") as stdout, open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    def read(path):
        return path.read_text(encoding="utf-8") if path.exists() else None

    found = clitasks.CommandResult(
        proc.returncode, read(stdout_path), read(stderr_path), read(out), read(svg)
    )
    return elapsed, usage.ru_maxrss, found


def run_cli(seed: int, seconds: float, env: dict) -> dict:
    """Whole rounds of the command list, one process at a time."""
    ref = checks.load_reference()
    rng = random.Random(seed)
    tally = Tally(clitasks.KNOWN_FAULTS)
    peak_kib = 0
    directory = OUT_DIR / f"cli-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        while True:
            commands = list(clitasks.COMMANDS)
            rng.shuffle(commands)
            for command in commands:
                elapsed, rss_kib, found = run_command(command, env, directory)
                try:
                    problems = clitasks.check_command(command, found, ref)
                except Exception as exc:  # a malformed output fails its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                tally.record(command.kind, elapsed, problems)
                peak_kib = max(peak_kib, rss_kib)
            tally.close_round()
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    metrics = tally.end_to_end()
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
    return result([tally], metrics)


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of ptlattice and of each package it pulls in.

    A package's time is the sum over its outermost entries, those whose
    importer belongs to another package.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    totals["ptlattice"] = 0
    stack = []  # importers of the entry, innermost last
    for depth, cumulative, name in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        parent_top = stack[-1][1].split(".")[0] if stack else None
        if top in totals and parent_top != top:
            totals[top] += cumulative
        stack.append((depth, name))
    return {k: v * 1e-6 for k, v in totals.items()}


def import_metrics(env: dict) -> dict:
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ptlattice.cli"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    out = {"import.total_s": statistics.median(r["ptlattice"] for r in runs)}
    for package in IMPORT_PACKAGES:
        out[f"import.{package}_s"] = statistics.median(r[package] for r in runs)
    return {k: {"value": v, "unit": "s"} for k, v in out.items()}


def bench(args, procs: Processes) -> dict:
    env = child_env()
    if args.trace:
        imports = import_metrics(env)
        proc, _ = procs.spawn_worker(args.workload, env, trace=True)
        out = worker_result(procs, proc, {"seed": args.seed, "trace": True})
        out["metrics"] = {**imports, **out["metrics"]}
        return out
    setup_s, proc = set_up(procs, args.workload, env)
    if args.workload == "cli":
        procs.finish(proc, "quit")
        out = run_cli(args.seed, args.seconds, env)
    else:
        params = {"seed": args.seed, "seconds": args.seconds}
        out = worker_result(procs, proc, params)
    out["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **out["metrics"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="ptlattice benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not pathlib.Path("src/ptlattice/__init__.py").is_file():
        print("error: run from the root of a ptlattice checkout (no src/ptlattice)", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    procs = Processes()
    try:
        out = bench(args, procs)
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.close()
    for problem in out.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
