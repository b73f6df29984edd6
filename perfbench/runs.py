"""Measured and traced runs, executed inside the worker process."""

from __future__ import annotations

import io
import os
import pathlib
import random
import resource
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import checks
import clitasks
import inprocess
from harness import Tally, result, run_task
from tracing import Tracer

OUT_DIR = pathlib.Path(".perfbench_out")
PASSES = ("scan", "metric", "oracle", "cli")


def measured(workload: str, pt, families, seed: int, seconds: float) -> dict:
    """Whole rounds of the workload until `seconds` have passed."""
    ref = checks.load_reference()
    rng = random.Random(seed)
    tally = Tally(inprocess.KNOWN_FAULTS)
    start = time.perf_counter()
    while True:
        for task in inprocess.round_tasks(workload, pt, families, ref, rng):
            run_task(task, tally)
        tally.close_round()
        if time.perf_counter() - start >= seconds:
            break
    metrics = tally.end_to_end()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
    return result([tally], metrics)


def _read(path: pathlib.Path):
    return path.read_text(encoding="utf-8") if path.exists() else None


def cli_tasks(cli, ref, rng, directory: pathlib.Path) -> list:
    """The command-line workload as in-process calls of ``cli.main(argv)``."""
    tasks = []
    for k, command in enumerate(clitasks.COMMANDS):
        out, svg = directory / f"{k}.csv", directory / f"{k}.svg"

        def run(command=command, out=out, svg=svg):
            out.unlink(missing_ok=True)
            svg.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = cli.main(command.argv(str(out), str(svg)))
                except Exception:  # as the console script: traceback, exit 1
                    traceback.print_exc()
                    code = 1
            return code, stdout.getvalue(), stderr.getvalue()

        def check(output, command=command, out=out, svg=svg):
            code, stdout, stderr = output
            found = clitasks.CommandResult(code, stdout, stderr, _read(out), _read(svg))
            return clitasks.check_command(command, found, ref)

        tasks.append(inprocess.Task(command.kind, run, check))
    rng.shuffle(tasks)
    return tasks


def traced(workload: str, pt, families, seed: int) -> dict:
    """One round of every workload untraced, then the same rounds traced.

    The per-layer numbers come from the traced rounds; the in-process
    ``cli.main`` pass gives the report and svgplot layers.  Attempted and
    failed count the operations of `workload` only.
    """
    import ptlattice.cli as cli

    ref = checks.load_reference()
    faults = {**inprocess.KNOWN_FAULTS, **clitasks.KNOWN_FAULTS}
    directory = OUT_DIR / f"inprocess-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tallies = {}
    try:
        for mode in ("untraced", "traced"):
            if mode == "traced":
                tracer.install()
            for name in PASSES:
                rng = random.Random(seed)
                if name == "cli":
                    tasks = cli_tasks(cli, ref, rng, directory)
                else:
                    tasks = inprocess.round_tasks(name, pt, families, ref, rng)
                tally = tallies[mode, name] = Tally(faults)
                for index, task in enumerate(tasks):
                    tracer.task = index
                    run_task(task, tally, tracer if mode == "traced" else None)
    finally:
        tracer.remove()
        shutil.rmtree(directory, ignore_errors=True)
    tracer.write_spans(OUT_DIR / f"trace-{workload}-seed{seed}.csv")

    busy = {mode: sum(t.busy_s for (m, _), t in tallies.items() if m == mode)
            for mode in ("untraced", "traced")}
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_pct"] = (100.0 * (busy["traced"] / busy["untraced"] - 1.0), "%")
    own = [tallies["untraced", workload], tallies["traced", workload]]
    out = result(own, metrics)
    out["correct"] = all(t.correct for t in tallies.values())
    out["problems"] = [p for t in tallies.values() for p in t.unexpected]
    return out
