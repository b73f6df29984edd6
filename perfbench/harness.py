"""Timing and tallying shared by the in-process and command-line workloads."""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Latency samples per task kind, plus attempted and failed operations.

    A failure of a kind listed in ``known_faults`` is counted in ``failed``
    only; any other failure also makes the run incorrect.
    """

    def __init__(self, known_faults: dict):
        self.known_faults = known_faults
        self.samples = defaultdict(list)
        self.busy_s = 0.0
        self.rounds: list[float] = []  # tasks per second of each whole round
        self._round = [0, 0.0]
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self._reported: set[str] = set()

    def record(self, kind: str, seconds: float, problems: list) -> None:
        self.samples[kind].append(seconds)
        self.busy_s += seconds
        self._round[0] += 1
        self._round[1] += seconds
        self.attempted += 1
        if problems:
            self.failed += 1
            if kind not in self.known_faults:
                self.unexpected.append(f"{kind}: {'; '.join(problems)}")
        elif kind in self.known_faults and kind not in self._reported:
            self._reported.add(kind)
            print(f"notice: known fault of {kind} no longer shows", file=sys.stderr)

    def close_round(self) -> None:
        tasks, seconds = self._round
        self.rounds.append(tasks / seconds)
        self._round = [0, 0.0]

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def end_to_end(self) -> dict:
        """tasks_per_s as the median over rounds, task_gmean_s over kinds' medians."""
        return {
            "tasks_per_s": (statistics.median(self.rounds), "1/s"),
            "task_gmean_s": (
                gmean(statistics.median(v) for v in self.samples.values()),
                "s",
            ),
        }


def run_task(task, tally: Tally, tracer=None) -> None:
    """Time one call of the task, then check its output outside the timing."""
    if tracer is not None:
        tracer.recording = True
    start = time.perf_counter()
    try:
        out, error = task.run(), None
    except Exception as exc:  # a raising operation is a failed one
        out, error = None, exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    if error is not None:
        problems = [f"raised {type(error).__name__}: {error}"]
    else:
        try:
            problems = task.check(out)
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(task.kind, seconds, problems)


def result(tallies, metrics: dict) -> dict:
    """The result object: correct, attempted, failed, problems and metrics."""
    return {
        "correct": all(t.correct for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "problems": [p for t in tallies for p in t.unexpected],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
