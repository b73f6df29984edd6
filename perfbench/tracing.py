"""Spans and counters around ptlattice's public functions, for traced runs.

``Tracer.install`` wraps each layer function at every name it is looked up
under: a module attribute is replaced in every ``ptlattice`` module that
binds the same object (``from .spectra import count_real`` makes a second
binding in ``ptlattice.domains``), and methods are replaced on their class.
numpy's ``eig``/``eigvals`` are wrapped in ``numpy.linalg`` and recorded
only when the caller is a ptlattice module.

Spans are kept in memory, one row per call (id, parent id, task id, name,
start, end), and written out by ``write_spans``.  A layer's self time is
its span minus the time of the spans nested in it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Layer name -> (module, attribute) for functions, looked up in every module.
FUNCTIONS = {
    "lattice.build_matrix": ("ptlattice.lattice", "build_matrix"),
    "custom.evaluate": ("ptlattice.custom", "evaluate"),
    "spectra.count_real": ("ptlattice.spectra", "count_real"),
    "spectra.min_pairwise_gap": ("ptlattice.spectra", "min_pairwise_gap"),
    "spectra.canonical_sort": ("ptlattice.spectra", "canonical_sort"),
    "spectra.left_right_pairs": ("ptlattice.spectra", "left_right_pairs"),
    "spectra.matching_distance": ("ptlattice.spectra", "matching_distance"),
    "domains.domain_report": ("ptlattice.domains", "domain_report"),
    "domains.refine_reality_boundary": ("ptlattice.domains", "refine_reality_boundary"),
    "domains.coalescence": ("ptlattice.domains", "locate_coalescence_ep"),
    "metrics.intertwiner_basis": ("ptlattice.metrics", "intertwiner_basis"),
    "charpoly.coefficients": ("ptlattice.charpoly", "charpoly_coefficients"),
    "charpoly.float_lift": ("ptlattice.charpoly", "eigenvalues_charpoly_oracle"),
    "charpoly.exact_entry": ("ptlattice.charpoly", "model_oracle_eigenvalues"),
}
# Layer name -> (module, class, method).
METHODS = {
    "models.matrix": ("ptlattice.models", "ModelFamily", "matrix"),
    "models.matrix_mp": ("ptlattice.models", "ModelFamily", "matrix_mp"),
    "metrics.section_value": ("ptlattice.metrics", "MetricSection", "value"),
    "metrics.candidate_at": ("ptlattice.metrics", "MetricCandidate", "at"),
    "report.to_csv": ("ptlattice.report", "ReportBundle", "to_csv"),
    "svgplot.write": ("ptlattice.svgplot", "LinePlot", "write"),
}
LAPACK = ("eig", "eigvals")


def _caller(depth: int):
    """Code object of the frame `depth` levels above the wrapper's caller."""
    return sys._getframe(depth + 2).f_code


class Tracer:
    def __init__(self):
        self.recording = False
        self.task = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = array("q")  # id, parent, task, name per span
        self._times = array("d")  # start, end per span
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name, self._next_id, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, parent, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        self._ids.extend((span_id, parent, self.task, name_id))
        self._times.extend((start, end))

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # ------------------------------------------------------ layer hooks

    def _count_real_hook(self, args) -> None:
        if _caller(1).co_name == "count_at":
            self.counts["domains.bisection_evals"] += 1

    def _gap_hook(self, args) -> None:
        if _caller(1).co_name == "gap_at" and _caller(2).co_name == "_golden_minimize":
            self.counts["domains.golden_steps"] += 1

    def _float_lift_hook(self, args) -> None:
        if _caller(1).co_name == "sweep_eigenvalues":
            self.counts["spectra.sweep_polished_rows"] += 1

    def _basis_hook(self, args) -> None:
        if _caller(1).co_name == "value":
            self.counts["metrics.section_steps"] += 1

    def _wrap_coalescence(self, fn):
        inner = self._wrap("domains.coalescence", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if tracer.recording:
                tracer.counts["domains.coalescence.accepted"] += 1
            return result

        return wrapper

    def _wrap_section_value(self, fn):
        inner = self._wrap("metrics.section_value", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.counts["metrics.section_steps"]
            result = inner(*args, **kwargs)
            if tracer.recording and tracer.counts["metrics.section_steps"] == before:
                tracer.counts["metrics.section_anchor_hits"] += 1
            return result

        return wrapper

    def _wrap_evaluate(self, fn):
        # evaluate recurses through its module global; only the outermost
        # call of each entry is a span.
        inner = self._wrap("custom.evaluate", fn)
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _wrap_lapack(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not tracer.recording or not caller.startswith("ptlattice"):
                return fn(a, *args, **kwargs)
            shape = getattr(a, "shape", ())
            tracer.counts["spectra.lapack.matrices"] += shape[0] if len(shape) == 3 else 1
            frame = tracer._enter("spectra.lapack")
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # ------------------------------------------------- install / remove

    def install(self) -> None:
        hooks = {
            "spectra.count_real": self._count_real_hook,
            "spectra.min_pairwise_gap": self._gap_hook,
            "charpoly.float_lift": self._float_lift_hook,
            "metrics.intertwiner_basis": self._basis_hook,
        }
        special = {
            "domains.coalescence": self._wrap_coalescence,
            "custom.evaluate": self._wrap_evaluate,
            "metrics.section_value": self._wrap_section_value,
        }

        def wrap(layer, original):
            if layer in special:
                return special[layer](original)
            return self._wrap(layer, original, hooks.get(layer))

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ptlattice"]
        for layer, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapped = wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)
        for layer, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrap(layer, original))
        linalg = sys.modules["numpy.linalg"]
        for attr in LAPACK:
            original = getattr(linalg, attr)
            self._undo.append((linalg, attr, original))
            setattr(linalg, attr, self._wrap_lapack(original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ----------------------------------------------------------- output

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, s, k = self.calls, self.self_s, self.counts
        out = {
            "models.matrix.calls": (c["models.matrix"], "count"),
            "models.matrix.self_s": (s["models.matrix"], "s"),
            "lattice.build_matrix.self_s": (s["lattice.build_matrix"], "s"),
            "custom.evaluate.calls": (c["custom.evaluate"], "count"),
            "custom.evaluate.self_s": (s["custom.evaluate"], "s"),
            "models.matrix_mp.calls": (c["models.matrix_mp"], "count"),
            "models.matrix_mp.self_s": (s["models.matrix_mp"], "s"),
            "spectra.lapack.calls": (c["spectra.lapack"], "count"),
            "spectra.lapack.matrices": (k["spectra.lapack.matrices"], "count"),
            "spectra.lapack.self_s": (s["spectra.lapack"], "s"),
            "spectra.sweep_polished_rows": (k["spectra.sweep_polished_rows"], "count"),
            "domains.bisection_steps": (
                k["domains.bisection_evals"] - 2 * c["domains.refine_reality_boundary"],
                "count",
            ),
            "domains.golden_steps": (k["domains.golden_steps"], "count"),
            "domains.coalescence.attempts": (c["domains.coalescence"], "count"),
            "domains.coalescence.accepted": (k["domains.coalescence.accepted"], "count"),
            "domains.domain_report.self_s": (s["domains.domain_report"], "s"),
            "metrics.intertwiner_basis.calls": (c["metrics.intertwiner_basis"], "count"),
            "metrics.intertwiner_basis.self_s": (s["metrics.intertwiner_basis"], "s"),
            "metrics.section_value.calls": (c["metrics.section_value"], "count"),
            "metrics.section_value.self_s": (s["metrics.section_value"], "s"),
            "metrics.section_steps": (k["metrics.section_steps"], "count"),
            "metrics.section_anchor_hits": (k["metrics.section_anchor_hits"], "count"),
            "metrics.positivity_samples": (c["metrics.candidate_at"], "count"),
            "report.to_csv.self_s": (s["report.to_csv"], "s"),
            "svgplot.write.self_s": (s["svgplot.write"], "s"),
        }
        for layer in ("count_real", "min_pairwise_gap", "canonical_sort",
                      "left_right_pairs", "matching_distance"):
            out[f"spectra.{layer}.calls"] = (c[f"spectra.{layer}"], "count")
            out[f"spectra.{layer}.self_s"] = (s[f"spectra.{layer}"], "s")
        for layer in ("coefficients", "float_lift", "exact_entry"):
            out[f"charpoly.{layer}.calls"] = (c[f"charpoly.{layer}"], "count")
            out[f"charpoly.{layer}.self_s"] = (s[f"charpoly.{layer}"], "s")
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent, task, layer, start and end in us.

        Layer numbers index the names on the first line; times count from
        the first span's start.
        """
        ids, times = self._ids, self._times
        origin = times[0] if times else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# layers: " + ",".join(self.names) + "\n")
            fh.write("id,parent,task,layer,start_us,end_us\n")
            for i in range(len(ids) // 4):
                fh.write(
                    "%d,%d,%d,%d,%d,%d\n"
                    % (
                        *ids[4 * i : 4 * i + 4],
                        round((times[2 * i] - origin) * 1e6),
                        round((times[2 * i + 1] - origin) * 1e6),
                    )
                )
