"""Span tracing of the package from outside, by wrapping the names it calls.

Each wrapped call records a span (name, parent span, start, end) in memory.
The wrappers are installed where the package looks the functions up: in
every ``ivspline`` module namespace that holds the function object, on the
``PathSolver`` class for its methods, and on ``scipy.linalg`` (plus any
``ivspline`` module that imported them by name) for the dense
factorizations.  Nothing in the package is edited; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np
import scipy.linalg

LAYER_MODULES = ("datamodel", "kernel", "spline", "solver", "selection", "monotone", "simlab", "cli")
FACTORIZATIONS = ("cholesky", "cho_factor", "lu_factor", "eigh")
# private helpers that carry a layer's work and have no public name
PRIVATE_TARGETS = {"cli": ("_write_curve_csv",)}


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one list [name, parent index or -1, start, end, note]
    per call, in call order.  ``note`` keeps what a layer metric needs from
    the call's result (for example whether a path solve returned a value).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if note is not None:
                spans[idx][4] = note(result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules, PathSolver, and the factorizations."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {short: importlib.import_module(f"ivspline.{short}") for short in LAYER_MODULES}
        package = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ivspline" or key.startswith("ivspline."))]
        targets = []  # (original function, span name, note)
        for short, module in layers.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                    not attr.startswith("_") or attr in PRIVATE_TARGETS.get(short, ())
                ):
                    targets.append((obj, f"{short}.{attr}", _NOTES.get(f"{short}.{attr}")))
        for obj, name, note in targets:
            wrapped = self._wrap(obj, name, note)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, attr, wrapped)

        solver_cls = layers["solver"].PathSolver
        self._patch(solver_cls, "__init__", self._wrap(solver_cls.__init__, "solver.path_init"))
        self._patch(solver_cls, "coefficients", self._wrap(
            solver_cls.coefficients, "solver.path_solve", note=lambda r: r is not None))

        for attr in FACTORIZATIONS:
            original = getattr(scipy.linalg, attr)
            wrapped = self._wrap(original, f"linalg.{attr}")
            self._patch(scipy.linalg, attr, wrapped)
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON: one [name, parent, start, end] row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"],
                       "spans": [s[:4] for s in self.spans]}, handle)


def _cv_note(result):
    grid = result.curve[:, 0]
    return int(np.flatnonzero(grid == result.lambda_star)[0]), grid.size


def _tilt_note(result):
    p = np.asarray(result.p)
    return int(result.diagnostics.get("newton_steps", 0)), bool(np.all(p == p[0]))


_NOTES = {
    "selection.cross_validate": _cv_note,
    "monotone.tilt": _tilt_note,
}


# ---------------------------------------------------------------------------
# layer metrics from a list of spans
# ---------------------------------------------------------------------------

def _busy(intervals) -> float:
    """Length of the union of [start, end] intervals (nested calls counted once)."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: list[list], datasets: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from recorded spans; ``datasets`` normalises per-dataset counts."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for idx, (name, parent, *_rest) in enumerate(spans):
        by_name.setdefault(name, []).append(idx)
        children.setdefault(parent, []).append(idx)

    def busy(*names):
        return _busy((spans[i][2], spans[i][3]) for n in names for i in by_name.get(n, ()))

    def outermost(name):
        """Calls of ``name`` not nested in another call of the same module."""
        module = name.split(".")[0]
        out = []
        for i in by_name.get(name, ()):
            p = spans[i][1]
            while p >= 0 and not spans[p][0].startswith(module + "."):
                p = spans[p][1]
            if p < 0:
                out.append(i)
        return out

    def factorizations(module):
        count = 0
        for name in FACTORIZATIONS:
            for i in by_name.get(f"linalg.{name}", ()):
                p = spans[i][1]
                while p >= 0 and spans[p][0].startswith("linalg."):
                    p = spans[p][1]
                if p >= 0 and spans[p][0].split(".")[0] == module:
                    count += 1
        return count

    def child_time(i, pred=lambda name: True):
        return sum(spans[c][3] - spans[c][2] for c in children.get(i, ()) if pred(spans[c][0]))

    per_dataset = max(datasets, 1)
    weight_calls = outermost("kernel.build_weight_matrix")
    jitter_retries = sum(
        max(sum(1 for c in children.get(i, ()) if spans[c][0] == "linalg.cholesky") - 1, 0)
        for i in weight_calls
    )
    path_calls = by_name.get("solver.path_solve", [])
    path_valid = sum(1 for i in path_calls if spans[i][4])
    cv_calls = outermost("selection.cross_validate")
    cv_index = [spans[i][4] for i in cv_calls if spans[i][4] is not None]
    tilt_notes = [spans[i][4] for i in by_name.get("monotone.tilt", ()) if spans[i][4] is not None]
    mono_calls = outermost("monotone.fit_monotone")
    reps = replication_times(spans)

    return {
        "datamodel.load_csv_s": (busy("datamodel.load_csv"), "s"),
        "cli.write_s": (busy("cli.write_document", "cli._write_curve_csv"), "s"),
        "kernel.weight_matrix_s": (busy("kernel.build_weight_matrix"), "s"),
        "kernel.weight_matrix_calls": (len(weight_calls) / per_dataset, "count"),
        "kernel.factorizations": (factorizations("kernel"), "count"),
        "kernel.jitter_retries": (jitter_retries, "count"),
        "spline.design_s": (busy("spline.build_design"), "s"),
        "spline.design_calls": (len(outermost("spline.build_design")) / per_dataset, "count"),
        "spline.evaluate_s": (busy("spline.evaluate", "spline.evaluate_derivative",
                                   "spline.evaluate_second_derivative"), "s"),
        "solver.fit_s": (busy("solver.fit"), "s"),
        "solver.fit_calls": (len(by_name.get("solver.fit", ())), "count"),
        "solver.factorizations": (factorizations("solver"), "count"),
        "solver.path_init_s": (busy("solver.path_init"), "s"),
        "solver.path_solve_s": (busy("solver.path_solve"), "s"),
        "solver.path_solve_calls": (len(path_calls), "count"),
        "solver.path_solve_valid_ratio": (path_valid / len(path_calls) if path_calls else 1.0, "1"),
        "solver.kkt_columns_s": (busy("solver.kkt_solve_columns"), "s"),
        "selection.cv_s": (busy("selection.cross_validate"), "s"),
        "selection.cv_self_s": (
            sum(spans[i][3] - spans[i][2] - child_time(i) for i in cv_calls), "s"),
        "selection.boundary_hits": (sum(1 for k, size in cv_index if k in (0, size - 1)), "count"),
        "selection.lambda_star_index": (
            float(np.median([k for k, _ in cv_index])) if cv_index else -1.0, "index"),
        "monotone.smoother_s": (busy("monotone.derivative_smoother_matrix"), "s"),
        "monotone.tilt_s": (busy("monotone.tilt"), "s"),
        "monotone.tilt_newton_steps": (sum(steps for steps, _ in tilt_notes), "count"),
        "monotone.tilt_uniform_exits": (sum(1 for _, uniform in tilt_notes if uniform), "count"),
        "monotone.factorizations": (factorizations("monotone"), "count"),
        "monotone.refit_s": (
            sum(spans[i][3] - spans[i][2] - child_time(i, lambda n: n == "monotone.tilt")
                for i in mono_calls), "s"),
        "simlab.generate_s": (busy("simlab.generate"), "s"),
        "simlab.replication_s": (float(np.median(reps)) if reps else 0.0, "s"),
    }


def replication_times(spans: list[list]) -> list[float]:
    """Wall time of each Monte Carlo replication.

    A replication starts with its draw (``simlab.generate`` directly under
    ``simlab.monte_carlo``) and ends where the next draw starts, or where
    the Monte Carlo call returns.
    """
    times = []
    for idx, span in enumerate(spans):
        if span[0] != "simlab.monte_carlo":
            continue
        starts = [s[2] for s in spans if s[0] == "simlab.generate" and s[1] == idx]
        ends = starts[1:] + [span[3]]
        times.extend(e - s for s, e in zip(starts, ends))
    return times
