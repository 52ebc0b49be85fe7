"""Span tracer for the traced run, installed from outside the package.

Each traced function is replaced by a wrapper in every zonalg module that
binds it (``bodies`` binds ``pair_sin_sum`` from ``_backend``, ``lifted``
binds ``lift``'s callees, ...).  ``zonalg.oracle`` is left alone: it is a
reference for the output checks and is never timed.  Spans live in flat
arrays (name, parent, start, end, count) until the run ends; self time is
a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

GENERATORS = [
    "generators.trial_rng",
    "generators.random_body",
    "generators.random_zonogon",
    "generators.random_lifted",
]
CLOSED_FORMS = [
    "bodies.area",
    "bodies.perimeter",
    "bodies.mixed_area",
    "bodies.support",
    "bodies.support_many",
    "bodies.width",
    "bodies.vertices",
]
FORMS = [
    "lifted.measure_ext",
    "lifted.bilinear_M",
    "lifted.deficit",
    "lifted.eps_form",
    "lifted.inner",
    "lifted.perimeter_ext",
]
CHECKS = [
    "inequalities.check_isoperimetric",
    "inequalities.check_bm_classical",
    "inequalities.check_bm_generalized",
    "inequalities.check_schwarz_deficit",
]

# Per-layer metric -> (statistic, spans it sums over).  "self_s" sums self
# time, "calls" counts spans, "count" sums the work count of COUNTERS.
LAYER_METRICS = {
    "cli.self_s": ("self_s", ["cli.run"]),
    "generators.self_s": ("self_s", GENERATORS),
    "generators.random_body.calls": ("calls", ["generators.random_body"]),
    "bodies.canonicalize.self_s": ("self_s", ["bodies.canonicalize"]),
    "bodies.canonicalize.calls": ("calls", ["bodies.canonicalize"]),
    "bodies.closed_forms.self_s": ("self_s", CLOSED_FORMS),
    "bodies.hausdorff.self_s": ("self_s", ["bodies.hausdorff"]),
    "bodies.hausdorff.calls": ("calls", ["bodies.hausdorff"]),
    "lifted.lift.self_s": ("self_s", ["lifted.lift"]),
    "lifted.lift.calls": ("calls", ["lifted.lift"]),
    "lifted.forms.self_s": ("self_s", FORMS),
    "inequalities.check.self_s": ("self_s", CHECKS),
    "inequalities.reduce_pair.self_s": ("self_s", ["inequalities.reduce_pair"]),
    "inequalities.reduce_pair.steps": ("count", ["inequalities.reduce_pair"]),
    "inequalities.singular_min.self_s": ("self_s", ["inequalities.singular_min"]),
    "inequalities.singular_min.calls": ("calls", ["inequalities.singular_min"]),
    "rkhs.jacobi.self_s": ("self_s", ["rkhs.jacobi_eigenvalues"]),
    "rkhs.gram.self_s": ("self_s", ["rkhs.gram"]),
    "rkhs.sample.self_s": ("self_s", ["rkhs.sample"]),
    "rkhs.interpolate.self_s": ("self_s", ["rkhs.interpolate"]),
    "backend.pair_sin_sum.self_s": ("self_s", ["_backend.pair_sin_sum"]),
    "backend.pair_sin_sum.calls": ("calls", ["_backend.pair_sin_sum"]),
    "backend.pair_sin_sum.pairs": ("count", ["_backend.pair_sin_sum"]),
    "backend.support_batch.self_s": ("self_s", ["_backend.support_batch"]),
    "backend.support_batch.calls": ("calls", ["_backend.support_batch"]),
    "backend.support_batch.evals": ("count", ["_backend.support_batch"]),
}

# Work counts derived from arguments and return values.
COUNTERS = {
    # pair_sin_sum(angles_a, lens_a, angles_b, lens_b): n_a * n_b pairs
    "_backend.pair_sin_sum": lambda args, result: len(args[0]) * len(args[2]),
    # support_batch(angles, lens, disc, thetas): n * m support terms
    "_backend.support_batch": lambda args, result: len(args[0]) * np.size(args[3]),
    "inequalities.reduce_pair": lambda args, result: len(result.steps),
}

TRACED = sorted({span for _, spans in LAYER_METRICS.values() for span in spans})


class Tracer:
    """Wraps the TRACED functions of an imported zonalg and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "zonalg" or key.startswith("zonalg.")) and key != "zonalg.oracle"
        ]
        for span in TRACED:
            mod_name, fn_name = span.split(".")
            fn = getattr(sys.modules.get(f"zonalg.{mod_name}"), fn_name, None)
            if not callable(fn):
                # removed or renamed by a refactor: report it, keep running
                self.absent.append(span)
                continue
            wrapper = self._wrap(fn, len(self.names), COUNTERS.get(span))
            self.names.append(span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name_id: int, counter):
        names, parents, starts, ends, counts, stack = (
            self.name, self.parent, self.start, self.end, self.count, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            counts.append(0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counts[i] = counter(args, result)
                except Exception:  # a changed signature loses the count, not the run
                    counts[i] = 0
            return result

        return traced

    def save(self, path, **arrays) -> None:
        np.savez(
            path,
            **{key: np.frombuffer(value, dtype=np.float64) for key, value in arrays.items()},
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count=np.frombuffer(self.count, dtype=np.int64),
        )

    def layer_metrics(self, ops: float, seconds) -> dict[str, float]:
        """Every LAYER_METRICS entry per operation of the workload; absent spans count 0.

        seconds(starts, ends) gives the spans' durations, as the caller counts them.
        """
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = seconds(np.frombuffer(self.start, dtype=np.float64), np.frombuffer(self.end, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        stats = {
            "self_s": np.bincount(name, weights=dur - child, minlength=k),
            "calls": np.bincount(name, minlength=k).astype(float),
            "count": np.bincount(name, weights=np.frombuffer(self.count, dtype=np.int64).astype(float), minlength=k),
        }
        index = {span: i for i, span in enumerate(self.names)}
        out = {}
        for metric, (stat, spans) in LAYER_METRICS.items():
            total = sum(float(stats[stat][index[s]]) for s in spans if s in index)
            out[metric] = total / ops
        return out
