"""Spans around calls into indeplab's public functions, recorded from outside.

The tracer rebinds module attributes at the place each function is looked
up (``cli`` and ``stat_tests`` import several names directly), so the package
itself is never edited.  Spans live in memory as (request, name, start, end,
parent) and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

# (module, attribute, span name).  Several lookup sites of one function share
# a span name; the estimators share one name because together they are the
# per-trial orchestration layer.
TARGETS = [
    ("cli", "estimate_level", "stat_tests.estimator"),
    ("cli", "estimate_avg_power", "stat_tests.estimator"),
    ("cli", "phase_curve", "stat_tests.estimator"),
    ("stat_tests", "estimate_level", "stat_tests.estimator"),
    ("stat_tests", "permutation_test", "stat_tests.permutation_test"),
    ("stat_tests", "cross_cov_stat", "stat_tests.cross_cov_stat"),
    ("stat_tests", "sample_dataset", "structured_cov.sample_dataset"),
    ("stat_tests", "sample_direction", "structured_cov.sample_direction"),
    ("structured_cov", "cov_sqrt_apply", "structured_cov.cov_sqrt_apply"),
    ("divergence", "minimax_power_upper", "divergence.minimax_power_upper"),
    ("divergence", "chi_square_exact", "divergence.chi_square_exact"),
    ("divergence", "mgf_validity", "divergence.mgf_validity"),
    ("oracles_suite", "run_suite", "oracles_suite.run_suite"),
    ("oracles", "gamma_numeric", "oracles.gamma_numeric"),
    ("oracles", "mc_chi_square", "oracles.mc_chi_square"),
    ("oracles", "enumerate_chi_square", "oracles.enumerate_chi_square"),
]
ROOT_SPAN = "cli.main"
ALLOC_TRACKED = ("divergence.chi_square_exact", "divergence.mgf_validity")


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.perms: list[int] = []
        self.peak_alloc: dict[str, float] = {}
        self.request = 0
        self.track_alloc = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        alloc = name in ALLOC_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((self.request, name, 0.0, 0.0, parent))
            self._stack.append(index)
            measure = alloc and self.track_alloc
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0.0), peak)
                self._stack.pop()
                self.spans[index] = (self.request, name, start, end, parent)
            if name == "stat_tests.permutation_test":
                self.perms.append(result.permutations)
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, name in TARGETS:
            module = self.modules[mod]
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def call_root(self, fn, *args):
        """Run the request's entry point as the root span."""
        return self._wrap(fn, ROOT_SPAN)(*args)

    def clear(self) -> None:
        self.spans.clear()
        self.perms.clear()

    def self_times(self) -> list[tuple[int, str, float, float]]:
        """(request, name, duration, self time) per span.

        Self time is the span's duration minus its child spans' durations;
        calls are single-threaded and nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(req, name, end - start, end - start - child[i])
                for i, (req, name, start, end, _) in enumerate(self.spans)]
