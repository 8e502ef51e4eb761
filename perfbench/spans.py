"""Benchmark-side span tracing for the in-process batch workloads.

The program under test is not instrumented for the benchmark.  Instead,
:class:`Tracer` patches the public functions each layer is entered
through, at the module where the caller looks them up, and records one
span per call: name, start, duration and parent.  A layer's self time
is its span time minus the time covered by its child spans, so the self
times of all layers plus the uncovered remainder add up to the wall.

The patched names (and the layer each one opens):

* ``repro.core.pipeline.run_opt``                -> ``opt``
* ``repro.core.pipeline.verify_function``        -> ``analysis``
* ``repro.core.pipeline.check_interestingness``  -> ``core.interestingness``
* ``repro.core.pipeline.check_refinement``       -> ``verify``
* ``repro.verify.refinement.static_refutation``  -> ``verify.static``
* ``repro.verify.refinement.run_refinement_tests`` -> ``verify.testing``
* ``repro.verify.refinement.check_exhaustive``   -> ``verify.exhaustive``
* ``SatSolver.solve``                           -> ``verify.sat``
* ``FunctionEncoder.encode``                     -> ``verify.sat.encode``
* ``CompletionBackend.complete_many``            -> ``llm``

``check_refinement`` calls ``verify_function`` for its own input gate
through ``repro.verify.refinement``'s binding, which is left alone: that
time stays in the ``verify`` span's self time, never in ``analysis``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple


class LayerStats:
    """Accumulated spans of one layer."""

    __slots__ = ("calls", "busy_s", "self_s", "max_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0


class Tracer:
    """Records nested spans around patched layer entry points.

    Single-threaded by design: the batch workloads drive the pipeline
    through its serial wavefront path, so spans nest strictly.
    """

    def __init__(self):
        self.layers: Dict[str, LayerStats] = {}
        #: Open spans: [name, start, seconds covered by children].
        self._open: List[list] = []
        #: Verdicts returned by ``check_refinement``, in call order.
        self.verdicts: list = []
        self.sat_conflicts = 0
        self.opt_errors = 0
        self.analysis_rejects = 0
        self.interesting = 0
        self.llm_requests = 0

    def layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def _span(self, name: str, call: Callable):
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - frame[1]
            self._open.pop()
            stats = self.layer(name)
            stats.calls += 1
            stats.busy_s += elapsed
            stats.self_s += elapsed - frame[2]
            stats.max_s = max(stats.max_s, elapsed)
            if self._open:
                self._open[-1][2] += elapsed

    def covered_s(self) -> float:
        """Wall time covered by any span (the sum of every self time)."""
        return sum(stats.self_s for stats in self.layers.values())

    # -- patching ----------------------------------------------------------
    def _wrappers(self) -> List[Tuple[object, str, Callable]]:
        from repro.core import pipeline
        from repro.llm.backends import CompletionBackend
        from repro.verify import refinement
        from repro.verify.encoder import FunctionEncoder
        from repro.verify.sat import SatSolver

        tracer = self

        def wrap(target, attr, name, observe=None):
            original = getattr(target, attr)

            def traced(*args, **kwargs):
                result = tracer._span(
                    name, lambda: original(*args, **kwargs))
                if observe is not None:
                    observe(result, *args)
                return result
            return target, attr, traced

        def on_opt(result, *_args):
            tracer.opt_errors += bool(result.is_failed)

        def on_analysis(diagnostics, *_args):
            tracer.analysis_rejects += bool(diagnostics)

        def on_interesting(report, *_args):
            tracer.interesting += bool(report.interesting)

        def on_verify(verification, *_args):
            tracer.verdicts.append(verification)

        def on_solve(sat_result, *_args):
            tracer.sat_conflicts += sat_result.conflicts

        def on_llm(responses, *_args):
            tracer.llm_requests += len(responses)

        return [
            wrap(pipeline, "run_opt", "opt", on_opt),
            wrap(pipeline, "verify_function", "analysis", on_analysis),
            wrap(pipeline, "check_interestingness",
                 "core.interestingness", on_interesting),
            wrap(pipeline, "check_refinement", "verify", on_verify),
            wrap(refinement, "static_refutation", "verify.static"),
            wrap(refinement, "run_refinement_tests", "verify.testing"),
            wrap(refinement, "check_exhaustive", "verify.exhaustive"),
            wrap(SatSolver, "solve", "verify.sat", on_solve),
            wrap(FunctionEncoder, "encode", "verify.sat.encode"),
            wrap(CompletionBackend, "complete_many", "llm", on_llm),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every entry point for the duration of the block."""
        patches = self._wrappers()
        saved = [(target, attr, target.__dict__[attr])
                 for target, attr, _wrapper in patches]
        try:
            for target, attr, wrapper in patches:
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in saved:
                setattr(target, attr, original)
