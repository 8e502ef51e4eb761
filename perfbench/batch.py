"""The in-process batch workloads: ``rq1-table2`` and ``rq2-issues``.

A *pass* is one cold run over the workload's fixed input set: the whole
RQ1 campaign through ``run_rq1`` (six models, LPO and LPO-, five rounds,
no baselines) or one Gemini2.0T round over the 62 RQ2 issue windows
through ``LPOPipeline.run_batch``.  Every pass starts from an empty
``ResultCache``.  A run repeats passes until ``--seconds`` have elapsed;
the seed only permutes the window order, which must not change any
verdict.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import measure
import oracle
from spans import LayerStats, Tracer

RQ1_ROUNDS = 5
MODEL = "Gemini2.0T"
ATTEMPT_LIMIT = 2


@dataclass
class PassOutput:
    """What one pass returned, kept for the checks after the clock."""

    wall_s: float
    cpu_s: float
    #: window label -> verdict, compared with the reference.
    verdicts: Dict[str, object]
    findings: int
    cost_usd: float
    cache_stats: object
    #: Sorted accepted (source_ir, target_ir, status) triples, read
    #: after the pass's clock stopped.
    accepted: List[Tuple[str, str, str]]


@dataclass
class BatchWorkload:
    name: str
    jobs_per_pass: int
    distinct_windows: int
    run_pass: object                      # () -> PassOutput


# -- rq1-table2 --------------------------------------------------------------
def rq1_cases_in_order(seed: int):
    from repro.corpus.issues import rq1_cases
    cases = list(rq1_cases())
    random.Random(f"rq1-table2:{seed}").shuffle(cases)
    return cases


def rq1_models(smoke: bool):
    from repro.llm.profiles import RQ1_MODELS
    return RQ1_MODELS[:2] if smoke else RQ1_MODELS


def _rq1_accepted(cache, cases) -> List[Tuple[str, str, str]]:
    """Accepted findings of a pass, read back from its ResultCache:
    verify entries that proved or validated a (window, candidate)
    pair, joined to the candidate text held by the opt entries."""
    from repro.core.dedup import window_digest
    from repro.core.pipeline import window_from_text
    from repro.ir.parser import parse_function
    entries = cache.export()
    sources = {window_from_text(case.src).digest: case.src
               for case in cases}
    targets = {}
    for key, entry in entries.items():
        if key.startswith("opt:") and entry.get("ok"):
            function = parse_function(entry["text"])
            targets[window_digest(function)] = entry["text"]
    accepted = []
    for key, entry in entries.items():
        if not key.startswith("verify:"):
            continue
        if entry["status"] not in ("proved", "validated"):
            continue
        _prefix, source, target = key.split(":")[:3]
        accepted.append((sources[source], targets[target],
                         entry["status"]))
    return sorted(accepted)


def rq1_pass(cases, models) -> PassOutput:
    from repro.core.cache import ResultCache
    from repro.experiments import rq1

    cache = ResultCache()
    clients = []
    resolve = rq1.resolve_client

    def capture(*args, **kwargs):
        client = resolve(*args, **kwargs)
        clients.append(client)
        return client

    rq1.resolve_client = capture
    try:
        cpu_start = time.process_time()
        start = time.perf_counter()
        results = rq1.run_rq1(rq1.RQ1Config(
            rounds=RQ1_ROUNDS, models=models, cases=cases,
            include_baselines=False, attempt_limit=ATTEMPT_LIMIT,
            cache=cache))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    finally:
        rq1.resolve_client = resolve
    verdicts = {f"{model}/{variant}/{issue}": count
                for (model, variant), counts in results.lpo_counts.items()
                for issue, count in counts.items()}
    # Read eagerly, so no pass's cache outlives the pass.
    return PassOutput(
        wall_s=wall, cpu_s=cpu, verdicts=verdicts,
        findings=sum(verdicts.values()),
        cost_usd=sum(client.stats.usage.cost_usd for client in clients),
        cache_stats=cache.stats.snapshot(),
        accepted=_rq1_accepted(cache, cases))


def rq1_workload(seed: int, smoke: bool) -> BatchWorkload:
    cases = rq1_cases_in_order(seed)
    models = rq1_models(smoke)
    return BatchWorkload(
        name="rq1-table2",
        jobs_per_pass=len(models) * 2 * RQ1_ROUNDS * len(cases),
        distinct_windows=len(cases),
        run_pass=lambda: rq1_pass(cases, models))


# -- rq2-issues --------------------------------------------------------------
#: Smoke runs take this many RQ2 windows, skipping the slow ones.
_SMOKE_RQ2 = 10
#: RQ2 issues whose single proof dominates the round (measured once).
_SLOW_RQ2 = {152797}


def rq2_windows_in_order(seed: int, smoke: bool):
    from repro.core.pipeline import window_from_text
    from repro.corpus.issues_rq2 import rq2_cases
    cases = list(rq2_cases())
    if smoke:
        cases = [case for case in cases
                 if case.issue_id not in _SLOW_RQ2][:_SMOKE_RQ2]
    random.Random(f"rq2-issues:{seed}").shuffle(cases)
    return [(case, window_from_text(case.src)) for case in cases]


def rq2_pass(cases_windows) -> PassOutput:
    from repro.core.cache import ResultCache
    from repro.core.pipeline import LPOPipeline, PipelineConfig
    from repro.llm.backends import resolve_client

    client = resolve_client(MODEL, seed=0)
    pipeline = LPOPipeline(client,
                           PipelineConfig(attempt_limit=ATTEMPT_LIMIT),
                           cache=ResultCache())
    windows = [window for _case, window in cases_windows]
    cpu_start = time.process_time()
    start = time.perf_counter()
    outcomes = pipeline.run_batch(windows, round_seed=0)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    verdicts = {}
    accepted = []
    for (case, _window), outcome in zip(cases_windows, outcomes):
        verdicts[str(case.issue_id)] = [outcome.found, outcome.status]
        if outcome.found:
            verification = outcome.attempts[-1].verification
            accepted.append((case.src, outcome.candidate_text,
                             verification.status))
    return PassOutput(
        wall_s=wall, cpu_s=cpu, verdicts=verdicts,
        findings=sum(outcome.found for outcome in outcomes),
        cost_usd=client.stats.usage.cost_usd,
        cache_stats=pipeline.cache.stats.snapshot(),
        accepted=sorted(accepted))


def rq2_workload(seed: int, smoke: bool) -> BatchWorkload:
    cases_windows = rq2_windows_in_order(seed, smoke)
    return BatchWorkload(
        name="rq2-issues",
        jobs_per_pass=len(cases_windows),
        distinct_windows=len(cases_windows),
        run_pass=lambda: rq2_pass(cases_windows))


WORKLOADS = {"rq1-table2": rq1_workload, "rq2-issues": rq2_workload}


def setup_probe(name: str) -> None:
    """What a fresh process does before a pass can start."""
    WORKLOADS[name](0, smoke=False)


# -- running and checking -----------------------------------------------------
def _run_passes(workload: BatchWorkload, seconds: float,
                count: Optional[int] = None
                ) -> Tuple[List[PassOutput], float, float]:
    """Passes until ``seconds`` elapse (or exactly ``count``); returns
    the outputs and the wall and CPU seconds of the passes themselves
    (not of the bookkeeping between them)."""
    outputs: List[PassOutput] = []
    start = time.perf_counter()
    while True:
        outputs.append(workload.run_pass())
        if count is not None:
            if len(outputs) >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return (outputs, sum(output.wall_s for output in outputs),
            sum(output.cpu_s for output in outputs))


def _check(outputs: List[PassOutput], reference: dict, seed: int
           ) -> Tuple[int, List[str], List[Tuple[str, str, str]]]:
    """Failed operations and their descriptions, over every pass, and
    the accepted findings of the first pass."""
    problems: List[str] = []
    failed = 0
    expected = reference["verdicts"]
    accepted = [output.accepted for output in outputs]
    for index, output in enumerate(outputs):
        for label, verdict in output.verdicts.items():
            want = expected.get(label)
            if want != verdict:
                failed += (abs(verdict - want)
                           if isinstance(verdict, int)
                           and isinstance(want, int) else 1)
                problems.append(f"pass {index} {label}: got {verdict!r}, "
                                f"reference {want!r}")
        if accepted[index] != accepted[0]:
            failed += 1
            problems.append(f"pass {index}: accepted findings differ "
                            f"from pass 0")
    oracle_failures = oracle.check_findings(
        [(source, target) for source, target, _status in accepted[0]],
        seed)
    failed += len(oracle_failures)
    problems.extend(oracle_failures)
    return failed, problems, accepted[0]


def _layer(tracer: Tracer, name: str) -> LayerStats:
    return tracer.layers.get(name) or LayerStats()


def _layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                   cache_stats) -> Dict[str, float]:
    def per_pass(value: float) -> float:
        return value / passes

    def tier(method: str, status: str) -> float:
        return per_pass(sum(1 for v in tracer.verdicts
                            if v.method == method and v.status == status))

    metrics: Dict[str, float] = {}
    for tier_name in ("static", "testing", "exhaustive"):
        stats = _layer(tracer, f"verify.{tier_name}")
        metrics[f"verify.{tier_name}.calls"] = per_pass(stats.calls)
        metrics[f"verify.{tier_name}.busy_s"] = per_pass(stats.busy_s)
    metrics["verify.static.refuted"] = tier("static", "refuted")
    metrics["verify.testing.refuted"] = tier("testing", "refuted")
    metrics["verify.exhaustive.proved"] = tier("exhaustive", "proved")
    metrics["verify.exhaustive.refuted"] = tier("exhaustive", "refuted")
    solve = _layer(tracer, "verify.sat")
    encode = _layer(tracer, "verify.sat.encode")
    metrics["verify.sat.calls"] = per_pass(solve.calls)
    metrics["verify.sat.busy_s"] = per_pass(solve.busy_s + encode.busy_s)
    metrics["verify.sat.proved"] = tier("sat", "proved")
    metrics["verify.sat.conflicts"] = per_pass(tracer.sat_conflicts)
    metrics["verify.sat.max_s"] = solve.max_s
    metrics["verify.self_s"] = per_pass(_layer(tracer, "verify").self_s)
    llm = _layer(tracer, "llm")
    metrics["llm.calls"] = per_pass(tracer.llm_requests)
    metrics["llm.busy_s"] = per_pass(llm.busy_s)
    opt = _layer(tracer, "opt")
    metrics["opt.calls"] = per_pass(opt.calls)
    metrics["opt.busy_s"] = per_pass(opt.busy_s)
    metrics["opt.error_frac"] = measure.frac(tracer.opt_errors, opt.calls)
    analysis = _layer(tracer, "analysis")
    metrics["analysis.calls"] = per_pass(analysis.calls)
    metrics["analysis.busy_s"] = per_pass(analysis.busy_s)
    metrics["analysis.reject_frac"] = measure.frac(
        tracer.analysis_rejects, analysis.calls)
    interesting = _layer(tracer, "core.interestingness")
    metrics["core.interestingness.calls"] = per_pass(interesting.calls)
    metrics["core.interestingness.busy_s"] = per_pass(interesting.busy_s)
    metrics["core.interestingness.pass_frac"] = measure.frac(
        tracer.interesting, interesting.calls)
    metrics["core.cache.opt_hit_frac"] = measure.frac(
        cache_stats.opt_hits, cache_stats.opt_hits + cache_stats.opt_misses)
    metrics["core.cache.verify_hit_frac"] = measure.frac(
        cache_stats.verify_hits,
        cache_stats.verify_hits + cache_stats.verify_misses)
    metrics["core.pipeline.residual_s"] = per_pass(
        traced_wall - tracer.covered_s())
    metrics["trace.wall_s"] = per_pass(traced_wall)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """One benchmark run of a batch workload; see ``run.py``."""
    reference = oracle.load_reference()[name]
    setup_s = measure.timed_setup(name)
    workload = WORKLOADS[name](seed, smoke)

    outputs, wall, cpu = _run_passes(workload, seconds)
    passes = len(outputs)
    failed, problems, accepted = _check(outputs, reference, seed)
    attempted = passes * workload.jobs_per_pass
    first = outputs[0]
    proved = sum(1 for *_pair, status in accepted if status == "proved")
    walls_ms = [output.wall_s * 1e3 for output in outputs]
    pass_ms = measure.median(walls_ms)
    end_to_end = {
        "setup_s": setup_s,
        # The median pass, so one pass slowed by the host counts less.
        "jobs_per_s": workload.jobs_per_pass / (pass_ms / 1e3),
        "latency_p50_ms": pass_ms,
        "latency_p99_ms": measure.percentile(walls_ms, 0.99),
        "findings": first.findings,
        "proved_frac": measure.frac(proved, len(accepted)),
        "ops_ok_frac": 1.0 - measure.frac(failed, attempted),
        "llm_cost_usd": first.cost_usd,
        "peak_rss_mb": _self_peak_rss_mb(),
    }
    result = {"attempted": attempted, "failed": failed,
              "problems": problems, "end_to_end": end_to_end}
    if not trace:
        return result

    tracer = Tracer()
    with tracer.installed():
        traced, traced_wall, _cpu = _run_passes(workload, seconds,
                                                count=passes)
    traced_failed, traced_problems, _accepted = _check(traced, reference,
                                                       seed)
    result["failed"] += traced_failed
    result["attempted"] += passes * workload.jobs_per_pass
    result["problems"] += traced_problems
    cache_stats = traced[0].cache_stats
    for output in traced[1:]:
        cache_stats.add(output.cache_stats)
    layers = _layer_metrics(tracer, passes, traced_wall, cache_stats)
    layers.update({name: 0.0 for name in IDLE_SERVICE_LAYERS})
    layers["core.executor.cpu_util"] = cpu / (wall * (os.cpu_count() or 1))
    jobs = workload.jobs_per_pass
    layers["workload.repeat_frac"] = 1.0 - workload.distinct_windows / jobs
    layers["workload.fresh_windows"] = float(workload.distinct_windows)
    layers["trace.overhead_frac"] = traced_wall / wall - 1.0
    layers["ops_failed_frac"] = measure.frac(result["failed"],
                                             result["attempted"])
    result["per_layer"] = layers
    return result


#: Service-plane layers a batch workload never enters: reported as 0.
IDLE_SERVICE_LAYERS = (
    "llm.http.call_ms", "llm.http.retries",
    "service.mesh.route_ms_p50", "service.mesh.route_ms_p99",
    "service.server.queue_wait_ms_p50", "service.server.queue_wait_ms_p99",
    "service.workers.compute_ms_p50", "service.workers.compute_ms_p99",
    "service.cache.hit_frac", "service.server.coalesced",
    "service.server.rejected")


def _self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
