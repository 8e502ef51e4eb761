"""The repository benchmark.  Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``rq1-table2``, ``rq2-issues`` and ``service-mix`` (see
``README.md`` in this directory).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a separate traced run.  Problems found
by the output checks go to stderr.  Exit status: 0 when every output
check passed, 1 when one failed, 2 when the program under test is not
there to run (no ``src/repro`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("rq1-table2", "rq2-issues", "service-mix")
#: Workloads whose set-up is timed in a fresh interpreter (``--setup-probe``).
BATCH_WORKLOADS = WORKLOADS[:2]

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "findings": "count",
    "proved_frac": "frac",
    "ops_ok_frac": "frac",
    "llm_cost_usd": "USD",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> unit.
PER_LAYER = {
    "verify.exhaustive.calls": "count",
    "verify.exhaustive.busy_s": "s",
    "verify.exhaustive.proved": "count",
    "verify.exhaustive.refuted": "count",
    "verify.sat.calls": "count",
    "verify.sat.busy_s": "s",
    "verify.sat.proved": "count",
    "verify.sat.conflicts": "count",
    "verify.sat.max_s": "s",
    "verify.static.calls": "count",
    "verify.static.busy_s": "s",
    "verify.static.refuted": "count",
    "verify.testing.calls": "count",
    "verify.testing.busy_s": "s",
    "verify.testing.refuted": "count",
    "verify.self_s": "s",
    "llm.calls": "count",
    "llm.busy_s": "s",
    "llm.http.call_ms": "ms",
    "llm.http.retries": "count",
    "opt.calls": "count",
    "opt.busy_s": "s",
    "opt.error_frac": "frac",
    "analysis.calls": "count",
    "analysis.busy_s": "s",
    "analysis.reject_frac": "frac",
    "core.interestingness.calls": "count",
    "core.interestingness.busy_s": "s",
    "core.interestingness.pass_frac": "frac",
    "core.cache.opt_hit_frac": "frac",
    "core.cache.verify_hit_frac": "frac",
    "core.pipeline.residual_s": "s",
    "core.executor.cpu_util": "frac",
    "service.mesh.route_ms_p50": "ms",
    "service.mesh.route_ms_p99": "ms",
    "service.server.queue_wait_ms_p50": "ms",
    "service.server.queue_wait_ms_p99": "ms",
    "service.workers.compute_ms_p50": "ms",
    "service.workers.compute_ms_p99": "ms",
    "service.cache.hit_frac": "frac",
    "service.server.coalesced": "count",
    "service.server.rejected": "count",
    "workload.repeat_frac": "frac",
    "workload.fresh_windows": "count",
    "trace.overhead_frac": "frac",
    "trace.wall_s": "s",
    "ops_failed_frac": "frac",
}


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a small input set, for the self-test")
    parser.add_argument("--setup-probe", choices=BATCH_WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC} has no "
              f"repro package); run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import batch
    import service

    if args.setup_probe is not None:
        batch.setup_probe(args.setup_probe)
        return 0

    trace = bool(args.trace)
    if args.workload == "service-mix":
        result = service.run(args.seed, args.seconds, trace, args.smoke)
    else:
        result = batch.run(args.workload, args.seed, args.seconds, trace,
                           args.smoke)
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    values = result["per_layer"] if trace else result["end_to_end"]
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}", file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
