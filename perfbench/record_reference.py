"""Record ``reference.json``: the verdicts every workload is checked
against.  Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_reference.py

The reference comes from the in-process library path (``run_rq1`` and
``LPOPipeline.run_batch`` with the simulated Gemini2.0T), so the
service workload is also checked against a different execution path
than its own.  Re-record only when a change is meant to alter verdicts,
and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import batch  # noqa: E402
import oracle  # noqa: E402
import service  # noqa: E402


def _window_verdicts(irs):
    """text key -> [found, status, proved] for one cold round."""
    from repro.core.cache import ResultCache
    from repro.core.pipeline import (
        LPOPipeline,
        PipelineConfig,
        window_from_text,
    )
    from repro.llm.backends import resolve_client
    pipeline = LPOPipeline(
        resolve_client(service.MODEL, seed=0),
        PipelineConfig(attempt_limit=service.ATTEMPT_LIMIT),
        cache=ResultCache())
    outcomes = pipeline.run_batch([window_from_text(ir) for ir in irs],
                                  round_seed=0)
    verdicts = {}
    for ir, outcome in zip(irs, outcomes):
        proved = bool(outcome.found
                      and outcome.attempts[-1].verification.is_proof)
        verdicts[oracle.text_key(ir)] = [outcome.found, outcome.status,
                                         proved]
    return verdicts


def record() -> dict:
    rq1 = batch.rq1_pass(batch.rq1_cases_in_order(0),
                         batch.rq1_models(smoke=False))
    rq2 = batch.rq2_pass(batch.rq2_windows_in_order(0, smoke=False))
    return {
        "rq1-table2": {"verdicts": rq1.verdicts},
        "rq2-issues": {"verdicts": rq2.verdicts},
        "service-mix": {
            "rq1": _window_verdicts(service.rq1_windows()),
            "pool": _window_verdicts(service.pool_windows()),
        },
    }


def main() -> int:
    reference = record()
    oracle.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {oracle.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
