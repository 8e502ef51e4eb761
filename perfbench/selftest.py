"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, in about a minute:

* ``BENCHMARK.json`` names the workloads and metrics ``run.py``
  implements, with the same units, and keeps within the format limits;
* a smoke-sized run of every workload, untraced and traced, passes its
  output checks and prints exactly the metrics ``BENCHMARK.json``
  names, each with its unit;
* in a directory holding only ``BENCHMARK.json`` and this directory,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    names = [workload["name"] for workload in spec["workloads"]]
    assert tuple(names) == run.WORKLOADS, names
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        declared = {metric["name"]: metric["unit"]
                    for metric in spec[section]}
        assert declared == table, (section, set(declared) ^ set(table))
        for metric in spec[section]:
            assert _NAME.match(metric["name"]), metric
            assert _UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
            if section == "end_to_end":
                assert 0 < metric["bound"] <= 0.25, metric
    every = names + [m["name"] for m in spec["end_to_end"]
                     + spec["per_layer"]]
    assert len(every) == len(set(every)), "a name is used twice"
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _result(command, cwd) -> dict:
    completed = subprocess.run(command, cwd=cwd, capture_output=True,
                               text=True, timeout=180)
    lines = completed.stdout.strip().splitlines()
    assert completed.returncode == 0 and lines, completed.stderr[-2000:]
    return json.loads(lines[-1])


def check_workloads(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(
                [sys.executable, "perfbench/run.py", "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--smoke"], ROOT)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            assert got == expected, (workload, trace,
                                     set(got) ^ set(expected))
            print(f"ok: {workload} --trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} attempted")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        assert completed.returncode != 0, completed
        assert not completed.stdout.strip(), completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: exits non-zero without the program under test")


def main() -> int:
    spec = _spec()
    check_spec(spec)
    print("ok: BENCHMARK.json matches run.py")
    check_bare_directory()
    check_workloads(spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
