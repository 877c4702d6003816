#!/usr/bin/env python3
"""Smoke check of the benchmark itself (under a minute).

    python3 bench/smoke.py

From the root of a dmmopt checkout, it checks that:

* every workload runs at tiny size with ``--trace 0`` and ``--trace 1``,
  passes its output checks and prints, on its last line, every metric
  named in BENCHMARK.json with its unit;
* a deliberately wrong golden makes every repetition of ``replay`` and
  ``search-par`` count as failed, with a nonzero exit status;
* in a directory holding only BENCHMARK.json and the benchmark's files
  (no dmmopt sources), the benchmark exits nonzero without a result.

Exit status 0 when every check holds; otherwise it lists what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_results" / "smoke"
TIMEOUT = 180


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result, stderr = run(["--workload", workload, "--trace", str(trace), "--tiny"])
            if result is None or code != 0:
                errors.append(f"{label}: exit {code}, no result\n{stderr}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{label}: checks failed: {result}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
            if got != expected:
                errors.append(f"{label}: metrics/units {got} differ from BENCHMARK.json {expected}")
            if trace == 0 and any(not entry["value"] > 0 for entry in result["metrics"].values()):
                errors.append(f"{label}: an end-to-end metric is not positive: {result['metrics']}")
            print(f"ok   {label}: {result['attempted']} repetitions")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    bad = json.loads((BENCH / "goldens.json").read_text("utf-8"))
    bad["tiny"]["replay"]["42"]["lea"][0] += 1
    bad["tiny"]["search"]["42"] = "0" * 64
    bad_path = SCRATCH / "wrong_goldens.json"
    bad_path.write_text(json.dumps(bad), "utf-8")
    for workload in ("replay", "search-par"):
        code, result, _ = run(["--workload", workload, "--tiny", "--goldens", str(bad_path)])
        if code == 0 or result is None or result["correct"] or result["failed"] != result["attempted"]:
            errors.append(f"{workload}: a wrong golden was not reported as failed: {code} {result}")
        else:
            print(f"ok   {workload}: wrong golden fails {result['failed']}/{result['attempted']}")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "replay", "--tiny"], cwd=bare)
    if code == 0 or result is not None:
        errors.append(f"without src/: exit {code}, result {result}")
    else:
        print(f"ok   without src/: exit {code}, no result")
    shutil.rmtree(bare)

    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
