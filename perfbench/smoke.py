"""Smoke test: every workload end to end at tiny sizes, traced and untraced.

    python3 perfbench/smoke.py

Checks that each run exits 0, reports correct outputs and at least one
attempted operation, and prints exactly the metric names and units that
BENCHMARK.json lists (end-to-end untraced, per-layer traced).  Exits 1 on
any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=300,
            )
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(expected[trace].keys() - got.keys())
                    extra = sorted(got.keys() - expected[trace].keys())
                    problems.append(f"metric names or units differ; missing {missing}, extra {extra}")
                if not result["correct"]:
                    problems.append("outputs not correct")
                if result["attempted"] < 1:
                    problems.append("no operation attempted")
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
