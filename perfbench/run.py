"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: pair_descent, leadingones, consistency, certify (see README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--smoke`` swaps in tiny inputs and skips
the property bands, which hold only at full size.  The program is imported
from ``src/`` next to this directory; without it the script exits with 1.

Untraced runs follow every timed operation with one call of a fixed
calibration kernel (``calibrate.py``) and report times as the program's time
over the kernel's, at the kernel's reference speed.  Set-up is timed in fresh
processes, alternating with processes that only import the program's
third-party dependencies, and reported as the ratio of the two.  The
machine's own speed drifts by tens of percent over minutes; the ratios
cancel it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PAIRS = 3
MIN_TIMED_ROUNDS = 3
# Replays above this n cost as much as half a round; they are left out.
REPLAY_MAX_N = 4096

# Process start until the program is imported and the workload's operations
# are built.
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import arityopt as pkg, arityopt.cli
import workloads
workloads.build({name!r}, {seed!r}, {smoke!r}).ops(pkg)
print(time.monotonic(), flush=True)
"""

# The reference for set-up: process start until the third-party packages the
# program imports are loaded.  They are most of the program's set-up.
_SETUP_REFERENCE = """\
import time
import numpy
from scipy import special, stats
print(time.monotonic(), flush=True)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, no property bands")
    return p.parse_args(argv)


def import_program():
    """Import the program from ``src/``; returns (package, import time)."""
    if not (SRC / "arityopt" / "__init__.py").is_file():
        raise SystemExit(f"run.py: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import arityopt
    import arityopt.cli  # noqa: F401  (not loaded by the package itself)

    return arityopt, time.perf_counter() - t0


def _ready_s(code: str) -> float:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def measure_setup(name: str, seed: int, smoke: bool):
    """Start-to-ready time of the program over that of the reference, in
    pairs of fresh processes whose order alternates; returns (median ratio,
    raw program times, raw reference times)."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, smoke=smoke)
    prog, ref = [], []
    for i in range(SETUP_PAIRS):
        if i % 2:
            prog.append(_ready_s(code))
            ref.append(_ready_s(_SETUP_REFERENCE))
        else:
            ref.append(_ready_s(_SETUP_REFERENCE))
            prog.append(_ready_s(code))
    return statistics.median(p / r for p, r in zip(prog, ref)), prog, ref


def traced_rounds(workload, program, tracer, seconds: float):
    """One untimed round, then an untraced and a traced round in turn while
    the next pair fits in ``seconds`` (at least one pair), so that the
    machine's drift falls on both kinds alike.

    Returns (untraced round times, traced round times, outcome, whether
    every round gave it).
    """
    ops = workload.ops(program)
    clock = time.perf_counter
    start = clock()
    outcome = workload.run_round(program, ops)
    same = True
    plain, traced = [], []
    while True:
        t0 = clock()
        same = workload.run_round(program, ops) == outcome and same
        plain.append(clock() - t0)
        tracer.install()
        try:
            t0 = clock()
            same = workload.run_round(program, ops) == outcome and same
            traced.append(clock() - t0)
        finally:
            tracer.restore()
        if clock() - start + plain[-1] + traced[-1] > seconds:
            return plain, traced, outcome, same


def calibrated_rounds(workload, program, seconds: float):
    """One round for the outcome and the peak-memory reading, then timed
    rounds, each operation followed by one kernel call, while the next round
    fits in ``seconds`` (at least ``MIN_TIMED_ROUNDS``).

    Returns (outcome, whether every round agreed, peak RSS in MiB, per-round
    program time, per-round kernel time).
    """
    start = time.perf_counter()
    ops = workload.ops(program)
    outcome = workload.run_round(program, ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    same = True
    prog_walls, kernel_walls = [], []
    clock = time.perf_counter
    while True:
        results = []
        tp = tk = 0.0
        for op in ops:
            t0 = clock()
            results.append(workload.run_op(program, op))
            t1 = clock()
            calibrate.kernel()
            tp += t1 - t0
            tk += clock() - t1
        same = same and workload.assemble(results) == outcome
        prog_walls.append(tp)
        kernel_walls.append(tk)
        if len(prog_walls) >= MIN_TIMED_ROUNDS and clock() - start + tp + tk > seconds:
            return outcome, same, peak_mb, prog_walls, kernel_walls


def check(workload, outcome, seed: int, smoke: bool) -> list[str]:
    """Every correctness check of the workload's outputs; returns the failures."""
    import reference

    errors = [] if smoke else workload.check_properties(outcome)
    if workload.name in ("consistency", "certify"):
        errors += reference.verify_consistent_sets(seed)
    if workload.name != "certify":
        replay_errors, replays = reference.verify_replays(workload, outcome, REPLAY_MAX_N)
        errors += replay_errors
        errors += reference.verify_workers(workload, outcome)
        print(f"checks: {replays} replays against the reference evaluators")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    program, import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}")
    workload = workloads.build(args.workload, args.seed, args.smoke)
    errors = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced, outcome, same = traced_rounds(workload, program, tracer, args.seconds)
        rounds = 1 + len(plain) + len(traced)
        metrics = tracer.metrics(len(traced))
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    else:
        setup_ratio, setup_prog, setup_ref = measure_setup(args.workload, args.seed, args.smoke)
        outcome, same, peak_mb, prog, kern = calibrated_rounds(workload, program, args.seconds)
        rounds = 1 + len(prog)
        queries = workload.queries(outcome)
        # Kernel calls per round: one per operation.
        ratio = statistics.median(p / k for p, k in zip(prog, kern))
        wall_s = ratio * workload.ops_per_round * workloads.KERNEL_S_REF
        print(f"raw: program_wall_s={statistics.median(prog)!r} kernel_s={statistics.median(kern)!r} "
              f"ratio={ratio!r} timed_rounds={len(prog)} setup_s={statistics.median(setup_prog)!r} "
              f"setup_reference_s={statistics.median(setup_ref)!r} setup_ratio={setup_ratio!r}")
        metrics = {
            "setup_s": (setup_ratio * workloads.SETUP_REFERENCE_S_REF, "s"),
            "wall_s": (wall_s, "s"),
            "us_per_query": (wall_s * 1e6 / queries, "us"),
            "queries_per_run": (workload.queries_per_run(outcome), "queries"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    if not same:
        errors.append("rounds with identical inputs gave different outputs")
    errors += check(workload, outcome, args.seed, args.smoke)
    print(
        f"fingerprint workload={workload.name} seed={args.seed} "
        f"total_queries={workload.queries(outcome)} digest={workload.digest(program, outcome, OUT_DIR)}"
    )
    for e in errors:
        print(f"check failed: {e}")
    result = {
        "correct": not errors,
        "attempted": workload.ops_per_round * rounds,
        "failed": workload.failed(outcome) * rounds,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
