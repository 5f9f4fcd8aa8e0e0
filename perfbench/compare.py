"""Collect repeated benchmark runs into a result file, and compare two of them.

    python3 perfbench/compare.py collect --out FILE [--traced]
    python3 perfbench/compare.py compare PARENT CHANGE

``collect`` runs ``run.py`` once for each of the seeds 1..REPEATS on every
workload in BENCHMARK.json, with its run length, and writes every result
line, every fingerprint, the medians and quartiles, and the metadata (nproc,
Python and numpy versions, commit, repeat count).  ``--traced`` adds one
traced run of seed 1 per workload.  ``compare`` prints, for every end-to-end metric and workload, both
medians, their ratio and whether the change stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REPEATS = 10


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def metadata(repeats: int, run_seconds: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "repeats": repeats,
        "run_seconds": run_seconds,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["log"] = lines[:-1]
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {name: quartiles([r["metrics"][name]["value"] for r in runs]) for name in names}


def collect(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"meta": metadata(REPEATS, seconds), "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, REPEATS + 1):
            r = run_once(name, seed, seconds, 0)
            runs.append(r)
            ok = ok and r["correct"]
            print(f"{name} seed={r['seed']} correct={r['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        entry = {"runs": runs, "summary": summarize(runs)}
        if args.traced:
            traced = run_once(name, 1, seconds, 1)
            ok = ok and traced["correct"]
            entry["traced"] = traced
        out["workloads"][name] = entry
        for metric, q in entry["summary"].items():
            flag = "" if q["spread"] <= bounds[metric] / 3 else "  (spread above a third of the bound)"
            print(f"  {metric:16s} median={q['median']:.6g} q1={q['q1']:.6g} q3={q['q3']:.6g} "
                  f"spread={q['spread']:.4f} bound={bounds[metric]}{flag}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def _fingerprints(entry: dict) -> dict:
    prints = {}
    for r in entry["runs"]:
        for line in r["log"]:
            if line.startswith("fingerprint "):
                prints[r["seed"]] = line
    return prints


def compare(args) -> int:
    spec = load_spec()
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    for label, res in (("parent", parent), ("change", change)):
        m = res["meta"]
        print(f"{label}: commit={m['commit']} nproc={m['nproc']} python={m['python']} "
              f"numpy={m['numpy']} repeats={m['repeats']} run_seconds={m['run_seconds']}")
    print(f"{'workload':14s} {'metric':16s} {'parent':>12s} {'change':>12s} {'ratio':>8s}  verdict")
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent["workloads"] or name not in change["workloads"]:
            print(f"{name:14s} missing from one of the files")
            continue
        ps, cs = parent["workloads"][name]["summary"], change["workloads"][name]["summary"]
        for m in spec["end_to_end"]:
            p, c = ps[m["name"]]["median"], cs[m["name"]]["median"]
            ratio = c / p
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            within = worse <= m["bound"]
            regressions += not within
            verdict = f"within bound {m['bound']}" if within else f"WORSE by more than {m['bound']}"
            print(f"{name:14s} {m['name']:16s} {p:12.6g} {c:12.6g} {ratio:8.4f}  {verdict}")
        pf, cf = _fingerprints(parent["workloads"][name]), _fingerprints(change["workloads"][name])
        shared = sorted(pf.keys() & cf.keys())
        moved = [s for s in shared if pf[s] != cf[s]]
        print(f"{name:14s} fingerprints: {len(shared) - len(moved)} of {len(shared)} shared seeds identical"
              + (f"; moved on seeds {moved}" if moved else ""))
    return 1 if regressions else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--traced", action="store_true", help="add one traced run per workload")
    d = sub.add_parser("compare")
    d.add_argument("parent")
    d.add_argument("change")
    args = p.parse_args(argv)
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
