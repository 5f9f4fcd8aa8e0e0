"""Seeded experiment batches, summary statistics, curve fits, and file output.

Each trial derives its seed as base_seed + run_id, feeds it through
``np.random.SeedSequence`` (a splitmix-style scrambler), and splits it into
an instance stream and an algorithm stream.  Trials are therefore fully
independent, which makes results identical for any worker count: parallel
execution changes wall time, never output bytes.

Runs whose budget was hit are counted as failures in success_rate and
excluded from the query statistics, so one pathological run cannot skew a
fit silently.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .algorithms import (  # noqa: F401  (_trial calls run_* by name)
    ALGORITHMS,
    RunRecord,
    default_budget,
    run_binary_leadingones,
    run_binary_onemax,
    run_kary_onemax,
    run_rls_baseline,
    run_star_ary_onemax,
)
from .bounds import theory_curve
from .problems import INSTANCE_CLASSES, Oracle, random_instance

__all__ = [
    "ConfigError",
    "TrialFailed",
    "ExperimentConfig",
    "SummaryRow",
    "run_experiment",
    "seed_trial",
    "pool_size",
    "summarize",
    "fit_curve",
    "emit_report",
    "write_runs_csv",
    "write_summary_csv",
    "summary_csv_text",
    "write_report_json",
    "read_runs_csv",
    "RUNS_HEADER",
    "SUMMARY_HEADER",
    "FIT_MODELS",
]

RUNS_HEADER = "run_id,algorithm,class,n,k,seed,queries,success,hit_budget"
SUMMARY_HEADER = (
    "algorithm,class,n,k,trials,mean_queries,std_queries,median_queries,"
    "min_queries,max_queries,success_rate,theory_value,ratio"
)

FIT_MODELS = ("a_n", "a_nlogn", "a_n_over_logk")

class ConfigError(ValueError):
    """Invalid experiment configuration, detected before any run starts."""


class TrialFailed(RuntimeError):
    """A trial raised; the message names the trial and the original error,
    which is also the ``__cause__`` where the trial ran in this process."""


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    class_name: str
    n_values: tuple[int, ...]
    trials: int
    base_seed: int = 0
    k: int | None = None
    budget: int | None = None
    workers: int = 1


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {cfg.algorithm!r}, expected one of {tuple(ALGORITHMS)}"
        )
    if cfg.class_name not in INSTANCE_CLASSES:
        raise ConfigError(
            f"unknown class {cfg.class_name!r}, expected one of {INSTANCE_CLASSES}"
        )
    if not cfg.n_values:
        raise ConfigError("at least one n value is required")
    for n in cfg.n_values:
        if n < 1:
            raise ConfigError(f"n must be positive, got {n}")
    try:
        ALGORITHMS[cfg.algorithm].check(cfg.class_name, max(cfg.n_values), cfg.k)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if cfg.trials < 1:
        raise ConfigError(f"trials must be positive, got {cfg.trials}")
    if cfg.budget is not None and cfg.budget < 1:
        raise ConfigError(f"budget must be positive, got {cfg.budget}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be positive, got {cfg.workers}")


def seed_trial(class_name: str, n: int, seed: int):
    """A trial's hidden instance and algorithm generator: ``seed`` is split
    into an instance stream and an algorithm stream."""
    inst_ss, alg_ss = np.random.SeedSequence(seed).spawn(2)
    return random_instance(class_name, n, inst_ss), np.random.default_rng(alg_ss)


def _trial(args) -> RunRecord:
    algorithm, class_name, n, k, seed, budget = args
    try:
        instance, rng = seed_trial(class_name, n, seed)
        oracle = Oracle(instance, budget)
        spec = ALGORITHMS[algorithm]
        # Looked up in this module's globals at call time, so that a wrapper
        # set on harness.run_* (a tracer, a test) sees every run.
        runner = globals()[spec.runner]
        if spec.k is None:
            return runner(n, k, oracle, rng, seed=seed)
        return runner(n, oracle, rng, seed=seed)
    except Exception as exc:
        raise TrialFailed(
            f"trial {algorithm} on {class_name} n={n} seed={seed} failed:"
            f" {type(exc).__name__}: {exc}"
        ) from exc


def pool_size(workers: int, n_tasks: int) -> int:
    """Worker processes to start: no more than asked, CPUs, or tasks.

    A fork-started pool creates every worker at once, so a huge ``workers``
    would otherwise fork that many processes.
    """
    return min(workers, os.cpu_count() or 1, n_tasks)


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run trials x n_values seeded runs; deterministic for any worker count.

    A trial that raises is re-raised as ``TrialFailed``, naming its
    algorithm, class, n and seed, at any worker count.
    """
    validate_config(cfg)
    tasks = []
    run_id = 0
    for n in cfg.n_values:
        budget = cfg.budget if cfg.budget is not None else default_budget(n)
        for _ in range(cfg.trials):
            tasks.append(
                (cfg.algorithm, cfg.class_name, n, cfg.k, cfg.base_seed + run_id, budget)
            )
            run_id += 1
    if cfg.workers == 1:
        records = [_trial(t) for t in tasks]
    else:
        workers = pool_size(cfg.workers, len(tasks))
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial, tasks, chunksize=chunk))
    return sorted(records, key=lambda r: r.n)


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    class_name: str
    n: int
    k: int
    trials: int
    mean_queries: float | None
    std_queries: float | None
    median_queries: float | None
    min_queries: int | None
    max_queries: int | None
    success_rate: float
    theory_value: float | None
    ratio: float | None


def _theory_for(algorithm: str, n: int, k: int) -> float | None:
    model = ALGORITHMS[algorithm].theory_model
    if model is None:
        return None
    return theory_curve(model, n, k if model == "n_over_logk" else None)


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """One row per (algorithm, class, n, k), in first-appearance order.

    Query statistics cover completed runs only; budget-hitting runs count as
    failures through success_rate.
    """
    groups: dict = {}
    for r in records:
        groups.setdefault((r.algorithm, r.class_name, r.n, r.k), []).append(r)
    rows = []
    for (algo, cls, n, k), rs in groups.items():
        done = np.array([r.queries for r in rs if not r.hit_budget], dtype=float)
        success = sum(1 for r in rs if r.success) / len(rs)
        theory = _theory_for(algo, n, k)
        if done.size:
            mean = float(done.mean())
            row = SummaryRow(
                algo, cls, n, k, len(rs),
                mean,
                float(done.std(ddof=1)) if done.size > 1 else 0.0,
                float(np.median(done)),
                int(done.min()),
                int(done.max()),
                success,
                theory,
                (mean / theory) if theory else None,
            )
        else:
            row = SummaryRow(
                algo, cls, n, k, len(rs),
                None, None, None, None, None, success, theory, None,
            )
        rows.append(row)
    return rows


def fit_curve(records: list[RunRecord], model: str) -> tuple[float, float]:
    """Least-squares fit of per-(n, k) mean queries to a * g(n, k).

    g is n, n*log2 n, or n/log2 k.  Returns (a, max relative deviation of
    the group means from the fit).  Needs at least 3 groups.
    """
    if model not in FIT_MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {FIT_MODELS}")
    groups: dict = {}
    for r in records:
        if not r.hit_budget:
            groups.setdefault((r.n, r.k), []).append(r.queries)
    if len(groups) < 3:
        raise ValueError(f"need at least 3 distinct (n, k) groups, got {len(groups)}")
    gs, ms = [], []
    for (n, k), qs in groups.items():
        if model == "a_n":
            g = float(n)
        elif model == "a_nlogn":
            if n < 2:
                raise ValueError(f"a_nlogn needs n >= 2 in records, got n={n}")
            g = n * math.log2(n)
        else:
            if k < 2:
                raise ValueError(f"a_n_over_logk needs k >= 2 in records, got k={k}")
            g = n / math.log2(k)
        gs.append(g)
        ms.append(float(np.mean(qs)))
    g = np.array(gs)
    m = np.array(ms)
    a = float((m * g).sum() / (g * g).sum())
    residual = float(np.max(np.abs(m - a * g) / (a * g)))
    return a, residual


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".9g")


def write_runs_csv(records: list[RunRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RUNS_HEADER.split(","))
        for i, r in enumerate(records):
            w.writerow(
                [i, r.algorithm, r.class_name, r.n, r.k, r.seed, r.queries,
                 _fmt(r.success), _fmt(r.hit_budget)]
            )


def _write_summary(fh, rows: list[SummaryRow]) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(SUMMARY_HEADER.split(","))
    for r in rows:
        w.writerow(
            [r.algorithm, r.class_name, r.n, r.k, r.trials,
             _fmt(r.mean_queries), _fmt(r.std_queries), _fmt(r.median_queries),
             _fmt(r.min_queries), _fmt(r.max_queries), _fmt(r.success_rate),
             _fmt(r.theory_value), _fmt(r.ratio)]
        )


def write_summary_csv(rows: list[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        _write_summary(fh, rows)


def summary_csv_text(rows: list[SummaryRow]) -> str:
    buf = io.StringIO()
    _write_summary(buf, rows)
    return buf.getvalue()


def read_runs_csv(path: str) -> list[RunRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RUNS_HEADER.split(","):
            raise ValueError(f"unexpected runs CSV header in {path}")
        for row in reader:
            records.append(
                RunRecord(
                    row["algorithm"], row["class"], int(row["n"]), int(row["k"]),
                    int(row["seed"]), int(row["queries"]),
                    row["success"] == "true", row["hit_budget"] == "true",
                )
            )
    return records


def _report_paths(path: str) -> tuple[str, str, str]:
    base = path[:-4] if path.endswith(".csv") else path
    return path, base + ".summary.csv", base + ".report.json"


def write_report_json(summaries, fits: dict, path: str) -> None:
    """JSON report with sorted keys and fixed layout: identical inputs,
    identical bytes.  ``fits`` maps model name to (a, residual)."""
    report = {
        "fits": {model: {"a": a, "residual": res} for model, (a, res) in fits.items()},
        "summaries": [
            {f.name: getattr(r, f.name) for f in fields(SummaryRow)} for r in summaries
        ],
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(records, summaries, fits: dict, path: str) -> dict:
    """Write runs CSV, summary CSV, and a JSON report; returns their paths."""
    runs_path, summary_path, json_path = _report_paths(path)
    write_runs_csv(records, runs_path)
    write_summary_csv(summaries, summary_path)
    write_report_json(summaries, fits, json_path)
    return {"runs": runs_path, "summary": summary_path, "report": json_path}
