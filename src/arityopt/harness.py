"""Seeded experiment batches, summary statistics, curve fits, and file output.

Each trial derives its seed as base_seed + run_id, feeds it through
``np.random.SeedSequence`` (a splitmix-style scrambler), and splits it into
an instance stream and an algorithm stream.  Trials are therefore fully
independent, which makes results identical for any worker count: parallel
execution changes wall time, never output bytes.  The process pool is imported
only for ``workers`` > 1.  It gets the largest n first, since a trial's cost
rises with n, and its records are put back in run order.

Runs whose budget was hit are counted as failures in success_rate and
excluded from the query statistics, so one pathological run cannot skew a
fit silently.

Each output file is declared by one dataclass, whose fields are its columns
or keys in order (the CSV headers write ``class_name`` as ``class``):
``RunRecord`` the runs CSV, after a leading ``run_id``; ``SummaryRow`` the
summary CSV and the report JSON's summaries; the hidden instance classes
the instances JSON that ``cli`` writes.  Every CSV goes through
``_csv_text`` and every JSON file through ``write_json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .algorithms import ALGORITHMS, RunRecord, default_budget
from .algorithms import (  # noqa: F401  (_trial calls run_* by name)
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
    "summary_csv_text",
    "write_summaries",
    "write_json",
    "read_runs_csv",
    "output_stem",
    "RUNS_HEADER",
    "SUMMARY_HEADER",
    "FIT_MODELS",
]

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
    if cfg.base_seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.base_seed}")


def seed_trial(class_name: str, n: int, seed: int):
    """A trial's hidden instance and algorithm generator: ``seed`` is split
    into an instance stream and an algorithm stream."""
    inst_ss, alg_ss = np.random.SeedSequence(seed).spawn(2)
    return random_instance(class_name, n, inst_ss), np.random.default_rng(alg_ss)


def _trial(args) -> RunRecord:
    algorithm, class_name, n, k, seed, budget = args
    try:
        instance, rng = seed_trial(class_name, n, seed)
        # no history: a run keeps only the points its policy holds
        oracle = Oracle(instance, budget, keep_history=False)
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
    """Worker processes to start: no more than asked, tasks, or CPUs this process may run on.

    A fork-started pool creates every worker at once, so a huge ``workers``
    would otherwise fork that many processes.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1, n_tasks)


def _pool_trial(args):
    # A failure comes back as a value, so that the batch can raise the first in run order.
    try:
        return _trial(args)
    except TrialFailed as exc:
        return exc


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run trials x n_values seeded runs; deterministic for any worker count.

    A trial that raises is re-raised as ``TrialFailed``, naming its
    algorithm, class, n and seed, at any worker count: the first in run order.
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
        from concurrent.futures import ProcessPoolExecutor
        workers = pool_size(cfg.workers, len(tasks))
        chunk = max(1, len(tasks) // (8 * workers))
        largest_first = sorted(range(len(tasks)), key=lambda i: -tasks[i][2])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_pool_trial, [tasks[i] for i in largest_first], chunksize=chunk)
            records = [r for _, r in sorted(zip(largest_first, done), key=lambda p: p[0])]
        if failed := [r for r in records if isinstance(r, TrialFailed)]:
            raise failed[0]
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


def _header(cls, *first: str) -> str:
    names = ("class" if f.name == "class_name" else f.name for f in fields(cls))
    return ",".join([*first, *names])


RUNS_HEADER = _header(RunRecord, "run_id")
SUMMARY_HEADER = _header(SummaryRow)


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
        stats = (None,) * 5
        if done.size:
            stats = (float(done.mean()), float(done.std(ddof=1)) if done.size > 1 else 0.0,
                     float(np.median(done)), int(done.min()), int(done.max()))
        model = ALGORITHMS[algo].theory_model
        theory = model and theory_curve(model, n, k if model == "n_over_logk" else None)
        rows.append(SummaryRow(
            algo, cls, n, k, len(rs), *stats,
            sum(1 for r in rs if r.success) / len(rs),
            theory,
            stats[0] / theory if done.size and theory else None,
        ))
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
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return format(float(v), ".9g")


def _csv_text(header: str, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header.split(","))
    w.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write(path: str, text: str) -> str:
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def write_json(data, path: str) -> str:
    """``data`` as JSON with sorted keys and a fixed layout: identical
    inputs, identical bytes.  Returns ``path``."""
    return _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_runs_csv(records: list[RunRecord], path: str) -> None:
    base = min((r.seed for r in records), default=0)  # run 0's: run_id = seed - base_seed
    _write(path, _csv_text(RUNS_HEADER, ((r.seed - base, *astuple(r)) for r in records)))


def summary_csv_text(rows: list[SummaryRow]) -> str:
    return _csv_text(SUMMARY_HEADER, map(astuple, rows))


def write_summaries(summaries, csv_path: str, json_path: str) -> dict:
    """Write the summary CSV and the JSON report; returns their paths.
    ``fits`` is kept in the report's layout and always empty."""
    report = {"fits": {}, "summaries": [asdict(r) for r in summaries]}
    return {"summary": _write(csv_path, summary_csv_text(summaries)),
            "report": write_json(report, json_path)}


def read_runs_csv(path: str) -> list[RunRecord]:
    """Records of a runs CSV.  A wrong header, a row longer than it, an
    algorithm or class that no run can have, a non-integer run_id, n, k, seed
    or queries, an n below 1 or a negative run_id, k, seed or queries, a row
    its algorithm's ``check`` rejects, or a success or hit_budget other than
    ``true`` or ``false``, or both ``true``, is a ConfigError naming the file
    and the line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RUNS_HEADER.split(","):
            raise ConfigError(f"unexpected runs CSV header in {path}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row:
                raise ConfigError(f"{where}: more fields than the header's")
            if row["algorithm"] not in ALGORITHMS:
                raise ConfigError(f"{where}: unknown algorithm {row['algorithm']!r}")
            if row["class"] not in INSTANCE_CLASSES:
                raise ConfigError(f"{where}: unknown class {row['class']!r}")
            try:
                run_id, n, k, seed, queries = (int(row[c]) for c in ("run_id", "n", "k", "seed", "queries"))
            except (TypeError, ValueError):
                raise ConfigError(f"{where}: run_id, n, k, seed and queries must be integers") from None
            if n < 1 or min(run_id, k, seed, queries) < 0:
                raise ConfigError(
                    f"{where}: n must be positive, and run_id, k, seed and queries non-negative"
                )
            spec = ALGORITHMS[row["algorithm"]]
            try:  # a fixed-k algorithm's own k is checked as no k at all
                spec.check(row["class"], n, None if k == spec.k else k)
            except ValueError as e:
                raise ConfigError(f"{where}: {e}") from None
            flags = (row["success"], row["hit_budget"])
            if not {"true", "false"}.issuperset(flags) or flags == ("true", "true"):
                raise ConfigError(
                    f"{where}: success and hit_budget must be true or false, not both true"
                )
            success, hit_budget = (f == "true" for f in flags)
            records.append(RunRecord(spec.name, row["class"], n, k, seed, queries, success, hit_budget))
    return records


def output_stem(path: str) -> str:
    """``path`` without a trailing ``.csv``: the stem of the files written beside it."""
    return path[:-4] if path.endswith(".csv") else path


def emit_report(records, summaries, path: str) -> dict:
    """Write runs CSV, summary CSV, and a JSON report; returns their paths."""
    write_runs_csv(records, path)
    stem = output_stem(path)
    summary = write_summaries(summaries, stem + ".summary.csv", stem + ".report.json")
    return {"runs": path, **summary}
