"""Experiment batches, summaries, fits, and file round trips."""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from arityopt import harness, unbiasedness
from arityopt.algorithms import ALGORITHMS, RunRecord
from arityopt.harness import (
    RUNS_HEADER,
    SUMMARY_HEADER,
    ConfigError,
    ExperimentConfig,
    TrialFailed,
    emit_report,
    fit_curve,
    pool_size,
    read_runs_csv,
    run_experiment,
    summarize,
    summary_csv_text,
    validate_config,
    write_runs_csv,
)


def cfg(**kwargs) -> ExperimentConfig:
    base = dict(
        algorithm="binary_onemax",
        class_name="onemax",
        n_values=(16,),
        trials=3,
        base_seed=0,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def synthetic_records(groups, algorithm="binary_onemax", class_name="onemax", k=2):
    records = []
    i = 0
    for (n, queries_list) in groups:
        for q in queries_list:
            records.append(
                RunRecord(algorithm, class_name, n, k, i, q, True, False)
            )
            i += 1
    return records


# Seeded query counts: algorithm, class, n values, k, base seed, total
# queries over 20 trials per n, and the first five runs' counts.
PINNED_COUNTS = [
    ("binary_leadingones", "leadingones", (32, 64), None, 505, 42488, [603, 573, 589, 665, 681]),
    ("rls", "leadingones", (32, 64), None, 606, 48866, [495, 913, 770, 330, 371]),
    ("binary_onemax", "onemax", (32, 64), None, 101, 3808, [63, 58, 67, 61, 62]),
    ("binary_onemax", "monotone", (32, 64), None, 202, 3933, [61, 70, 68, 79, 56]),
    ("star_ary_onemax", "onemax", (8, 16), None, 303, 845, [18, 18, 18, 18, 18]),
    ("kary_onemax", "onemax", (60,), 4, 404, 2314, [106, 124, 112, 115, 124]),
    ("rls", "onemax", (32, 64), None, 707, 7299, [98, 65, 150, 118, 119]),
]


class TestValidateConfig:
    def test_valid_passes(self):
        validate_config(cfg())

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            validate_config(cfg(algorithm="simulated_annealing"))

    def test_unknown_class(self):
        with pytest.raises(ConfigError):
            validate_config(cfg(class_name="jump"))

    def test_incompatible_combination(self):
        with pytest.raises(ConfigError):
            validate_config(cfg(algorithm="binary_leadingones", class_name="onemax"))
        with pytest.raises(ConfigError):
            validate_config(cfg(algorithm="star_ary_onemax", class_name="monotone"))

    def test_kary_needs_k(self):
        with pytest.raises(ConfigError):
            validate_config(cfg(algorithm="kary_onemax"))
        validate_config(cfg(algorithm="kary_onemax", k=4))

    def test_fixed_arity_rejects_k(self):
        for algorithm, class_name in (
            ("binary_onemax", "onemax"), ("star_ary_onemax", "onemax"),
            ("binary_leadingones", "leadingones"), ("rls", "leadingones"),
        ):
            with pytest.raises(ConfigError, match="only kary_onemax takes k"):
                validate_config(cfg(algorithm=algorithm, class_name=class_name, n_values=(8,), k=7))
        with pytest.raises(ConfigError):
            validate_config(cfg(k=2))

    def test_star_ary_size_limit(self):
        with pytest.raises(ConfigError):
            validate_config(cfg(algorithm="star_ary_onemax", n_values=(25,)))

    def test_positive_counts(self):
        with pytest.raises(ConfigError):
            validate_config(cfg(trials=0))
        with pytest.raises(ConfigError):
            validate_config(cfg(n_values=()))
        with pytest.raises(ConfigError):
            validate_config(cfg(workers=0))

    def test_seed_is_non_negative(self):
        validate_config(cfg(base_seed=0))
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            validate_config(cfg(base_seed=-1))
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            run_experiment(cfg(base_seed=-5))


class TestRunExperiment:
    def test_row_count_and_seeds(self):
        records = run_experiment(cfg(n_values=(8, 16), trials=3, base_seed=100))
        assert len(records) == 6
        assert [r.seed for r in records] == [100, 101, 102, 103, 104, 105]
        assert [r.n for r in records] == [8, 8, 8, 16, 16, 16]

    def test_rows_sorted_by_n(self):
        records = run_experiment(cfg(n_values=(16, 8), trials=2))
        assert [r.n for r in records] == [8, 8, 16, 16]

    def test_workers_do_not_change_results(self):
        c1 = cfg(n_values=(12, 20), trials=4, workers=1)
        c2 = cfg(n_values=(12, 20), trials=4, workers=3)
        assert run_experiment(c1) == run_experiment(c2)

    def test_pool_size_is_clamped(self):
        # pure arithmetic: no pool is opened here
        assert 1 <= pool_size(10**6, 3) <= 3
        assert 1 <= pool_size(10**6, 10**6) <= (os.cpu_count() or 1)
        assert pool_size(1, 100) == 1
        assert pool_size(2, 1) == 1

    def test_failed_trial_is_named(self, monkeypatch):
        # workers=1: the trial runs in this process and no pool is opened
        real = harness.run_rls_baseline

        def fail_on_seed_12(n, oracle, rng, seed):
            if seed == 12:
                raise ZeroDivisionError("injected")
            return real(n, oracle, rng, seed=seed)

        monkeypatch.setattr(harness, "run_rls_baseline", fail_on_seed_12)
        c = cfg(algorithm="rls", class_name="leadingones", n_values=(6,), trials=4, base_seed=10)
        with pytest.raises(TrialFailed) as info:
            run_experiment(c)
        message = "trial rls on leadingones n=6 seed=12 failed: ZeroDivisionError: injected"
        assert str(info.value) == message
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        # a pool sends the exception back pickled
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is TrialFailed and str(copy) == message

    def test_deterministic_across_calls(self):
        c = cfg(algorithm="rls", class_name="leadingones", n_values=(10,), trials=5)
        assert run_experiment(c) == run_experiment(c)

    def test_budget_propagates(self):
        records = run_experiment(cfg(n_values=(30,), trials=4, budget=3))
        assert all(r.hit_budget and r.queries == 3 for r in records)

    @pytest.mark.parametrize(
        "algorithm, class_name, n_values, k, base_seed, total, first_five",
        PINNED_COUNTS,
        # ids name a row by algorithm, seed, total and row index, as they did
        # when the table held only the two leadingones rows
        ids=[f"{r[0]}-{r[4]}-{r[5]}-first_five{i}" for i, r in enumerate(PINNED_COUNTS)],
    )
    def test_seeded_query_counts_are_pinned(
        self, algorithm, class_name, n_values, k, base_seed, total, first_five
    ):
        # Recorded before the engine's bookkeeping and the algorithm registry
        # were reworked: neither may change any operator draw, and so any
        # seeded query count.
        records = run_experiment(cfg(
            algorithm=algorithm, class_name=class_name,
            n_values=n_values, k=k, trials=20, base_seed=base_seed,
        ))
        assert all(r.success for r in records)
        assert sum(r.queries for r in records) == total
        assert [r.queries for r in records[:5]] == first_five


def load_tracing():
    """perfbench/tracing.py, loaded as it is from the file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerBoundaries:
    def test_every_run_crosses_the_traced_boundaries(self):
        # The benchmark's tracer wraps harness.run_* and
        # harness.random_instance; a harness that reached them any other way
        # would read 0 runs and 0 instances without an error.
        configs = [
            cfg(algorithm=name, class_name=class_name, n_values=(6,), trials=2,
                k=4 if spec.k is None else None)
            for name, spec in ALGORITHMS.items()
            for class_name in spec.classes
        ]
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            runs = sum(len(harness.run_experiment(c)) for c in configs)
        finally:
            tracer.restore()
        assert runs == 2 * len(configs) == 14
        assert tracer.stats["algorithms.policy"][0] == runs
        assert tracer.stats["problems.random_instance"][0] == runs
        assert tracer.stats["harness"][0] == len(configs)
        assert harness.run_rls_baseline.__module__ == "arityopt.algorithms"

    @pytest.mark.parametrize("mode", ["exact", "statistical"])
    def test_every_certification_crosses_the_traced_boundaries(self, mode):
        # The tracer times a certification at unbiasedness.certify_operator
        # and, in statistical mode, each sampled output at
        # unbiasedness.sample_operator; a certifier that bypassed either
        # would read 0 without an error.
        tracing = load_tracing()
        tracer = tracing.Tracer()
        rng = np.random.default_rng(0)
        tracer.install()
        try:
            for family in tracing.CERT_FAMILIES:
                unbiasedness.certify_operator(family, 6, 1, rng, mode=mode)
        finally:
            tracer.restore()
        for family in tracing.CERT_FAMILIES:
            assert tracer.stats["unbiasedness.certify." + family][0] == 1
        if mode == "statistical":
            # 2,000 samples on each side of the two-sample comparison
            for family in unbiasedness.SHIPPED_OPERATOR_FAMILIES:
                assert tracer.stats["operators." + family][0] == 4000


class TestSummarize:
    def test_group_statistics(self):
        records = synthetic_records([(8, [10, 12, 14]), (16, [30, 34, 38])])
        rows = summarize(records)
        assert len(rows) == 2
        first = rows[0]
        assert (first.n, first.trials) == (8, 3)
        assert first.mean_queries == pytest.approx(12.0)
        assert first.std_queries == pytest.approx(2.0)
        assert first.median_queries == pytest.approx(12.0)
        assert (first.min_queries, first.max_queries) == (10, 14)
        assert first.success_rate == 1.0
        assert first.theory_value == pytest.approx(16.0)
        assert first.ratio == pytest.approx(12.0 / 16.0)

    def test_one_pass_two_pass_agreement(self):
        rng = np.random.default_rng(0)
        qs = [int(q) for q in rng.integers(50, 5000, size=200)]
        rows = summarize(synthetic_records([(64, qs)]))
        mean = sum(qs) / len(qs)
        # Welford one-pass variance, as an independent recomputation
        m, s = 0.0, 0.0
        for i, q in enumerate(qs, start=1):
            d = q - m
            m += d / i
            s += d * (q - m)
        std = math.sqrt(s / (len(qs) - 1))
        assert rows[0].mean_queries == pytest.approx(mean, abs=1e-9)
        assert rows[0].std_queries == pytest.approx(std, rel=1e-9)

    def test_budget_hits_excluded_from_stats(self):
        records = synthetic_records([(8, [10, 14])])
        records.append(RunRecord("binary_onemax", "onemax", 8, 2, 99, 1000, False, True))
        row = summarize(records)[0]
        assert row.trials == 3
        assert row.mean_queries == pytest.approx(12.0)
        assert row.max_queries == 14
        assert row.success_rate == pytest.approx(2 / 3)

    def test_all_budget_hits_give_empty_stats(self):
        records = [RunRecord("rls", "onemax", 8, 1, 0, 800, False, True)]
        row = summarize(records)[0]
        assert row.mean_queries is None
        assert row.ratio is None
        assert row.success_rate == 0.0

    def test_rls_has_no_theory_column(self):
        records = synthetic_records([(8, [10])], algorithm="rls", k=1)
        row = summarize(records)[0]
        assert row.theory_value is None
        assert row.ratio is None


class TestFitCurve:
    def test_exact_linear_recovery(self):
        records = synthetic_records([(10, [20]), (20, [40]), (40, [80])])
        a, residual = fit_curve(records, "a_n")
        assert a == pytest.approx(2.0)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_nlogn_recovery(self):
        groups = [(n, [3 * n * math.log2(n)]) for n in (16, 64, 256)]
        records = synthetic_records(groups)
        a, residual = fit_curve(records, "a_nlogn")
        assert a == pytest.approx(3.0)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_n_over_logk_uses_k(self):
        records = []
        for i, k in enumerate((4, 8, 16)):
            records.append(
                RunRecord("kary_onemax", "onemax", 60, k, i, round(5 * 60 / math.log2(k)), True, False)
            )
        a, residual = fit_curve(records, "a_n_over_logk")
        assert a == pytest.approx(5.0, rel=0.01)
        assert residual < 0.01

    def test_nlogn_rejects_n1_group(self):
        # n = 1 gives g = n log2 n = 0, which no coefficient can fit
        records = synthetic_records([(1, [1]), (8, [24]), (16, [64])])
        with pytest.raises(ValueError, match="n=1"):
            fit_curve(records, "a_nlogn")

    def test_needs_three_groups(self):
        records = synthetic_records([(10, [20]), (20, [40])])
        with pytest.raises(ValueError):
            fit_curve(records, "a_n")

    def test_unknown_model(self):
        records = synthetic_records([(10, [20]), (20, [40]), (30, [60])])
        with pytest.raises(ValueError):
            fit_curve(records, "a_exp")

    def test_budget_hits_excluded(self):
        records = synthetic_records([(10, [20]), (20, [40]), (40, [80])])
        records.append(RunRecord("binary_onemax", "onemax", 40, 2, 9, 10_000, False, True))
        a, _ = fit_curve(records, "a_n")
        assert a == pytest.approx(2.0)


class TestFileRoundTrips:
    def test_runs_csv_header_and_round_trip(self, tmp_path):
        records = synthetic_records([(8, [10, 12]), (16, [30])])
        path = str(tmp_path / "runs.csv")
        write_runs_csv(records, path)
        with open(path) as fh:
            assert fh.readline().rstrip("\n") == RUNS_HEADER
        assert read_runs_csv(path) == records

    def test_runs_csv_booleans_lowercase(self, tmp_path):
        records = [RunRecord("rls", "onemax", 4, 1, 0, 9, True, False)]
        path = str(tmp_path / "runs.csv")
        write_runs_csv(records, path)
        text = open(path).read()
        assert ",true,false" in text
        assert "True" not in text

    def test_summary_header_exact(self):
        text = summary_csv_text(summarize(synthetic_records([(8, [10])])))
        assert text.splitlines()[0] == SUMMARY_HEADER

    def test_headers_are_the_readme_schemas(self):
        # Derived from the dataclass fields, so pinned here as literals: a
        # reordered or renamed field changes the files and fails this test.
        runs = "run_id,algorithm,class,n,k,seed,queries,success,hit_budget"
        summary = (
            "algorithm,class,n,k,trials,mean_queries,std_queries,median_queries,"
            "min_queries,max_queries,success_rate,theory_value,ratio"
        )
        assert (RUNS_HEADER, SUMMARY_HEADER) == (runs, summary)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        assert runs in readme
        assert summary in readme

    def test_empty_records_still_write_headers(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        paths = emit_report([], [], path)
        assert open(paths["runs"]).read().rstrip("\n") == RUNS_HEADER
        assert open(paths["summary"]).read().rstrip("\n") == SUMMARY_HEADER
        assert json.load(open(paths["report"])) == {"fits": {}, "summaries": []}

    def test_report_json_structure(self, tmp_path):
        records = synthetic_records([(10, [20]), (20, [40]), (40, [80])])
        paths = emit_report(records, summarize(records), str(tmp_path / "out.csv"))
        data = json.load(open(paths["report"]))
        assert data["fits"] == {}
        assert len(data["summaries"]) == 3
        assert data["summaries"][0]["theory_value"] == pytest.approx(20.0)

    def test_nine_significant_digits(self, tmp_path):
        records = [
            RunRecord("binary_onemax", "onemax", 3, 2, i, q, True, False)
            for i, q in enumerate((10, 11, 13))
        ]
        path = str(tmp_path / "digits.csv")
        emit_report(records, summarize(records), path)
        with open(str(tmp_path / "digits.summary.csv")) as fh:
            row = list(csv.DictReader(fh))[0]
        # mean 34/3 rendered to 9 significant digits
        assert row["mean_queries"] == "11.3333333"

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_runs_csv(str(path))

    @pytest.mark.parametrize("row,complaint", [
        ("0,foo,onemax,8,2,0,9,true,false", "unknown algorithm 'foo'"),
        ("0,rls,plateau,8,1,0,9,true,false", "unknown class 'plateau'"),
        ("0,rls,onemax,8.5,1,0,9,true,false", "must be integers"),
        ("0,rls,onemax,8,x,0,9,true,false", "must be integers"),
        ("0,rls,onemax,8,1,,9,true,false", "must be integers"),
        ("0,rls,onemax,8,1,0,nine,true,false", "must be integers"),
        ("0,rls,onemax,8", "must be integers"),
        ("0,rls,onemax,8,1,0,9,True,False", "must be true or false"),
        ("0,rls,onemax,8,1,0,9,true,no", "must be true or false"),
        ("0,rls,onemax,8,1,0,9,true,false,extra", "more fields than the header's"),
        ("0,rls,onemax,8,1,0,9,true,false,", "more fields than the header's"),
        ("0,rls,onemax,-5,1,0,9,true,false", "n must be positive"),
        ("0,rls,onemax,0,1,0,9,true,false", "n must be positive"),
        ("0,rls,onemax,8,-1,0,9,true,false", "k, seed and queries non-negative"),
        ("0,rls,onemax,8,1,-1,9,true,false", "k, seed and queries non-negative"),
        ("0,rls,onemax,8,1,0,-9,true,false", "k, seed and queries non-negative"),
        ("0,rls,onemax,8,1,0,9,true,true", "not both true"),
        (",rls,onemax,8,1,0,9,true,false", "must be integers"),
        ("banana,rls,onemax,8,1,0,9,true,false", "must be integers"),
        ("-1,rls,onemax,8,1,0,9,true,false", "run_id, k, seed and queries non-negative"),
        ("0,rls,onemax,8,57,0,9,true,false", "rls fixes k = 1"),
        ("0,binary_onemax,onemax,8,1,0,9,true,false", "binary_onemax fixes k = 2"),
        ("0,star_ary_onemax,onemax,8,2,0,9,true,false", "star_ary_onemax fixes k = 0"),
        ("0,kary_onemax,onemax,8,2,0,9,true,false", "requires 3 <= k <= 24"),
        ("0,kary_onemax,onemax,60,25,0,9,true,false", "requires 3 <= k <= 24"),
        ("0,rls,monotone,8,1,0,9,true,false", "does not run on class monotone"),
        ("0,binary_leadingones,onemax,8,2,0,9,true,false", "does not run on class onemax"),
        ("0,star_ary_onemax,onemax,25,0,0,9,true,false", "n must be <= 24"),
    ])
    def test_read_rejects_bad_rows_naming_file_and_line(self, tmp_path, row, complaint):
        path = str(tmp_path / "bad.csv")
        good = "0,rls,onemax,8,1,0,9,true,false"
        with open(path, "w") as fh:
            fh.write("\n".join([RUNS_HEADER, good, row]) + "\n")
        with pytest.raises(ConfigError) as err:
            read_runs_csv(path)
        assert f"{path}, line 3: " in str(err.value)
        assert complaint in str(err.value)

    def test_emitted_files_are_deterministic(self, tmp_path):
        records = synthetic_records([(8, [10, 12])])
        p1 = str(tmp_path / "r1.csv")
        p2 = str(tmp_path / "r2.csv")
        emit_report(records, summarize(records), p1)
        emit_report(records, summarize(records), p2)
        assert open(p1).read() == open(p2).read()
        assert (
            open(str(tmp_path / "r1.report.json")).read()
            == open(str(tmp_path / "r2.report.json")).read()
        )
