"""End-to-end acceptance checks, one per shipped capability.

Each criterion prints one summary line (visible with ``pytest -s`` or in the
captured output).  Heavy batches live in session-scoped fixtures so a single
expensive run backs every assertion on it.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from arityopt.bitcore import BitString
from arityopt.bounds import round_count
from arityopt.consistency import ConsistencyQuery, consistent_set
from arityopt.harness import ExperimentConfig, fit_curve, run_experiment, summarize
from arityopt.operators import choose_consistent_id, sample_operator
from arityopt.problems import Oracle, random_instance
from arityopt.unbiasedness import (
    NEGATIVE_CONTROL_NAME,
    SHIPPED_OPERATOR_FAMILIES,
    certify_operator,
)

ALPHA = 1e-3


def announce(num: int, label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\ncriterion {num} [{label}]: {verdict} ({detail})")


def timed_batch(**kwargs):
    cfg = ExperimentConfig(**kwargs)
    t0 = time.perf_counter()
    records = run_experiment(cfg)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def binary_onemax_batch():
    return timed_batch(
        algorithm="binary_onemax", class_name="onemax",
        n_values=(200,), trials=1000, base_seed=101,
    )


@pytest.fixture(scope="session")
def monotone_batch():
    return timed_batch(
        algorithm="binary_onemax", class_name="monotone",
        n_values=(200,), trials=1000, base_seed=202,
    )


@pytest.fixture(scope="session")
def star_ary_batch():
    t = round_count(16)
    return timed_batch(
        algorithm="star_ary_onemax", class_name="onemax",
        n_values=(16,), trials=1000, base_seed=303, budget=50 * t,
    )


@pytest.fixture(scope="session")
def kary_batches():
    t0 = time.perf_counter()
    by_k = {}
    for k in (4, 8, 16):
        records = run_experiment(
            ExperimentConfig(
                algorithm="kary_onemax", class_name="onemax",
                n_values=(60,), trials=200, base_seed=404 + k, k=k,
            )
        )
        by_k[k] = records
    return by_k, time.perf_counter() - t0


@pytest.fixture(scope="session")
def leadingones_batch():
    return timed_batch(
        algorithm="binary_leadingones", class_name="leadingones",
        n_values=(64, 128, 256), trials=500, base_seed=505,
    )


@pytest.fixture(scope="session")
def rls_leadingones_batch():
    return timed_batch(
        algorithm="rls", class_name="leadingones",
        n_values=(64, 128, 256), trials=200, base_seed=606,
    )


def test_criterion_1_binary_onemax_mean_and_tail(binary_onemax_batch):
    records, elapsed = binary_onemax_batch
    queries = np.array([r.queries for r in records])
    success = all(r.success for r in records)
    ratio = float(queries.mean()) / 400.0
    worst = int(queries.max())
    detail = (
        f"mean/2n={ratio:.4f}, max={worst}, success={success}, {elapsed:.1f}s"
    )
    passed = 0.95 <= ratio <= 1.05 and worst <= 1200 and success and elapsed < 10
    announce(1, "binary OneMax linear cost", passed, detail)
    assert 0.95 <= ratio <= 1.05
    assert worst <= 3 * 400
    assert success
    assert elapsed < 10


def test_criterion_2_monotone_linear_cost(monotone_batch):
    records, elapsed = monotone_batch
    queries = np.array([r.queries for r in records])
    success = all(r.success for r in records)
    ratio = float(queries.mean()) / 400.0
    detail = f"mean/2n={ratio:.4f}, success={success}, {elapsed:.1f}s"
    passed = 0.9 <= ratio <= 1.1 and success
    announce(2, "monotone class linear cost", passed, detail)
    assert 0.9 <= ratio <= 1.1
    assert success


def test_criterion_3_star_ary_round_structure(star_ary_batch):
    records, elapsed = star_ary_batch
    t = round_count(16)
    queries = np.array([r.queries for r in records])
    success = all(r.success for r in records)
    mean = float(queries.mean())
    first_round = float((queries <= t + 1).mean())
    detail = (
        f"t={t}, mean={mean:.2f} (limit {3 * t}), first-round={first_round:.3f},"
        f" success={success}, {elapsed:.1f}s"
    )
    passed = success and mean <= 3 * t and first_round >= 0.5
    announce(3, "star-ary OneMax sampling", passed, detail)
    assert success
    assert mean <= 3 * t
    assert first_round >= 0.5


def test_criterion_4_kary_scaling_in_k(kary_batches):
    by_k, elapsed = kary_batches
    success = all(r.success for records in by_k.values() for r in records)
    means = {
        k: float(np.mean([r.queries for r in records]))
        for k, records in by_k.items()
    }
    decreasing = means[4] > means[8] > means[16]
    all_records = [r for records in by_k.values() for r in records]
    a, residual = fit_curve(all_records, "a_n_over_logk")
    detail = (
        f"means={means[4]:.1f}/{means[8]:.1f}/{means[16]:.1f},"
        f" a={a:.2f}, residual={residual:.3f}, success={success}, {elapsed:.1f}s"
    )
    passed = success and decreasing and residual <= 0.35 and elapsed < 60
    announce(4, "k-ary OneMax scaling", passed, detail)
    assert success
    assert decreasing
    assert residual <= 0.35
    assert elapsed < 60


def test_criterion_5_leadingones_scaling(leadingones_batch, rls_leadingones_batch):
    records, elapsed = leadingones_batch
    rls_records, rls_elapsed = rls_leadingones_batch
    success = all(r.success for r in records)
    means = {
        row.n: row.mean_queries for row in summarize(records)
    }
    _, residual = fit_curve(records, "a_nlogn")
    ratios = [means[n] / (n * math.log2(n)) for n in (64, 128, 256)]
    spread = max(ratios) / min(ratios) - 1.0
    rls_means = {row.n: row.mean_queries for row in summarize(rls_records)}
    rls_ratios = [rls_means[n] / n**2 for n in (64, 128, 256)]
    rls_center = sum(rls_ratios) / 3
    rls_stable = all(abs(v - rls_center) <= 0.25 * rls_center for v in rls_ratios)
    total_elapsed = elapsed + rls_elapsed
    detail = (
        f"residual={residual:.3f}, ratio spread={spread:.3f},"
        f" rls mean/n^2={rls_ratios[0]:.3f}/{rls_ratios[1]:.3f}/{rls_ratios[2]:.3f},"
        f" success={success}, {total_elapsed:.1f}s"
    )
    passed = (
        success and residual <= 0.25 and spread <= 0.25 and rls_stable
        and total_elapsed < 120
    )
    announce(5, "LeadingOnes n log n scaling", passed, detail)
    assert success
    assert residual <= 0.25
    assert spread <= 0.25
    assert rls_stable
    assert total_elapsed < 120


def test_criterion_5_leadingones_speedup_factor(
    leadingones_batch, rls_leadingones_batch
):
    # Stated bound: the pair search beats the baseline at n = 128 by a factor
    # of at least 4.  The measured factor sits near 2.3 because the baseline
    # needs about n^2/2 queries while the pair search costs about 4 n log2 n
    # at this size; the factor-4 gap only opens for n in the several hundreds.
    # Kept as stated rather than weakened; expected to fail.
    records, _ = leadingones_batch
    rls_records, _ = rls_leadingones_batch
    mean = np.mean([r.queries for r in records if r.n == 128])
    rls_mean = np.mean([r.queries for r in rls_records if r.n == 128])
    factor = float(rls_mean / mean)
    passed = factor >= 4
    announce(5, "LeadingOnes speedup factor at n=128", passed, f"factor={factor:.2f}")
    assert factor >= 4


def test_criterion_6_unbiasedness_certification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    all_passed = True
    for family in SHIPPED_OPERATOR_FAMILIES:
        report = certify_operator(family, 8, 200, rng)
        worst = max(worst, report.worst_deviation)
        all_passed = all_passed and report.passed
    control = certify_operator(NEGATIVE_CONTROL_NAME, 8, 200, rng)
    elapsed = time.perf_counter() - t0
    detail = (
        f"{len(SHIPPED_OPERATOR_FAMILIES)} families, worst dev={worst:.2e},"
        f" control caught={not control.passed}, {elapsed:.1f}s"
    )
    passed = all_passed and worst <= 1e-12 and not control.passed and elapsed < 30
    announce(6, "unbiasedness certification", passed, detail)
    assert all_passed
    assert worst <= 1e-12
    assert not control.passed
    assert elapsed < 30


def test_criterion_7_concentration_bound_margin():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arityopt", "check-bound", "--n", "1048576"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - t0
    margin_line = next(
        line for line in proc.stdout.splitlines() if line.startswith("min_margin")
    )
    margin = float(margin_line.split("=")[1].split()[0])
    detail = f"margin={margin:.4g}, exit={proc.returncode}, {elapsed:.1f}s"
    passed = proc.returncode == 0 and margin > 0 and elapsed < 10
    announce(7, "concentration inequality at n=2^20", passed, detail)
    assert proc.returncode == 0, proc.stderr
    assert "bound: holds" in proc.stdout
    assert margin > 0
    assert elapsed < 10


def test_criterion_8_consistency_sampler():
    # uniformity: 10^5 draws against the enumerated set at dim 10
    rng = np.random.default_rng(808)
    q = ConsistencyQuery(10, (BitString(10, 0),), (5,))
    support = sorted(x.word for x in consistent_set(q))
    counts = dict.fromkeys(support, 0)
    op, point_words = choose_consistent_id(q.values), [p.word for p in q.points]
    for _ in range(100_000):
        counts[sample_operator(op, point_words, q.dim, rng)] += 1
    _, p_value = stats.chisquare(list(counts.values()))

    # soundness: the hidden string survives 10^3 oracle-generated query sets
    sound = True
    for trial in range(1000):
        dim = 8 + trial % 3
        oracle = Oracle(random_instance("onemax", dim, trial))
        points = tuple(
            BitString(dim, int(w)) for w in rng.integers(1 << dim, size=4)
        )
        values = tuple(int(oracle.query(p)) for p in points)
        qq = ConsistencyQuery(dim, points, values)
        sound = sound and oracle.debug_instance.z in consistent_set(qq)

    detail = f"|support|={len(support)}, p={p_value:.3f}, soundness={sound}"
    passed = p_value > ALPHA and sound
    announce(8, "consistency sampler", passed, detail)
    assert p_value > ALPHA
    assert sound


def test_criterion_9_reproducibility(tmp_path):
    args = [
        "run", "--algorithm", "binary_leadingones", "--class", "leadingones",
        "--n", "32", "--trials", "10", "--seed", "909",
    ]
    outputs = []
    for name, workers in (("r1.csv", "1"), ("r2.csv", "2"), ("r3.csv", "2")):
        path = str(tmp_path / name)
        proc = subprocess.run(
            [sys.executable, "-m", "arityopt", *args, "--workers", workers,
             "--out", path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(open(path, "rb").read())
    identical = outputs[0] == outputs[1] == outputs[2]
    announce(
        9, "byte-identical reruns", identical,
        f"3 invocations (workers 1/2/2), {len(outputs[0])} bytes each",
    )
    assert identical
