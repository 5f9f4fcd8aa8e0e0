"""Reference checks written apart from the program.

The evaluators below recompute each instance class from its hidden data
(z, sigma, weights) without calling the program's own evaluators, and the
brute-force enumerator recomputes consistent sets by testing every word.
The replay rebuilds runs through the public functions (``random_instance``,
``Oracle``, ``run_*``) and checks them against these references.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from arityopt import algorithms, harness
from arityopt.algorithms import default_budget
from arityopt.bitcore import BitString
from arityopt.bounds import round_count
from arityopt.consistency import ConsistencyQuery, consistent_set
from arityopt.operators import choose_consistent_id, exact_pmf
from arityopt.problems import Oracle, random_instance

BRUTE_FORCE_DIM_LIMIT = 12
MONOTONE_REL_TOL = 1e-12


def onemax_value(z: int, n: int, x: int) -> int:
    """Agreements with z: n minus the popcount of x xor z."""
    return n - bin(x ^ z).count("1")


def leadingones_value(z: int, sigma: tuple[int, ...], x: int) -> int:
    """Longest prefix, scanned in sigma order, on which x agrees with z."""
    d = x ^ z
    for j, pos in enumerate(sigma):
        if (d >> pos) & 1:
            return j
    return len(sigma)


def monotone_value(z: int, weights: tuple[float, ...], x: int) -> float:
    """Exactly rounded sum of the weights at positions where x agrees with z."""
    n = len(weights)
    bits = format(x ^ z, "b").zfill(n)[::-1]
    return math.fsum(w for w, c in zip(weights, bits) if c == "0")


def reference_evaluator(instance):
    """A function word -> value for the instance, built from its hidden data."""
    z, n = instance.z.word, instance.n
    if instance.kind == "onemax":
        return lambda x: onemax_value(z, n, x)
    if instance.kind == "leadingones":
        sigma = instance.sigma.mapping
        return lambda x: leadingones_value(z, sigma, x)
    weights = instance.weights
    return lambda x: monotone_value(z, weights, x)


def brute_force_consistent(dim: int, points, values) -> set[int]:
    """Every word whose agreement with each point equals its value."""
    if dim > BRUTE_FORCE_DIM_LIMIT:
        raise ValueError(f"brute force is limited to dim <= {BRUTE_FORCE_DIM_LIMIT}")
    return {
        z for z in range(1 << dim)
        if all(dim - bin(z ^ p).count("1") == u for p, u in zip(points, values))
    }


_RUNNERS = {
    "binary_onemax": algorithms.run_binary_onemax,
    "star_ary_onemax": algorithms.run_star_ary_onemax,
    "binary_leadingones": algorithms.run_binary_leadingones,
    "rls": algorithms.run_rls_baseline,
}


def replay(record, budget):
    """Rerun one seeded trial through the public API; returns (record, oracle).

    Seeding follows the harness's documented scheme: the trial seed is split
    into an instance stream and an algorithm stream.
    """
    inst_ss, alg_ss = np.random.SeedSequence(record.seed).spawn(2)
    oracle = Oracle(random_instance(record.class_name, record.n, inst_ss), budget)
    rng = np.random.default_rng(alg_ss)
    if record.algorithm == "kary_onemax":
        rec = algorithms.run_kary_onemax(record.n, record.k, oracle, rng, seed=record.seed)
    else:
        rec = _RUNNERS[record.algorithm](record.n, oracle, rng, seed=record.seed)
    return rec, oracle


def _values_match(ref: float, got: float, kind: str) -> bool:
    if kind == "monotone":
        return abs(ref - got) <= MONOTONE_REL_TOL * max(abs(ref), 1.0)
    return ref == got


def verify_replays(workload, outcome, max_n: int) -> tuple[list[str], int]:
    """Replay the first seed of each (config, n) with n <= max_n.

    Checks every fitness in the history against the reference evaluator, that
    the last queried point is the optimum, and that the replayed record equals
    the timed one.  Star-ary runs at dim <= 12 also check the consistent set
    of their sampling round against brute force.  Returns (errors, replays).
    """
    errors = []
    replays = 0
    for cfg, recs in zip(workload.configs, outcome):
        firsts = {}
        for r in recs:
            firsts.setdefault(r.n, r)
        for n, timed in firsts.items():
            if n > max_n:
                continue
            budget = cfg.get("budget") or default_budget(n)
            rec, oracle = replay(timed, budget)
            replays += 1
            tag = f"{timed.algorithm}/{timed.class_name} n={n} seed={timed.seed}"
            if rec != timed:
                errors.append(f"{tag}: replayed record {rec} != timed {timed}")
            inst = oracle.debug_instance
            ref = reference_evaluator(inst)
            history = oracle.history
            if len(history) != timed.queries:
                errors.append(f"{tag}: {len(history)} queries in history, record says {timed.queries}")
            bad = sum(1 for x, f in history if not _values_match(ref(x.word), f, inst.kind))
            if bad:
                errors.append(f"{tag}: {bad} fitness values differ from the reference")
            if not history or history[-1][0].word != inst.z.word:
                errors.append(f"{tag}: last queried point is not the optimum")
            if timed.algorithm == "star_ary_onemax" and n <= BRUTE_FORCE_DIM_LIMIT:
                errors.extend(_check_star_round(tag, n, history, inst.z.word))
    return errors, replays


def _check_star_round(tag, n, history, z):
    """The draw after the first round of t samples lies in their consistent set."""
    errors = []
    t = round_count(n)
    points = [x.word for x, _ in history[:t]]
    values = [onemax_value(z, n, p) for p in points]
    brute = brute_force_consistent(n, points, values)
    program = {x.word for x in consistent_set(
        ConsistencyQuery(n, tuple(BitString(n, p) for p in points), tuple(values)))}
    if program != brute:
        errors.append(f"{tag}: consistent set differs from brute force")
    if z not in brute or history[t][0].word not in brute:
        errors.append(f"{tag}: hidden string or draw outside the consistent set")
    return errors


def verify_consistent_sets(seed: int) -> list[str]:
    """Eight seeded random constraint sets at dimensions 8 and 12: the
    program's consistent set and the support of chooseConsistent's exact pmf
    both equal brute force."""
    errors = []
    rng = np.random.default_rng((seed, 12))
    for dim in (8, BRUTE_FORCE_DIM_LIMIT):
        for case in range(8):
            t = int(rng.integers(1, 4))
            points = [int(w) for w in rng.integers(0, 1 << dim, size=t)]
            hidden = int(rng.integers(0, 1 << dim))
            values = [onemax_value(hidden, dim, p) for p in points]
            brute = brute_force_consistent(dim, points, values)
            bits = tuple(BitString(dim, p) for p in points)
            program = {x.word for x in consistent_set(ConsistencyQuery(dim, bits, tuple(values)))}
            support = {x.word for x in exact_pmf(choose_consistent_id(values), list(bits)).support}
            if not program == support == brute:
                errors.append(f"dim={dim} case={case}: consistent set differs from brute force")
    return errors


def verify_workers(workload, outcome) -> list[str]:
    """Three trials of the first config give identical records at workers=1
    and workers=min(2, nproc), equal to the timed round's records."""
    cfg = workload.configs[0]
    workers = min(2, os.cpu_count() or 1)
    slice_cfg = harness.ExperimentConfig(
        **{**cfg, "n_values": (cfg["n_values"][0],), "trials": min(3, cfg["trials"]), "workers": 1})
    one = harness.run_experiment(slice_cfg)
    many = harness.run_experiment(replace(slice_cfg, workers=workers))
    timed = list(outcome[0][: len(one)])
    if one != many or one != timed:
        return [f"records differ across worker counts (1 vs {workers}) or from the timed round"]
    return []
