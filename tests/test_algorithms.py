"""Search policies, the arity-enforcing engine, and run records."""

from __future__ import annotations

import numpy as np
import pytest

from arityopt.algorithms import (
    EngineState,
    ModelViolation,
    PointHandle,
    PolicyFailure,
    default_budget,
    optimize_subset,
    policy_binary_leadingones,
    run_binary_leadingones,
    run_binary_onemax,
    run_kary_onemax,
    run_rls_baseline,
    run_star_ary_onemax,
    subset_round_count,
)
from arityopt.bitcore import BitString
from arityopt.bounds import round_count
from arityopt.operators import (
    COMPLEMENT,
    FLIP_ONE_WHERE_DIFFERENT,
    UNIFORM_SAMPLE,
)
from arityopt.problems import (
    BudgetExhausted,
    OneMaxInstance,
    Oracle,
    random_instance,
)


def bs(s: str) -> BitString:
    return BitString.from_string(s)


def make_oracle(class_name: str, n: int, seed: int, budget=None) -> Oracle:
    return Oracle(random_instance(class_name, n, seed), budget)


def split_rng(seed: int):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])


class TestEngine:
    def test_apply_counts_and_audits(self):
        e = EngineState(Oracle(OneMaxInstance(bs("1010"))), max_arity=2, audit=True)
        h0, f0 = e.apply(UNIFORM_SAMPLE, (), np.random.default_rng(0))
        assert h0 == PointHandle(0)
        assert e.query_count == 1 == len(e.audit)
        h1, f1 = e.apply(COMPLEMENT, (h0,), np.random.default_rng(0))
        assert h1 == PointHandle(1)
        assert f0 + f1 == 4
        assert e.audit[1].op is COMPLEMENT
        assert e.audit[1].parents == (h0,)

    def test_arity_enforcement(self):
        e = EngineState(Oracle(OneMaxInstance(bs("1010"))), max_arity=1)
        rng = np.random.default_rng(1)
        h0, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        h1, _ = e.apply(COMPLEMENT, (h0,), rng)
        with pytest.raises(ModelViolation):
            e.apply(FLIP_ONE_WHERE_DIFFERENT, (h0, h1), rng)

    def test_invalid_handle(self):
        e = EngineState(Oracle(OneMaxInstance(bs("1010"))), max_arity=None)
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            e.apply(COMPLEMENT, (PointHandle(0),), rng)

    def test_budget_stops_before_state_update(self):
        e = EngineState(
            Oracle(OneMaxInstance(bs("1010")), budget=1), max_arity=None, audit=True
        )
        rng = np.random.default_rng(3)
        e.apply(UNIFORM_SAMPLE, (), rng)
        with pytest.raises(BudgetExhausted):
            e.apply(UNIFORM_SAMPLE, (), rng)
        assert e.query_count == 1
        assert len(e.audit) == 1
        assert len(e.fitnesses) == 1

    def test_audit_is_opt_in(self):
        oracle = Oracle(OneMaxInstance(bs("1010")))
        e = EngineState(oracle, max_arity=2)
        h0, f0 = e.apply(UNIFORM_SAMPLE, (), np.random.default_rng(0))
        assert e.audit is None
        assert e.query_count == 1
        assert oracle.history == [(e.debug_point(h0), f0)]

    def test_view_hides_engine_internals(self):
        e = EngineState(Oracle(OneMaxInstance(bs("1010"))), max_arity=2)
        view = e.view
        for attr in ("oracle", "debug_point", "_points", "audit", "fitnesses"):
            assert not hasattr(view, attr)
        with pytest.raises(AttributeError):
            view.extra = 1

    def test_debug_point_resolves(self):
        e = EngineState(Oracle(OneMaxInstance(bs("0110"))), max_arity=None)
        rng = np.random.default_rng(4)
        h, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        hc, _ = e.apply(COMPLEMENT, (h,), rng)
        x, xc = e.debug_point(h), e.debug_point(hc)
        assert (x ^ xc).popcount() == 4


class TestBudgetHelpers:
    def test_default_budget_values(self):
        assert default_budget(1) == 100
        assert default_budget(3) == 600
        assert default_budget(200) == 100 * 200 * 8

    def test_subset_round_count(self):
        assert subset_round_count(1) == 0
        assert subset_round_count(2) == 0
        assert subset_round_count(4) == 2
        assert subset_round_count(16) == min(14, round_count(16))


def assert_success_record(record, oracle, algorithm, class_name, n, k):
    assert record.algorithm == algorithm
    assert record.class_name == class_name
    assert record.n == n
    assert record.k == k
    assert record.success and not record.hit_budget
    assert record.queries == oracle.query_count
    # on success the last queried point is a global optimum
    last_point, last_value = oracle.history[-1]
    assert last_value == oracle.debug_instance.optimum_value()
    assert last_point.n == n


class TestRunners:
    def test_binary_onemax(self):
        oracle = make_oracle("onemax", 40, seed=0)
        record = run_binary_onemax(40, oracle, split_rng(0), seed=0)
        assert_success_record(record, oracle, "binary_onemax", "onemax", 40, 2)
        assert oracle.history[-1][0] == oracle.debug_instance.z

    def test_binary_onemax_n1(self):
        oracle = make_oracle("onemax", 1, seed=1)
        record = run_binary_onemax(1, oracle, split_rng(1), seed=1)
        assert record.success and record.queries <= 3

    def test_binary_onemax_on_monotone(self):
        oracle = make_oracle("monotone", 30, seed=2)
        record = run_binary_onemax(30, oracle, split_rng(2), seed=2)
        assert_success_record(record, oracle, "binary_onemax", "monotone", 30, 2)
        assert oracle.history[-1][0] == oracle.debug_instance.z

    def test_star_ary_onemax(self):
        oracle = make_oracle("onemax", 12, seed=3)
        record = run_star_ary_onemax(12, oracle, split_rng(3), seed=3)
        assert_success_record(record, oracle, "star_ary_onemax", "onemax", 12, 0)

    def test_star_ary_rejects_large_n(self):
        oracle = make_oracle("onemax", 25, seed=4)
        with pytest.raises(ValueError):
            run_star_ary_onemax(25, oracle, split_rng(4))

    def test_kary_onemax(self):
        for k in (3, 4, 7):
            oracle = make_oracle("onemax", 26, seed=5)
            record = run_kary_onemax(26, k, oracle, split_rng(5), seed=5)
            assert_success_record(record, oracle, "kary_onemax", "onemax", 26, k)
            assert oracle.history[-1][0] == oracle.debug_instance.z

    def test_kary_k_range(self):
        oracle = make_oracle("onemax", 10, seed=6)
        with pytest.raises(ValueError):
            run_kary_onemax(10, 2, oracle, split_rng(6))
        with pytest.raises(ValueError):
            run_kary_onemax(10, 25, oracle, split_rng(6))

    def test_binary_leadingones(self):
        oracle = make_oracle("leadingones", 48, seed=7)
        record = run_binary_leadingones(48, oracle, split_rng(7), seed=7)
        assert_success_record(record, oracle, "binary_leadingones", "leadingones", 48, 2)

    def test_rls_on_both_classes(self):
        oracle = make_oracle("onemax", 24, seed=8)
        record = run_rls_baseline(24, oracle, split_rng(8), seed=8)
        assert_success_record(record, oracle, "rls", "onemax", 24, 1)
        oracle = make_oracle("leadingones", 16, seed=9)
        record = run_rls_baseline(16, oracle, split_rng(9), seed=9)
        assert_success_record(record, oracle, "rls", "leadingones", 16, 1)

    def test_rls_n1(self):
        oracle = make_oracle("onemax", 1, seed=10)
        record = run_rls_baseline(1, oracle, split_rng(10), seed=10)
        assert record.success and record.queries <= 2

    def test_wrong_oracle_class(self):
        oracle = make_oracle("leadingones", 8, seed=11)
        with pytest.raises(ValueError):
            run_binary_onemax(8, oracle, split_rng(11))
        oracle = make_oracle("monotone", 8, seed=11)
        with pytest.raises(ValueError):
            run_rls_baseline(8, oracle, split_rng(11))

    def test_budget_hit_produces_failure_record(self):
        oracle = make_oracle("onemax", 30, seed=12, budget=5)
        record = run_binary_onemax(30, oracle, split_rng(12), seed=12)
        assert not record.success
        assert record.hit_budget
        assert record.queries == 5

    def test_reproducible_given_seed(self):
        def one(seed):
            oracle = make_oracle("leadingones", 32, seed)
            record = run_binary_leadingones(32, oracle, split_rng(seed), seed=seed)
            return record, [w for w, _ in oracle.history]

        a_rec, a_hist = one(13)
        b_rec, b_hist = one(13)
        assert a_rec == b_rec
        assert a_hist == b_hist


class TestBinaryOneMaxInvariant:
    def test_agreed_positions_hold_optimal_bits(self):
        # replay the audit: wherever x and y agree, both carry z's bit
        oracle = make_oracle("onemax", 20, seed=14)
        e = EngineState(oracle, max_arity=2, audit=True)
        rng = split_rng(14)
        from arityopt.algorithms import policy_binary_onemax

        policy_binary_onemax(e.view, rng)
        assert len(e.audit) == oracle.query_count
        z = oracle.debug_instance.z
        n = z.n
        full = (1 << n) - 1
        hx, hy = None, None
        fits = e.fitnesses
        for idx, call in enumerate(e.audit):
            if call.op is UNIFORM_SAMPLE:
                hx = idx
            elif call.op is COMPLEMENT:
                hy = idx
            elif call.op is FLIP_ONE_WHERE_DIFFERENT:
                base = call.parents[0]
                if base == hx and fits[idx] > fits[hx]:
                    hx = idx
                elif base == hy and fits[idx] > fits[hy]:
                    hy = idx
            if hx is None or hy is None:
                continue
            x = e.debug_point(hx).word
            y = e.debug_point(hy).word
            agree = ~(x ^ y) & full
            assert x & agree == z.word & agree

    def test_pair_distance_shrinks_by_one_per_acceptance(self):
        oracle = make_oracle("onemax", 16, seed=15)
        e = EngineState(oracle, max_arity=2, audit=True)
        from arityopt.algorithms import policy_binary_onemax

        policy_binary_onemax(e.view, split_rng(15))
        assert len(e.audit) == oracle.query_count
        accepted = 0
        fits = e.fitnesses
        hx, hy = 0, 1
        for idx, call in enumerate(e.audit):
            if call.op is FLIP_ONE_WHERE_DIFFERENT:
                base = call.parents[0]
                if base == hx and fits[idx] > fits[hx]:
                    hx = idx
                    accepted += 1
                elif base == hy and fits[idx] > fits[hy]:
                    hy = idx
                    accepted += 1
                d = (e.debug_point(hx).word ^ e.debug_point(hy).word).bit_count()
                assert d == 16 - accepted


class TestOptimizeSubset:
    def _check(self, n, ell, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance("onemax", n, seed)
        block = sorted(int(p) for p in rng.choice(n, size=ell, replace=False))
        mask = sum(1 << p for p in block)
        base = int(rng.integers(1 << n))
        a = BitString(n, base)
        a_bar = BitString(n, base ^ mask)
        oracle = Oracle(inst)
        out = optimize_subset(n, ell, (a_bar, a), oracle, rng)
        # block bits match the hidden string; outside bits match the anchors
        assert out.word & mask == inst.z.word & mask
        assert out.word & ~mask == base & ~mask

    def test_small_blocks_use_pair_descent(self):
        for ell, seed in ((1, 20), (2, 21)):
            self._check(12, ell, seed)

    def test_sampling_blocks(self):
        for ell, seed in ((3, 22), (5, 23), (8, 24), (12, 25)):
            self._check(16, ell, seed)

    def test_rejects_mismatched_anchors(self):
        oracle = Oracle(random_instance("onemax", 8, 0))
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            optimize_subset(8, 3, (bs("00000000"), bs("00000011")), oracle, rng)


class TestLeadingOnesProgress:
    def test_prefix_value_never_decreases_on_x(self):
        # track the running best fitness; it must be monotone across outer swaps
        oracle = make_oracle("leadingones", 24, seed=27)
        e = EngineState(oracle, max_arity=2)
        policy_binary_leadingones(e.view, split_rng(27))
        best_seen = 0.0
        for f in e.fitnesses:
            best_seen = max(best_seen, f)
        assert best_seen == 24
        assert e.fitnesses[-1] == 24


class ScriptedView:
    """Policy view whose applications return scripted fitness values."""

    def __init__(self, n, script):
        self.n = n
        self.max_arity = 2
        self.fitnesses = []
        self._script = iter(script)

    def apply(self, op, parents, rng):
        self.fitnesses.append(next(self._script))
        return PointHandle(len(self.fitnesses) - 1), self.fitnesses[-1]


class TestPolicyFailure:
    def test_leadingones_pair_closed_below_optimum_raises(self):
        # uniformSample and complement both score 2 of 4: the pair is closed
        # before any search step, below the optimum
        view = ScriptedView(4, [2, 2])
        with pytest.raises(PolicyFailure, match="below the optimum"):
            policy_binary_leadingones(view, np.random.default_rng(0))
        assert view.fitnesses == [2, 2]

    def test_is_a_runtime_error(self):
        assert issubclass(PolicyFailure, RuntimeError)
        assert not issubclass(PolicyFailure, AssertionError)
