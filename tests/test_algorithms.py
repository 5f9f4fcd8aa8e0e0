"""Search policies, the arity-enforcing engine, and run records."""

from __future__ import annotations

import re

import numpy as np
import pytest

from arityopt import algorithms
from arityopt.algorithms import (
    ALGORITHMS,
    EngineState,
    ModelViolation,
    OptimumReached,
    PointHandle,
    PolicyFailure,
    _subset_policy,
    default_budget,
    policy_binary_leadingones,
    policy_binary_onemax,
    run_binary_leadingones,
    run_binary_onemax,
    run_kary_onemax,
    run_rls_baseline,
    run_star_ary_onemax,
    subset_round_count,
)
from arityopt.bitcore import BitString, random_word
from arityopt.bounds import round_count
from arityopt.operators import (
    COMPLEMENT,
    FLIP_ONE_WHERE_DIFFERENT,
    SWITCH_IF_DISTANCE_ONE,
    UNIFORM_SAMPLE,
    UPDATE,
)
from arityopt.problems import (
    BudgetExhausted,
    MonotoneInstance,
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


def recording_positions(apply, calls: list):
    """Wrap an ``apply``, bound or taken from the class, so that each
    application that got its query, the optimal one included, appends
    (op, parents) to ``calls``, with each parent handle given as the
    position of its query in the oracle's history.  Assumes every query goes
    through the wrapper."""
    position = {}  # handle -> query position; handles hash by identity

    def recording(*args):
        *_, op, parents, rng = args
        try:
            out = apply(*args)
        except OptimumReached:
            calls.append((op, tuple(position[h] for h in parents)))
            raise
        position[out[0]] = len(calls)
        calls.append((op, tuple(position[h] for h in parents)))
        return out

    return recording


def record_applications(engine: EngineState) -> list:
    """Record ``engine.apply`` as :func:`recording_positions` does; take
    ``engine.view`` after this."""
    calls = []
    engine.apply = recording_positions(engine.apply, calls)
    return calls


class TestEngine:
    def test_apply_counts_and_audits(self):
        # the oracle's history records each application in order, and each
        # handle holds the word of its own query
        oracle = Oracle(OneMaxInstance(bs("1010")))
        e = EngineState(oracle, max_arity=2)
        h0, f0 = e.apply(UNIFORM_SAMPLE, (), np.random.default_rng(0))
        assert isinstance(h0, PointHandle) and oracle.query_count == 1
        h1, f1 = e.apply(COMPLEMENT, (h0,), np.random.default_rng(0))
        assert isinstance(h1, PointHandle) and h1 is not h0 and oracle.query_count == 2
        assert f0 + f1 == 4
        (x, fx), (xc, fxc) = oracle.history
        assert (fx, fxc) == (f0, f1)
        assert (h0._word, h1._word) == (x.word, xc.word)
        assert (x.word ^ xc.word).bit_count() == 4

    def test_arity_enforcement(self):
        oracle = Oracle(OneMaxInstance(bs("1010")))
        e = EngineState(oracle, max_arity=1)
        rng = np.random.default_rng(1)
        h0, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        h1, _ = e.apply(COMPLEMENT, (h0,), rng)
        with pytest.raises(ModelViolation):
            e.apply(FLIP_ONE_WHERE_DIFFERENT, (h0, h1), rng)
        assert oracle.query_count == 2

    def test_invalid_handle(self):
        # only this engine's own handles pass, and a rejection charges no
        # query and draws nothing
        oracle = Oracle(OneMaxInstance(bs("1010")))
        e = EngineState(oracle, max_arity=None)
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="invalid point handle 0"):
            e.apply(COMPLEMENT, (0,), rng)
        assert oracle.query_count == 0
        h0, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        other = Oracle(OneMaxInstance(bs("1010")))
        foreign, _ = EngineState(other, max_arity=None).apply(UNIFORM_SAMPLE, (), rng)
        state = rng.bit_generator.state
        for bad in (0, -1, 1, True, foreign):
            with pytest.raises(ValueError, match=re.escape(f"invalid point handle {bad!r}")):
                e.apply(COMPLEMENT, (bad,), rng)
            assert oracle.query_count == 1
        with pytest.raises(ValueError, match="invalid point handle"):
            e.apply(FLIP_ONE_WHERE_DIFFERENT, (h0, foreign), rng)
        assert oracle.query_count == 1 and other.query_count == 1
        assert rng.bit_generator.state == state

    def test_parent_count_must_match_arity(self):
        oracle = Oracle(OneMaxInstance(bs("1010")))
        e = EngineState(oracle, max_arity=None)
        rng = np.random.default_rng(5)
        h0, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        for parents in ((), (h0, h0)):
            with pytest.raises(ValueError, match="expects 1 parents"):
                e.apply(COMPLEMENT, parents, rng)
        assert oracle.query_count == 1

    def test_budget_stops_before_state_update(self):
        oracle = Oracle(OneMaxInstance(bs("1010")), budget=1)
        e = EngineState(oracle, max_arity=None)
        rng = np.random.default_rng(3)
        e.apply(UNIFORM_SAMPLE, (), rng)
        with pytest.raises(BudgetExhausted):
            e.apply(UNIFORM_SAMPLE, (), rng)
        assert oracle.query_count == 1
        assert len(oracle.history) == 1

    def test_one_oracle_query_per_application(self):
        # deterministic operators pay their query too
        oracle = Oracle(OneMaxInstance(bs("1010")))
        e = EngineState(oracle, max_arity=None)
        rng = np.random.default_rng(0)
        h0, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        h1, _ = e.apply(COMPLEMENT, (h0,), rng)
        steps = [
            (FLIP_ONE_WHERE_DIFFERENT, (h0, h1)),
            (UPDATE, (h0, h1, h0)),
            (SWITCH_IF_DISTANCE_ONE, (h0, h0)),
        ]
        for want, (op, parents) in enumerate(steps, start=2):
            h, f = e.apply(op, parents, rng)
            assert want == oracle.query_count - 1
            assert oracle.history[want] == (BitString(4, h._word), f)

    def test_debug_point_resolves(self):
        # a handle's point is the oracle's history entry of its query
        oracle = Oracle(OneMaxInstance(bs("0110")))
        e = EngineState(oracle, max_arity=None)
        rng = np.random.default_rng(4)
        h, _ = e.apply(UNIFORM_SAMPLE, (), rng)
        hc, _ = e.apply(COMPLEMENT, (h,), rng)
        (x, _), (xc, _) = oracle.history
        assert (x.word, xc.word) == (h._word, hc._word)
        assert (x.word ^ xc.word).bit_count() == 4

    def test_view_hides_engine_internals(self):
        e = EngineState(Oracle(OneMaxInstance(bs("1010"))), max_arity=2)
        view = e.view
        for attr in ("oracle", "max_arity", "_points", "_query"):
            assert not hasattr(view, attr)
        with pytest.raises(AttributeError):
            view.extra = 1


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
    inst = oracle.debug_instance
    assert last_value == inst.evaluate_word(inst.z.word)
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

    def test_binary_onemax_on_weights_spanning_1_to_2_52(self):
        # weights 1 and 2**52 alternate: a float sum would lose the 1s, an
        # exact one solves the instance in the usual ~2n queries
        n = 64
        weights = tuple(1 if i % 2 == 0 else 2**52 for i in range(n))
        queries = []
        for seed in range(10):
            z = BitString(n, random_word(n, np.random.default_rng(seed)))
            oracle = Oracle(MonotoneInstance(z, weights), budget=6 * n)
            record = run_binary_onemax(n, oracle, split_rng(seed), seed=seed)
            assert record.success and record.queries <= 6 * n
            assert oracle.history[-1][0] == z
            queries.append(record.queries)
        assert 0.9 <= np.mean(queries) / (2 * n) <= 1.1

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


STOP_RULE_CASES = [
    (name, class_name, n)
    for name, spec in ALGORITHMS.items()
    for class_name in spec.classes
    if class_name != "monotone"
    for n in (1, 7, 16)
]


class TestStopRule:
    """The cost model: a run's queries end with its first optimal query."""

    @pytest.mark.parametrize("name,class_name,n", STOP_RULE_CASES)
    def test_run_ends_at_first_optimal_query(self, name, class_name, n):
        spec = ALGORITHMS[name]
        runner = getattr(algorithms, spec.runner)
        for seed in range(3):
            oracle = make_oracle(class_name, n, seed)
            args = (n,) if spec.k is not None else (n, 3)
            record = runner(*args, oracle, split_rng(seed), seed=seed)
            values = [f for _, f in oracle.history]
            assert record.success and n in values
            assert record.queries == oracle.query_count == 1 + values.index(n)

    @pytest.mark.parametrize("n", (1, 9, 30))
    def test_binary_onemax_on_monotone_ends_after_n_kept_flips(self, n, monkeypatch):
        for seed in range(3):
            # (op, parent positions) per application; a fresh wrapper per run
            calls = []
            monkeypatch.setattr(EngineState, "apply",
                                recording_positions(EngineState.apply, calls))
            oracle = make_oracle("monotone", n, seed)
            record = run_binary_onemax(n, oracle, split_rng(seed), seed=seed)
            monkeypatch.undo()
            parents = [ps for _, ps in calls]
            values = [f for _, f in oracle.history]
            assert record.success and record.queries == len(parents)
            pair, kept = [0, 1], 0
            for i in range(2, len(parents)):
                side = pair.index(parents[i][0])
                if values[i] > values[pair[side]]:
                    pair[side] = i
                    kept += 1
            assert kept == n
            assert record.queries - 1 in pair


class TestBinaryOneMaxInvariant:
    def test_agreed_positions_hold_optimal_bits(self):
        # replay the applications: wherever x and y agree, both carry z's bit
        oracle = make_oracle("onemax", 20, seed=14)
        e = EngineState(oracle, max_arity=2)
        calls = record_applications(e)
        with pytest.raises(OptimumReached):
            policy_binary_onemax(e.view, split_rng(14))
        assert len(calls) == oracle.query_count
        z = oracle.debug_instance.z
        full = (1 << z.n) - 1
        history = oracle.history
        hx, hy = None, None
        for idx, (op, parents) in enumerate(calls):
            if op is UNIFORM_SAMPLE:
                hx = idx
            elif op is COMPLEMENT:
                hy = idx
            elif op is FLIP_ONE_WHERE_DIFFERENT:
                base = parents[0]
                if base == hx and history[idx][1] > history[hx][1]:
                    hx = idx
                elif base == hy and history[idx][1] > history[hy][1]:
                    hy = idx
            if hx is None or hy is None:
                continue
            x = history[hx][0].word
            y = history[hy][0].word
            agree = ~(x ^ y) & full
            assert x & agree == z.word & agree
        # the optimal query was kept on one side
        assert len(calls) - 1 in (hx, hy)

    def test_pair_distance_shrinks_by_one_per_acceptance(self):
        oracle = make_oracle("onemax", 16, seed=15)
        e = EngineState(oracle, max_arity=2)
        calls = record_applications(e)
        with pytest.raises(OptimumReached):
            policy_binary_onemax(e.view, split_rng(15))
        assert len(calls) == oracle.query_count
        accepted = 0
        history = oracle.history
        hx, hy = 0, 1
        for idx, (op, parents) in enumerate(calls):
            if op is FLIP_ONE_WHERE_DIFFERENT:
                base = parents[0]
                if base == hx and history[idx][1] > history[hx][1]:
                    hx = idx
                    accepted += 1
                elif base == hy and history[idx][1] > history[hy][1]:
                    hy = idx
                    accepted += 1
                d = (history[hx][0].word ^ history[hy][0].word).bit_count()
                assert d == 16 - accepted
        # the optimal query was kept on one side
        assert len(calls) - 1 in (hx, hy)


def wrap_handle(engine: EngineState, word: int) -> PointHandle:
    """A handle of ``engine`` for a word queried on its oracle directly."""
    h = PointHandle()
    h._word, h._engine = word, engine
    return h


class TestOptimizeSubset:
    def _check(self, n, ell, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance("onemax", n, seed)
        block = sorted(int(p) for p in rng.choice(n, size=ell, replace=False))
        mask = sum(1 << p for p in block)
        base = int(rng.integers(1 << n))
        oracle = Oracle(inst)
        # the anchors are queried on the oracle directly, then wrapped as
        # handles of the engine
        f_abar = oracle.query(BitString(n, base ^ mask))
        f_a = oracle.query(BitString(n, base))
        engine = EngineState(oracle, None)
        h_abar, h_a = (wrap_handle(engine, w) for w in (base ^ mask, base))
        h, _ = _subset_policy(engine.view, rng, ell, h_abar, f_abar, h_a, f_a)
        out = h._word
        assert out in {x.word for x, _ in oracle.history}
        # block bits match the hidden string; outside bits match the anchors
        assert out & mask == inst.z.word & mask
        assert out & ~mask == base & ~mask

    def test_small_blocks_use_pair_descent(self):
        for ell, seed in ((1, 20), (2, 21)):
            self._check(12, ell, seed)

    def test_sampling_blocks(self):
        for ell, seed in ((3, 22), (5, 23), (8, 24), (12, 25)):
            self._check(16, ell, seed)


class TestLeadingOnesProgress:
    def test_prefix_value_never_decreases_on_x(self):
        # track the running best fitness; it must be monotone across outer swaps
        oracle = make_oracle("leadingones", 24, seed=27)
        e = EngineState(oracle, max_arity=2)
        with pytest.raises(OptimumReached):
            policy_binary_leadingones(e.view, split_rng(27))
        fits = [f for _, f in oracle.history]
        best_seen = 0.0
        for f in fits:
            best_seen = max(best_seen, f)
        assert best_seen == 24
        assert fits[-1] == 24


class ScriptedView:
    """Policy view whose applications return scripted fitness values."""

    def __init__(self, n, script):
        self.n = n
        self.fitnesses = []
        self._script = iter(script)

    def apply(self, op, parents, rng):
        self.fitnesses.append(next(self._script))
        return len(self.fitnesses) - 1, self.fitnesses[-1]


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
