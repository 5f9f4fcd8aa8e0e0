"""Instance classes and the query-counting oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from arityopt.bitcore import BitString, Permutation
from arityopt.problems import (
    BudgetExhausted,
    LeadingOnesInstance,
    MonotoneInstance,
    OneMaxInstance,
    Oracle,
    random_instance,
)

ALPHA = 1e-3


def bs(s: str) -> BitString:
    return BitString.from_string(s)


def leadingones_binary_search(inst: LeadingOnesInstance, word: int) -> int:
    """The binary search over prefix masks that one bisect replaced, verbatim."""
    diff = word ^ inst._zword
    if diff == 0:
        return inst._n
    # largest j with the first j slots clean; invariant lo clean, hi dirty
    masks = inst._prefix_masks
    lo, hi = 0, inst._n
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if diff & masks[mid]:
            hi = mid
        else:
            lo = mid
    return lo


class TestOneMax:
    def test_known_value(self):
        inst = OneMaxInstance(bs("1011"))
        assert inst.evaluate_word(bs("1001").word) == 3

    def test_optimum(self):
        inst = OneMaxInstance(bs("0110"))
        assert inst.evaluate_word(inst.z.word) == 4

    def test_complement_sums_to_n(self):
        rng = np.random.default_rng(0)
        n = 12
        inst = OneMaxInstance(BitString(n, int(rng.integers(1 << n))))
        for w in rng.integers(1 << n, size=100):
            x = BitString(n, int(w))
            xc = BitString(n, x.word ^ ((1 << n) - 1))
            assert inst.evaluate_word(x.word) + inst.evaluate_word(xc.word) == n


class TestLeadingOnes:
    def test_prefix_order_follows_sigma(self):
        # sigma (2, 0, 1): slot 0 checks position 2 first
        inst = LeadingOnesInstance(bs("111"), Permutation((2, 0, 1)))
        assert inst.evaluate_word(bs("110").word) == 0
        assert inst.evaluate_word(bs("011").word) == 1
        assert inst.evaluate_word(bs("101").word) == 2
        assert inst.evaluate_word(bs("111").word) == 3

    def test_identity_sigma_counts_agreeing_prefix(self):
        inst = LeadingOnesInstance(bs("1100"), Permutation((0, 1, 2, 3)))
        assert inst.evaluate_word(bs("1100").word) == 4
        assert inst.evaluate_word(bs("1101").word) == 3
        assert inst.evaluate_word(bs("1000").word) == 1
        assert inst.evaluate_word(bs("0100").word) == 0

    def test_value_ignores_bits_past_first_disagreement(self):
        rng = np.random.default_rng(1)
        n = 16
        for _ in range(200):
            inst = random_instance("leadingones", n, int(rng.integers(1 << 30)))
            w = int(rng.integers(1 << n))
            x = BitString(n, w)
            v = inst.evaluate_word(x.word)
            if v == n:
                continue
            # flipping any bit at a slot past v+1 cannot change the value
            later = inst.sigma.mapping[v + 1 :]
            for pos in later[:4]:
                y = BitString(n, w ^ (1 << pos))
                assert inst.evaluate_word(y.word) == v

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(2)
        n = 10
        for _ in range(30):
            inst = random_instance("leadingones", n, int(rng.integers(1 << 30)))
            for w in rng.integers(1 << n, size=60):
                x = BitString(n, int(w))
                v = 0
                for pos in inst.sigma.mapping:
                    if ((x.word ^ inst.z.word) >> pos) & 1:
                        break
                    v += 1
                assert inst.evaluate_word(x.word) == v

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256, 1024])
    def test_matches_the_binary_search(self, n):
        rng = np.random.default_rng(n)
        for seed in range(5):
            inst = random_instance("leadingones", n, seed)
            z = inst.z.word
            words = [int.from_bytes(rng.bytes(n // 8 + 1), "little") & ((1 << n) - 1)
                     for _ in range(50)]
            words += [z] + [z ^ (1 << pos) for pos in inst.sigma.mapping]
            for word in words:
                assert inst.evaluate_word(word) == leadingones_binary_search(inst, word)
            assert inst.evaluate_word(z) == n

    def test_sigma_size_mismatch(self):
        with pytest.raises(ValueError):
            LeadingOnesInstance(bs("101"), Permutation((0, 1, 2, 3)))


class TestMonotone:
    def test_value_is_weight_sum_on_agreement(self):
        inst = MonotoneInstance(bs("101"), (0.5, 0.25, 1.0))
        assert inst.evaluate_word(bs("101").word) == pytest.approx(1.75)
        assert inst.evaluate_word(bs("001").word) == pytest.approx(1.25)
        assert inst.evaluate_word(bs("010").word) == pytest.approx(0.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MonotoneInstance(bs("10"), (1.0, 0.0))

    def test_strictly_monotone_in_agreement_set(self):
        # growing the set of z-agreeing positions strictly raises fitness
        rng = np.random.default_rng(3)
        n = 20
        inst = random_instance("monotone", n, 99)
        zw = inst.z.word
        full = (1 << n) - 1
        for _ in range(10_000):
            w = int(rng.integers(1 << n))
            agree = ~(w ^ zw) & full
            if agree == full:
                continue
            disagree = full & ~agree
            pos = int(rng.integers(n))
            if not (disagree >> pos) & 1:
                pos = int(np.flatnonzero(np.unpackbits(
                    np.frombuffer(disagree.to_bytes((n + 7) // 8, "little"), np.uint8),
                    bitorder="little", count=n))[0])
            w2 = w ^ (1 << pos)
            assert inst.evaluate_word(w2) > inst.evaluate_word(w)

    def test_optimum(self):
        inst = MonotoneInstance(bs("110"), (0.3, 0.2, 0.9))
        assert inst.evaluate_word(inst.z.word) == pytest.approx(0.3 + 0.2 + 0.9)


class TestOracle:
    def test_counts_queries(self):
        o = Oracle(OneMaxInstance(bs("1010")))
        assert o.query_count == 0
        o.query(bs("1111"))
        o.query(bs("0000"))
        assert o.query_count == 2

    def test_no_memoization(self):
        # cost model charges every query, repeated points included
        o = Oracle(OneMaxInstance(bs("1010")))
        x = bs("1111")
        o.query(x)
        o.query(x)
        assert o.query_count == 2

    def test_history_in_order(self):
        o = Oracle(OneMaxInstance(bs("110")))
        o.query(bs("000"))
        o.query(bs("110"))
        assert o.history == [(bs("000"), 1), (bs("110"), 3)]

    def test_budget_exhaustion(self):
        o = Oracle(OneMaxInstance(bs("1010")), budget=2)
        o.query(bs("0000"))
        o.query(bs("0001"))
        with pytest.raises(BudgetExhausted) as err:
            o.query(bs("0011"))
        assert err.value.queries == 2
        assert o.query_count == 2

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            Oracle(OneMaxInstance(bs("1")), budget=0)

    def test_rejects_wrong_length(self):
        o = Oracle(OneMaxInstance(bs("1010")))
        with pytest.raises(ValueError):
            o.query(bs("10"))


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        a = random_instance("leadingones", 12, 7)
        b = random_instance("leadingones", 12, 7)
        assert a.z == b.z and a.sigma == b.sigma
        c = random_instance("leadingones", 12, 8)
        assert (a.z, a.sigma) != (c.z, c.sigma)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            random_instance("needle", 4, 0)

    def test_onemax_z_uniform(self):
        n = 4
        counts = np.zeros(1 << n, dtype=int)
        for seed in range(4000):
            counts[random_instance("onemax", n, seed).z.word] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > ALPHA

    def test_leadingones_sigma_uniform(self):
        counts: dict = {}
        for seed in range(3000):
            m = random_instance("leadingones", 3, seed).sigma.mapping
            counts[m] = counts.get(m, 0) + 1
        assert len(counts) == 6
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > ALPHA

    def test_monotone_weights_positive_in_unit_interval(self):
        inst = random_instance("monotone", 50, 1)
        assert all(0 < w <= 1 for w in inst.weights)
