"""Instance classes and the query-counting oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from arityopt.bitcore import BitString, Permutation, random_word
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
        inst = MonotoneInstance(bs("101"), (2, 1, 4))
        assert inst.evaluate_word(bs("101").word) == 7
        assert inst.evaluate_word(bs("001").word) == 5
        assert inst.evaluate_word(bs("010").word) == 0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MonotoneInstance(bs("10"), (1, 0))

    @pytest.mark.parametrize("bad", [1.0, 0.5, True, 0, -3, 2**64, 2**70, "2"])
    def test_weights_must_be_ints_in_range(self, bad):
        with pytest.raises(ValueError, match=r"weights must be ints in 1\.\.2\*\*64 - 1, "
                                             r"got .* at position 1"):
            MonotoneInstance(bs("101"), (1, bad, 1))

    def test_weights_below_float_resolution_fail_at_construction(self):
        # float weights like these once made binary_onemax spin to its budget:
        # 1e-20 vanishes from any float sum that holds 1.0
        with pytest.raises(ValueError, match="weights must be ints"):
            MonotoneInstance(bs("10110100"), (1.0, 1e-20, 1e-20, 1e-20, 1e-20, 1e-20, 1e-20, 1e-20))

    def test_extreme_weights_sum_exactly(self):
        top = 2**64 - 1
        inst = MonotoneInstance(bs("0110"), (top, 1, top, 2**52))
        assert inst.evaluate_word(inst.z.word) == 2 * top + 1 + 2**52
        assert inst.evaluate_word(bs("1110").word) == top + 1 + 2**52
        assert inst.evaluate_word(bs("0111").word) == 2 * top + 1
        assert inst.evaluate_word(bs("1001").word) == 0

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
        inst = MonotoneInstance(bs("110"), (3, 2, 9))
        assert inst.evaluate_word(inst.z.word) == 3 + 2 + 9


STEP_WIDTHS = (1, 2, 63, 64, 65, 4096)
STEP_KINDS = ("onemax", "leadingones", "monotone", "monotone_wide")


def step_instance(kind: str, n: int, seed: int):
    """A seeded instance of ``kind``; ``monotone_wide`` draws its weights on
    all of 1..2**64 - 1, where ``random_instance`` draws them on 1..256."""
    if kind != "monotone_wide":
        return random_instance(kind, n, seed)
    rng = np.random.default_rng(seed)
    weights = tuple(int(w) for w in rng.integers(1, 2**64, size=n, dtype=np.uint64))
    return MonotoneInstance(BitString(n, random_word(n, rng)), weights)


def word_of_value(inst: LeadingOnesInstance, v: int, rest: int) -> int:
    """A word of LeadingOnes value v: z on the first v slots, not z on slot
    v, and ``rest`` on the slots past it."""
    z, mapping = inst.z.word, inst.sigma.mapping
    prefix = sum(1 << pos for pos in mapping[:v])
    word = (rest & ~prefix) | (z & prefix)
    if v < inst.n:
        bit = 1 << mapping[v]
        word = (word & ~bit) | (~z & bit)
    assert inst.evaluate_word(word) == v
    return word


class TestStepWord:
    """``step_word(word, d, fit)``, the value of a word one bit d from a parent
    of value fit, against ``evaluate_word``; and the oracle's choice between
    the parent's value, a step and a full evaluation."""

    @pytest.mark.parametrize("n", STEP_WIDTHS)
    @pytest.mark.parametrize("kind", STEP_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_evaluation(self, kind, n, data):
        inst = step_instance(kind, n, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        parent = data.draw(st.integers(0, (1 << n) - 1), label="parent")
        if kind == "leadingones":
            # a parent of drawn value, so that the flipped slot can fall
            # below, at and above it
            parent = word_of_value(inst, data.draw(st.integers(0, n), label="value"), parent)
        fit = inst.evaluate_word(parent)
        if n <= 65:
            positions = range(n)
        else:
            positions = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40),
                                  label="positions")
        for pos in positions:
            word = parent ^ (1 << pos)
            assert inst.step_word(word, 1 << pos, fit) == inst.evaluate_word(word)
        # through the oracle: the same word, a neighbour and the complement,
        # each one counted query with the instance's value
        oracle = Oracle(inst)
        neighbour = parent ^ (1 << positions[0])
        full = (1 << n) - 1
        for word in (parent, neighbour, parent ^ full):
            oracle._query_word(word, parent, fit)
        assert oracle.query_count == 3
        assert [f for _, f in oracle.history] == [
            inst.evaluate_word(w) for w in (parent, neighbour, parent ^ full)]

    @pytest.mark.parametrize("n", STEP_WIDTHS)
    @pytest.mark.parametrize("branch", ("below", "at", "above"))
    def test_leadingones_branches(self, branch, n):
        # slot s of the flipped bit below the parent's value v ends the
        # prefix at s; at v it evaluates; above v it leaves the value
        cases = 0
        for seed in range(5):
            inst = random_instance("leadingones", n, seed)
            rng = np.random.default_rng(seed)
            for v in sorted({0, 1, n // 2, n - 1, n}):
                slots = {"below": range(v), "at": range(v, min(v + 1, n)),
                         "above": range(v + 1, n)}[branch]
                parent = word_of_value(inst, v, random_word(n, rng))
                for s in sorted({slots[0], slots[-1]} if slots else ()):
                    d = 1 << inst.sigma.mapping[s]
                    got = inst.step_word(parent ^ d, d, v)
                    assert got == inst.evaluate_word(parent ^ d)
                    if branch == "below":
                        assert got == s
                    elif branch == "above":
                        assert got == v
                    else:
                        assert got > v
                    cases += 1
        # n = 1 has no slot above any value, and no slot below v = 0
        assert cases > 0 or (branch == "above" and n == 1)


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

    def test_history_off_counts_without_keeping_points(self):
        o = Oracle(OneMaxInstance(bs("110")), budget=2, keep_history=False)
        assert o.query(bs("000")) == 1 and o.query(bs("110")) == 3
        assert o.query_count == 2
        with pytest.raises(BudgetExhausted):
            o.query(bs("111"))
        with pytest.raises(RuntimeError, match="keep_history=False"):
            o.history

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

    def test_monotone_weights_are_raw_bytes_plus_one(self):
        # z first, on the same draws as a OneMax instance; then one
        # random_raw((n + 7) // 8) call, each weight one byte plus 1,
        # little-endian within each 64-bit output
        for n in (1, 8, 50, 300):
            inst = random_instance("monotone", n, 1)
            assert inst.z == random_instance("onemax", n, 1).z
            rng = np.random.default_rng(1)
            random_word(n, rng)
            raw = [int(v) for v in rng.bit_generator.random_raw((n + 7) // 8)]
            assert inst.weights == tuple((raw[i // 8] >> (8 * (i % 8)) & 0xFF) + 1 for i in range(n))
            assert all(type(w) is int and 1 <= w <= 256 for w in inst.weights)

    def test_monotone_weights_uniform_on_1_to_256(self):
        weights = random_instance("monotone", 256 * 40, 5).weights
        counts = np.bincount(weights, minlength=257)
        assert counts[0] == 0 and counts.sum() == 256 * 40
        _, p_value = stats.chisquare(counts[1:])
        assert p_value > ALPHA
