"""Consistent-set enumeration and the uniform consistency samplers."""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats

from arityopt import consistency, operators
from arityopt.bitcore import BitString
from arityopt.consistency import (
    ENUMERATION_DIM_LIMIT,
    ConsistencyQuery,
    ExactEnumerationUnavailable,
    block_projection,
    consistent_set,
    consistent_words,
    embed_word,
)
from arityopt.operators import (
    choose_consistent_id,
    choose_consistent_sub_id,
    output_support,
    sample_operator,
)
from arityopt.problems import random_instance

ALPHA = 1e-3


def bs(s: str) -> BitString:
    return BitString.from_string(s)


def project_word(word: int, positions) -> int:
    """Compress the bits of ``word`` at ``positions`` into a small word."""
    out = 0
    for j, p in enumerate(positions):
        if (word >> p) & 1:
            out |= 1 << j
    return out


class TestConsistentSet:
    def test_single_constraint(self):
        # agreement 1 with 000 means exactly one zero bit: two ones
        q = ConsistencyQuery(3, (bs("000"),), (1,))
        assert consistent_set(q) == {bs("011"), bs("101"), bs("110")}

    def test_empty_query_is_everything(self):
        q = ConsistencyQuery(3)
        assert len(consistent_set(q)) == 8

    def test_full_agreement_pins_the_point(self):
        q = ConsistencyQuery(4, (bs("1010"),), (4,))
        assert consistent_set(q) == {bs("1010")}

    def test_contradiction_is_empty(self):
        q = ConsistencyQuery(2, (bs("00"), bs("00")), (0, 2))
        assert consistent_set(q) == set()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        dim = 8
        for _ in range(50):
            z = int(rng.integers(1 << dim))
            pts = [int(w) for w in rng.integers(1 << dim, size=3)]
            vals = [dim - bin(z ^ p).count("1") for p in pts]
            got = set(int(w) for w in consistent_words(dim, pts, vals))
            want = {
                c
                for c in range(1 << dim)
                if all(dim - bin(c ^ p).count("1") == v for p, v in zip(pts, vals))
            }
            assert got == want
            assert z in got

    def test_dimension_limit(self):
        with pytest.raises(ExactEnumerationUnavailable):
            consistent_words(ENUMERATION_DIM_LIMIT + 1, [], [])

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            ConsistencyQuery(3, (bs("000"),), (4,))


def brute_force_words(dim, pts, vals) -> list[int]:
    return [
        c
        for c in range(1 << dim)
        if all(dim - (c ^ p).bit_count() == v for p, v in zip(pts, vals))
    ]


def sub_history(dim, pts):
    """``pts`` as a chooseConsistentSub history on the block 1..dim of a
    (dim + 2)-bit word, with its two anchors appended: (n, words)."""
    block = tuple(range(1, dim + 1))
    lo = 1 << (dim + 1)
    return dim + 2, [embed_word(p, block, lo) for p in pts] + [lo, lo | sum(1 << p for p in block)]


class TestConsistentWordsMemo:
    """The chooseConsistent kernels keep the survivors of their last
    argument set (``operators._survivors``), read-only."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        operators._survivors.cache_clear()

    @staticmethod
    def count_enumerations(monkeypatch) -> list:
        calls, real = [], operators.consistent_words
        monkeypatch.setattr(operators, "consistent_words", lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("dim, pts, vals", [
        (6, [5], [3]),      # one filter pass
        (14, [5, 9], [7, 8]),  # the join
        (6, [0, 0], [0, 6]),  # empty
    ])
    def test_returned_array_is_read_only(self, dim, pts, vals):
        words = consistent_words(dim, pts, vals)
        n, sub_words = sub_history(dim, pts)
        block, outside, sub = operators._survivors(n, tuple(sub_words), tuple(vals), "chooseConsistentSub")
        assert (block, outside) == (tuple(range(1, dim + 1)), 1 << (dim + 1))
        for memo in (words, operators._survivors(dim, tuple(pts), tuple(vals), "chooseConsistent"), sub):
            with pytest.raises(ValueError):
                memo[...] = 0
            with pytest.raises(ValueError):
                memo.sort()
            assert memo.tolist() == brute_force_words(dim, pts, vals)
        assert consistent_words(dim, pts, vals).tolist() == brute_force_words(dim, pts, vals)

    @pytest.mark.parametrize("vals", [[7, 6, 9], [8, 4, 8]])  # empty, then 165 words
    def test_repeat_call_with_any_sequence_type(self, monkeypatch, vals):
        dim, pts = 14, [3, 4000, 777]
        calls = self.count_enumerations(monkeypatch)
        rng = np.random.default_rng(0)
        n, sub_words = sub_history(dim, pts)
        anchors = sub_words[-2:]
        for family, m, hist, extra in (("chooseConsistent", dim, pts, []),
                                       ("chooseConsistentSub", n, sub_words[:-2], anchors)):
            make = choose_consistent_id if family == "chooseConsistent" else choose_consistent_sub_id
            first = None
            for words, values in (
                (hist, vals),
                (tuple(hist), tuple(vals)),
                (np.array(hist, dtype=np.uint32), np.array(vals, dtype=np.int64)),
                ([np.int64(p) for p in hist], [np.uint8(v) for v in vals]),
            ):
                words = list(words) + extra
                op = make(values)
                sample_operator(op, words, m, rng)
                again = operators._survivors(m, tuple(words), op.params, family)
                first = first if first is not None else again
                assert again is first
                survivors = again if family == "chooseConsistent" else again[2]
                np.testing.assert_array_equal(survivors, brute_force_words(dim, pts, vals))
        # one enumeration per family, for all four sequence types
        assert len(calls) == 2

    def test_invalid_input_raises_on_every_call(self):
        rng = np.random.default_rng(1)
        # block 1..2 of a 4-bit word; the bad history point is off at bit 3
        good, bad = [0b0010, 0b0000, 0b0110], [0b1010, 0b0000, 0b0110]
        for _ in range(3):
            with pytest.raises(ExactEnumerationUnavailable):
                consistent_words(ENUMERATION_DIM_LIMIT + 1, [], [])
            with pytest.raises(ExactEnumerationUnavailable):
                sample_operator(choose_consistent_id([]), [], ENUMERATION_DIM_LIMIT + 1, rng)
            with pytest.raises(ValueError, match="2 points vs 1 values"):
                consistent_words(8, [1, 2], [3])
            consistent_words(8, [1], [3])
            sample_operator(choose_consistent_id([3]), [1], 8, rng)
            with pytest.raises(ValueError, match="got point 256 with value 3"):
                sample_operator(choose_consistent_id([3]), [256], 8, rng)
            sample_operator(choose_consistent_sub_id([1]), good, 4, rng)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="disagrees with the anchors"):
                sample_operator(choose_consistent_sub_id([1]), bad, 4, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dim", [7, 13])
    def test_matches_fresh_enumeration_after_a_third_key(self, monkeypatch, dim):
        # Keys 0 and 1 share their points and differ in values; key 2 is
        # key 0's points and values one dimension up.
        rng = np.random.default_rng(dim)
        calls = self.count_enumerations(monkeypatch)
        for _ in range(20):
            pts = [int(w) for w in rng.integers(1 << dim, size=int(rng.integers(1, 4)))]
            keys = []
            for _ in range(2):
                z = int(rng.integers(1 << dim))
                keys.append((dim, pts, [dim - (z ^ p).bit_count() for p in pts]))
            keys.append((dim + 1,) + keys[0][1:])
            want = [brute_force_words(*key) for key in keys]
            operators._survivors.cache_clear()
            calls.clear()
            recent, misses = None, 0  # the memo's one key
            for i in [0, 1, 0, 1, 2, 0, 2, 1, 1, 2]:
                d, p, v = keys[i]
                assert sample_operator(choose_consistent_id(v), p, d, rng) in want[i]
                got = operators._survivors(d, tuple(p), tuple(v), "chooseConsistent")
                assert got.tolist() == want[i]
                assert not got.flags.writeable
                key = (d, tuple(p), tuple(v))
                misses += key != recent
                recent = key
            # an enumeration on a miss only; keys 0 and 1 may coincide
            assert len(calls) == misses


class TestConsistentWordsInputs:
    """Every value in 0..dim and every point below 2**dim, or ValueError;
    dims 8 and 20 sit on either side of the split into halves."""

    BAD = "need points below 2\\*\\*{dim} and values in 0..{dim}"

    @pytest.mark.parametrize("dim", [8, 20])
    @pytest.mark.parametrize("case", ["value above dim", "negative value", "point of 2**32",
                                      "point wider than dim", "negative point"])
    def test_rejected_on_every_call(self, dim, case):
        points, values = {
            "value above dim": ([0], [dim + 1]),
            "negative value": ([0], [-1]),
            "point of 2**32": ([1 << 32], [1]),
            "point wider than dim": ([1 << dim], [dim - 1]),
            "negative point": ([-1], [1]),
        }[case]
        rng = np.random.default_rng(dim)
        state = rng.bit_generator.state
        for _ in range(2):
            with pytest.raises(ValueError, match=self.BAD.format(dim=dim)):
                consistent_words(dim, points, values)
            with pytest.raises(ValueError, match=self.BAD.format(dim=dim)):
                sample_operator(choose_consistent_id(values), points, dim, rng)
            consistent_words(dim, [0], [dim])
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dim", [8, 16])
    def test_output_support_rejects_a_value_above_dim(self, dim):
        # 16 is the exact pmf limit, above the split; wide points fail
        # output_support's own word check first
        for values in ([dim + 1], [-1]):
            with pytest.raises(ValueError, match=self.BAD.format(dim=dim)):
                output_support(choose_consistent_id(values), [0], dim)

    def test_bounds_are_accepted(self):
        np.testing.assert_array_equal(consistent_words(8, [255, 0], [8, 0]), [255])
        np.testing.assert_array_equal(consistent_words(20, [(1 << 20) - 1], [0]), [0])

    def test_dimension_zero(self):
        # the empty block of a chooseConsistentSub draw
        assert consistent_words(0, [0], [0]).tolist() == [0]
        assert consistent_words(0, (0,), (0,)).tolist() == [0]
        assert consistent_words(0, [], []).tolist() == [0]
        with pytest.raises(ValueError, match=self.BAD.format(dim=0)):
            consistent_words(0, [1], [0])


class TestChooseConsistent:
    def test_output_is_always_consistent(self):
        rng = np.random.default_rng(5)
        dim = 7
        for _ in range(200):
            z = int(rng.integers(1 << dim))
            pts = [BitString(dim, int(w)) for w in rng.integers(1 << dim, size=2)]
            vals = tuple(dim - (z ^ p.word).bit_count() for p in pts)
            q = ConsistencyQuery(dim, tuple(pts), vals)
            w = sample_operator(choose_consistent_id(vals), [p.word for p in pts], dim, rng)
            assert BitString(dim, w) in consistent_set(q)

    def test_uniform_over_consistent_set(self):
        rng = np.random.default_rng(6)
        q = ConsistencyQuery(5, (bs("00000"),), (2,))
        support = sorted(x.word for x in consistent_set(q))
        counts = dict.fromkeys(support, 0)
        op, point_words = choose_consistent_id(q.values), [p.word for p in q.points]
        for _ in range(20_000):
            counts[sample_operator(op, point_words, q.dim, rng)] += 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > ALPHA

    def test_empty_set_falls_back_to_uniform(self):
        rng = np.random.default_rng(7)
        q = ConsistencyQuery(2, (bs("00"), bs("00")), (0, 2))
        op, point_words = choose_consistent_id(q.values), [p.word for p in q.points]
        seen = {sample_operator(op, point_words, q.dim, rng) for _ in range(400)}
        assert seen == {0, 1, 2, 3}

    def test_soundness_on_oracle_generated_queries(self):
        # the hidden string always survives its own query set
        rng = np.random.default_rng(8)
        dim = 10
        for trial in range(300):
            inst = random_instance("onemax", dim, trial)
            pts = [BitString(dim, int(w)) for w in rng.integers(1 << dim, size=4)]
            vals = tuple(inst.evaluate_word(p.word) for p in pts)
            q = ConsistencyQuery(dim, tuple(pts), vals)
            assert inst.z in consistent_set(q)


class TestProjectEmbed:
    @pytest.mark.parametrize("base", [0b100001, 0b111111])
    def test_round_trip(self, base):
        positions = (1, 3, 4)
        for small in range(8):
            w = embed_word(small, positions, base)
            assert project_word(w, positions) == small
            # untouched bits keep the base value
            assert w & ~0b11010 == base & ~0b11010
        # an array of small words embeds elementwise
        small = np.arange(8, dtype=np.uint32)
        words = embed_word(small, positions, base)
        assert words.tolist() == [embed_word(int(s), positions, base) for s in small]

    @pytest.mark.parametrize("positions", [(), (0,), (1, 3, 4), (5, 30, 62), tuple(range(47, 63))])
    def test_array_path_equals_int_path(self, positions):
        # bases with every block bit set, none set, and at random; smalls
        # wider than the block, whose extra bits both paths ignore
        rng = np.random.default_rng(len(positions))
        mask = sum(1 << p for p in positions)
        small = rng.integers(0, 1 << 20, size=50).astype(np.uint32)
        for base in (mask, 0, (1 << 63) - 1, int(rng.integers(1 << 62))):
            words = embed_word(small, positions, base)
            assert words.dtype == np.int64 and words.shape == small.shape
            assert words.tolist() == [embed_word(int(s), positions, base) for s in small]


class TestChooseConsistentSub:
    def test_output_fixes_bits_outside_block(self):
        rng = np.random.default_rng(9)
        n = 12
        for _ in range(300):
            outside = int(rng.integers(1 << n))
            block = sorted(rng.choice(n, size=4, replace=False).tolist())
            mask = sum(1 << p for p in block)
            a_lo = outside & ~mask
            a_hi = a_lo | mask
            w = sample_operator(choose_consistent_sub_id([]), [a_lo, a_hi], n, rng)
            assert block_projection(n, [], [], a_lo, a_hi)[0] == tuple(block)
            assert w & ~mask == a_lo & ~mask

    def test_respects_block_constraints(self):
        rng = np.random.default_rng(10)
        n = 10
        block = (2, 5, 6, 7)
        mask = sum(1 << p for p in block)
        a_lo = 0b1000000001 & ~mask
        a_hi = a_lo | mask
        # one history point with full block agreement pins the block bits
        hidden_block = 0b1010
        point = a_lo | embed_word(hidden_block, block, 0)
        w = sample_operator(choose_consistent_sub_id([4]), [point, a_lo, a_hi], n, rng)
        assert project_word(w, block) == hidden_block

    def test_rejects_history_disagreeing_outside(self):
        rng = np.random.default_rng(11)
        n = 6
        a_lo, a_hi = 0b000000, 0b000011
        bad = 0b100000
        with pytest.raises(ValueError):
            sample_operator(choose_consistent_sub_id([1]), [bad, a_lo, a_hi], n, rng)

    def test_wrapper_draws_in_block(self):
        # the operator's kernel, reached through sample_operator
        rng = np.random.default_rng(13)
        lo, hi = bs("0000"), bs("0110")
        for _ in range(50):
            out = sample_operator(choose_consistent_sub_id(()), [lo.word, hi.word], 4, rng)
            assert out & ~0b0110 == lo.word & ~0b0110

    def test_uniform_within_block(self):
        rng = np.random.default_rng(14)
        lo, hi = bs("00000"), bs("01110")
        counts = dict.fromkeys(range(8), 0)
        for _ in range(16_000):
            out = sample_operator(choose_consistent_sub_id(()), [lo.word, hi.word], 5, rng)
            counts[project_word(out, (1, 2, 3))] += 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > ALPHA


class TestBlockProjectionLimit:
    """The block's width is the popcount of the anchors' xor, checked against
    the enumeration limit before any block position is read."""

    def test_wide_block_fails_before_any_bit_is_walked(self, monkeypatch):
        n = 200_000
        a_hi = int.from_bytes(b"\x55" * (n // 8), "little")
        assert a_hi.bit_count() == 100_000

        def unpack(*args):
            raise AssertionError("block_projection unpacked the anchors' xor")

        monkeypatch.setattr(consistency, "differing_positions", unpack)
        start = time.perf_counter()
        with pytest.raises(ExactEnumerationUnavailable, match="dimension 100000 exceeds"):
            block_projection(n, [0], [0], 0, a_hi)
        # walking the 100,000 block bits one at a time takes about 0.7 s on a
        # 2-core VM; counting them takes microseconds
        assert time.perf_counter() - start < 0.1

    def test_block_at_the_limit_projects(self):
        n = 200_000
        rng = np.random.default_rng(24)
        inner = rng.choice(np.arange(1, n - 1), size=ENUMERATION_DIM_LIMIT - 2, replace=False)
        block = sorted([0, n - 1, *inner.tolist()])
        assert len(block) == ENUMERATION_DIM_LIMIT
        mask = sum(1 << p for p in block)
        a_lo = int.from_bytes(rng.bytes(n // 8), "little") & ~mask
        smalls = [int(s) for s in rng.integers(0, 1 << ENUMERATION_DIM_LIMIT, size=5)]
        points = [embed_word(s, block, a_lo) for s in smalls]
        got_block, outside, projected = block_projection(n, points, [3] * 5, a_lo, a_lo | mask)
        assert got_block == tuple(block)
        assert outside == a_lo
        assert projected == smalls
        assert projected == [project_word(w, block) for w in points]
