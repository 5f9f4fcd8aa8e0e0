"""Bit strings, Hamming distance as xor popcount, and permutations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt.bitcore import (
    BitString,
    Permutation,
    apply_permutation,
    differing_positions,
    random_word,
    word_unpack,
)
from arityopt.operators import _below


def bs(s: str) -> BitString:
    return BitString.from_string(s)


def w(s: str) -> int:
    return bs(s).word


class TestBitString:
    def test_round_trip(self):
        for s in ("0", "1", "1010", "0000", "1111", "01" * 20):
            assert bs(s).to_string() == s

    def test_zeros_ones(self):
        assert BitString(5, 0).to_string() == "00000"
        assert BitString(5, (1 << 5) - 1).to_string() == "11111"

    def test_bit_indexing_is_left_to_right(self):
        x = bs("1011")
        assert [(x.word >> i) & 1 for i in range(4)] == [1, 0, 1, 1]

    def test_popcount(self):
        assert bs("1011").word.bit_count() == 3
        assert BitString(9, 0).word.bit_count() == 0

    def test_frozen(self):
        x = bs("10")
        with pytest.raises(AttributeError):
            x.word = 3

    def test_equality_and_hash(self):
        assert bs("101") == bs("101")
        assert bs("101") != bs("1010")
        assert len({bs("101"), bs("101"), bs("011")}) == 2

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            BitString(3, 0b1000)

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            BitString.from_string("10x")
        with pytest.raises(ValueError):
            BitString.from_string("")


class TestHammingDistance:
    """The Hamming distance of words x and y is ``(x ^ y).bit_count()``."""

    def test_known_value(self):
        assert (bs("1010").word ^ bs("0011").word).bit_count() == 2

    def test_xor_value(self):
        assert bs("1010").word ^ bs("0011").word == bs("1001").word

    @given(st.integers(1, 48), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_xor_popcount(self, n, data):
        wx = data.draw(st.integers(0, (1 << n) - 1))
        wy = data.draw(st.integers(0, (1 << n) - 1))
        assert (wx ^ wy).bit_count() == sum((wx >> i) & 1 != (wy >> i) & 1 for i in range(n))
        assert (wx ^ wy).bit_count() == (wy ^ wx).bit_count()
        assert (wx ^ wx).bit_count() == 0


class TestPermutation:
    def test_identity(self):
        p = Permutation((0, 1, 2, 3))
        assert apply_permutation(p, w("1011")) == w("1011")

    def test_swap_two(self):
        # (1, 0): output position 0 takes input position 1
        p = Permutation((1, 0))
        assert apply_permutation(p, w("10")) == w("01")

    def test_three_cycle(self):
        p = Permutation((2, 0, 1))
        assert apply_permutation(p, w("100")) == w("010")

    def test_rejects_word_wider_than_sigma(self):
        p = Permutation((2, 0, 1))
        assert apply_permutation(p, (1 << 3) - 1) == (1 << 3) - 1
        for word in (1 << 3, -1):
            with pytest.raises(ValueError, match="does not fit in 3 bits"):
                apply_permutation(p, word)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0))
        with pytest.raises(ValueError):
            Permutation((1, 2))

    def test_random_is_uniform(self):
        rng = np.random.default_rng(11)
        counts = {}
        for _ in range(6000):
            p = Permutation.random(3, rng)
            counts[p.mapping] = counts.get(p.mapping, 0) + 1
        assert len(counts) == 6
        from scipy import stats

        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_random_is_rng_permutation(self, n):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(20):
            mapping = Permutation.random(n, ours).mapping
            assert mapping == tuple(int(j) for j in theirs.permutation(n))
            assert all(type(j) is int for j in mapping)
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestWordHelpers:
    def test_unpack_pack_round_trip(self):
        rng = np.random.default_rng(2)
        for n in (1, 7, 8, 9, 31, 64, 100):
            w = random_word(n, rng)
            bits = word_unpack(w, n)
            assert bits.shape == (n,)
            packed = np.packbits(bits.astype(np.uint8), bitorder="little")
            assert int.from_bytes(packed.tobytes(), "little") == w

    def test_random_word_is_ceil_n_over_64_raw_outputs(self):
        # joined little-endian; a _below draw before each word leaves PCG64
        # a buffered half-word at times, which the word must leave as it is
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        buffered = 0
        for n in list(range(1, 301)) + [1024, 4096, 16384]:
            assert _below(n + 2, ours) == _below(n + 2, theirs)
            buffered += ours.bit_generator.state["has_uint32"]
            raw = theirs.bit_generator.random_raw((n + 63) // 64)
            want = sum(int(u) << (64 * i) for i, u in enumerate(raw)) & ((1 << n) - 1)
            got = random_word(n, ours)
            assert got == want and type(got) is int, n
            assert ours.bit_generator.state == theirs.bit_generator.state, n
        assert buffered > 0

    def test_unpack_bit_order(self):
        # bit i of the word is entry i of the array
        assert word_unpack(0b1101, 4).tolist() == [True, False, True, True]

    def test_differing_positions(self):
        d = differing_positions(0b1100, 0b1010, 4)
        assert d.tolist() == [1, 2]
        assert differing_positions(7, 7, 3).size == 0
