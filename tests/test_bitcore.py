"""Bit strings, permutations, and Hamming automorphisms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt.bitcore import (
    BitString,
    HammingAutomorphism,
    Permutation,
    apply_automorphism,
    apply_permutation,
    differing_positions,
    hamming_distance,
    nth_set_bit,
    word_pack,
    word_unpack,
    xor,
)


def bs(s: str) -> BitString:
    return BitString.from_string(s)


class TestBitString:
    def test_round_trip(self):
        for s in ("0", "1", "1010", "0000", "1111", "01" * 20):
            assert bs(s).to_string() == s

    def test_zeros_ones(self):
        assert BitString.zeros(5).to_string() == "00000"
        assert BitString.ones(5).to_string() == "11111"

    def test_bit_indexing_is_left_to_right(self):
        x = bs("1011")
        assert [x.bit(i) for i in range(4)] == [1, 0, 1, 1]

    def test_popcount(self):
        assert bs("1011").popcount() == 3
        assert BitString.zeros(9).popcount() == 0

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
    def test_known_value(self):
        assert hamming_distance(bs("1010"), bs("0011")) == 2

    def test_xor_value(self):
        assert xor(bs("1010"), bs("0011")) == bs("1001")
        assert bs("1010") ^ bs("0011") == bs("1001")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(bs("10"), bs("100"))

    @given(st.integers(1, 48), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_xor_popcount(self, n, data):
        wx = data.draw(st.integers(0, (1 << n) - 1))
        wy = data.draw(st.integers(0, (1 << n) - 1))
        x, y = BitString(n, wx), BitString(n, wy)
        assert hamming_distance(x, y) == (x ^ y).popcount()
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, x) == 0


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert apply_permutation(p, bs("1011")) == bs("1011")

    def test_swap_two(self):
        # one-based (2, 1): output position 1 takes input position 2
        p = Permutation.from_one_based((2, 1))
        assert apply_permutation(p, bs("10")) == bs("01")

    def test_three_cycle(self):
        p = Permutation.from_one_based((3, 1, 2))
        assert apply_permutation(p, bs("100")) == bs("010")

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0))
        with pytest.raises(ValueError):
            Permutation((1, 2))

    def test_inverse_round_trip_exhaustive(self):
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            p = Permutation.random(n, rng)
            inv = p.inverse()
            for w in range(1 << min(n, 8)):
                x = BitString(n, w)
                assert apply_permutation(inv, apply_permutation(p, x)) == x

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


class TestHammingAutomorphism:
    def test_mask_only(self):
        a = HammingAutomorphism(Permutation.identity(3), bs("111"))
        assert apply_automorphism(a, bs("010")) == bs("101")

    def test_permute_then_mask(self):
        # permute first, then XOR the mask
        a = HammingAutomorphism(Permutation.from_one_based((2, 1)), bs("10"))
        assert apply_automorphism(a, bs("10")) == bs("11")

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            a = HammingAutomorphism.random(n, rng)
            inv = a.inverse()
            for _ in range(50):
                w = int(rng.integers(1 << n))
                x = BitString(n, w)
                assert apply_automorphism(inv, apply_automorphism(a, x)) == x

    def test_preserves_distance(self):
        rng = np.random.default_rng(17)
        for n in (8, 16, 64):
            for _ in range(200):
                a = HammingAutomorphism.random(n, rng)
                wx = int.from_bytes(rng.bytes(8), "little") & ((1 << n) - 1)
                wy = int.from_bytes(rng.bytes(8), "little") & ((1 << n) - 1)
                x, y = BitString(n, wx), BitString(n, wy)
                assert hamming_distance(
                    apply_automorphism(a, x), apply_automorphism(a, y)
                ) == hamming_distance(x, y)


class TestWordHelpers:
    def test_unpack_pack_round_trip(self):
        rng = np.random.default_rng(2)
        for n in (1, 7, 8, 9, 31, 64, 100):
            w = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            bits = word_unpack(w, n)
            assert bits.shape == (n,)
            assert word_pack(bits) == w

    def test_unpack_bit_order(self):
        # bit i of the word is entry i of the array
        assert word_unpack(0b1101, 4).tolist() == [True, False, True, True]

    def test_differing_positions(self):
        d = differing_positions(0b1100, 0b1010, 4)
        assert d.tolist() == [1, 2]
        assert differing_positions(7, 7, 3).size == 0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(1, 300), st.sampled_from([4096, 16384])), st.data())
    def test_nth_set_bit_matches_differing_positions(self, n, data):
        w = data.draw(st.integers(1, (1 << n) - 1))
        pos = differing_positions(w, 0, n)
        r = data.draw(st.integers(0, pos.size - 1))
        assert nth_set_bit(w, r) == int(pos[r])
        assert nth_set_bit(w, 0) == int(pos[0])
        assert nth_set_bit(w, pos.size - 1) == int(pos[-1])

    def test_nth_set_bit_rejects_out_of_range(self):
        for word, r in ((0, 0), (0b1011, 3), (1 << 300, 1), (0b1, -1), (-1, 0)):
            with pytest.raises(ValueError):
                nth_set_bit(word, r)
