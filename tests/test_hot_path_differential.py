"""The pure-int hot path against the numpy code it replaced.

``flipOneWhereDifferent`` picks its flipped bit with ``bitcore.nth_set_bit``,
``flipKWhereDifferent`` flips the set bits of ``x ^ y`` at the ranks it
draws, each also found by ``nth_set_bit``.  Monotone evaluation sums its
integer weights by popcount over one int slice per weight bit; it is checked
against an exact Python sum over the agreeing positions.  Bounded draws
(``operators._below``, in ``flipOneWhereDifferent``, ``flipOneUniform`` and
chooseConsistent's survivor index) replay numpy's own method for
``rng.integers(m)``, Lemire's multiply-shift rejection on ``next_uint32``,
on the bit generator's C interface.  ``flipKWhereDifferent`` replays
``rng.choice(c, take, replace=False)`` on those draws up to
``_FLOYD_TAKE_LIMIT`` ranks: Floyd's draws, then the draws of numpy's
shuffle.  ``bitcore.random_word`` joins raw
``next_uint32`` outputs little-endian up to ``_WORD_DRAW_BITS`` bits, where
numpy's ``rng.bytes`` draws the same ones.  Each must reproduce the earlier
numpy code exactly: the same output word, the same generator state
afterwards (the full state dict, PCG64's buffered half-word included) and
bit-identical floats, so that seeded runs keep their query counts and output
bytes.  The earlier code is kept here verbatim as the oracle; the second
value its kernels return is a draw record, which the comparisons ignore.
The replicas depend on how numpy draws, so CI also compares ``_below``, the
flipK draw and ``random_word`` with numpy on numpy 2.0, the oldest numpy the
package allows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt.bitcore import _WORD_DRAW_BITS, BitString, random_word
from arityopt.operators import (
    _FLOYD_TAKE_LIMIT,
    FLIP_ONE_UNIFORM,
    FLIP_ONE_WHERE_DIFFERENT,
    _below,
    flip_k_id,
    sample_operator,
)
from arityopt.problems import MonotoneInstance, random_instance


def word_unpack(word: int, n: int) -> np.ndarray:
    raw = word.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=n
    ).astype(bool)


def differing_positions(wx: int, wy: int, n: int) -> np.ndarray:
    return np.flatnonzero(word_unpack(wx ^ wy, n))


def _k_flip_one(words, n, params, rng):
    x, y = words
    d = x ^ y
    if d == 0:
        return x, None
    pos = differing_positions(x, y, n)
    p = int(pos[rng.integers(pos.size)])
    return x ^ (1 << p), p


def _k_flip_k(words, n, params, rng):
    x, y = words
    ell = params[0]
    pos = differing_positions(x, y, n)
    take = min(ell, pos.size)
    if take == 0:
        return y, ()
    chosen = pos[rng.choice(pos.size, size=take, replace=False)]
    out = y
    for p in chosen:
        out ^= 1 << int(p)
    return out, tuple(int(p) for p in np.sort(chosen))


def _k_flip_one_uniform(words, n, params, rng):
    p = int(rng.integers(n))
    return words[0] ^ (1 << p), p


def monotone_reference(inst: MonotoneInstance, word: int) -> int:
    n = inst.n
    agree = ~(word ^ inst.z.word) & ((1 << n) - 1)
    return sum(w for w, bit in zip(inst.weights, word_unpack(agree, n)) if bit)


lengths = st.one_of(st.integers(1, 300), st.sampled_from([4096, 16384]))


@st.composite
def word_pairs(draw):
    """(n, x, y) with x ^ y empty, one bit, an end bit, sparse, dense or random."""
    n = draw(lengths)
    full = (1 << n) - 1
    x = draw(st.integers(0, full))
    positions = st.integers(0, n - 1)
    kind = draw(st.sampled_from(
        ["equal", "single", "bit0", "last", "ends", "sparse", "dense", "random"]))
    if kind == "equal":
        d = 0
    elif kind == "single":
        d = 1 << draw(positions)
    elif kind == "bit0":
        d = 1
    elif kind == "last":
        d = 1 << (n - 1)
    elif kind == "ends":
        d = 1 | 1 << (n - 1)
    elif kind in ("sparse", "dense"):
        d = 0
        for p in draw(st.lists(positions, max_size=6)):
            d |= 1 << p
        if kind == "dense":
            d ^= full
    else:
        d = draw(st.integers(0, full))
    return n, x, x ^ d


class TestFlipOneWhereDifferent:
    @settings(max_examples=400, deadline=None)
    @given(word_pairs(), st.integers(0, 2**64 - 1))
    def test_matches_numpy_kernel(self, pair, seed):
        n, x, y = pair
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_operator(FLIP_ONE_WHERE_DIFFERENT, (x, y), n, rng_new)
        want, _ = _k_flip_one((x, y), n, (), rng_old)
        assert got == want
        assert type(got) is int
        # both generators stand at the same position of the stream, with
        # the same buffered half-word
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.integers(2**63) == rng_old.integers(2**63)


class TestFlipOneUniform:
    @settings(max_examples=200, deadline=None)
    @given(lengths, st.data(), st.integers(0, 2**64 - 1))
    def test_matches_numpy_kernel(self, n, data, seed):
        x = data.draw(st.integers(0, (1 << n) - 1))
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_operator(FLIP_ONE_UNIFORM, (x,), n, rng_new)
            want, _ = _k_flip_one_uniform((x,), n, (), rng_old)
            assert got == want
            assert type(got) is int
            assert rng_new.bit_generator.state == rng_old.bit_generator.state


# The bounds of a bounded draw: no draw at 1, powers of two (numpy's
# threshold is 0, so nothing is rejected), 2**31 + r (about half the draws
# are rejected), and the largest bound that still uses Lemire's method.
FIXED_BOUNDS = (1, 2, 3, 7, 256, 2**31, 2**31 + 1, 2**32 - 1)


class TestBoundedDraw:
    def test_matches_integers_with_full_states(self):
        for seed in range(200):
            plan = np.random.default_rng([seed, 7])
            bounds = [*FIXED_BOUNDS, 2**31 + int(plan.integers(2**31))]
            bounds += [int(plan.integers(1, 2**32)) for _ in range(4)]
            bounds += [max(1, int(2 ** plan.uniform(0, 32))) for _ in range(4)]
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for m in bounds * 3:
                got = _below(m, rng_new)
                assert got == int(rng_old.integers(m)), (seed, m)
                assert type(got) is int
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, m)
                # interleave the other draws the program makes: a double and
                # a raw word leave PCG64's buffered half-word as they find it
                step = int(plan.integers(3))
                if step == 1:
                    assert rng_new.random() == rng_old.random()
                elif step == 2:
                    assert rng_new.bit_generator.random_raw() == rng_old.bit_generator.random_raw()

    @pytest.mark.parametrize("m", [0, -1, 2**32, 2**40])
    def test_rejects_bounds_outside_one_to_two_to_the_32(self, m):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            _below(m, rng)
        assert rng.bit_generator.state == before


class TestFlipKWhereDifferent:
    @settings(max_examples=400, deadline=None)
    @given(word_pairs(), st.data(), st.integers(0, 2**64 - 1))
    def test_matches_numpy_kernel(self, pair, data, seed):
        n, x, y = pair
        ell = data.draw(st.integers(0, n + 1))
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_operator(flip_k_id(ell), (x, y), n, rng_new)
        want, _ = _k_flip_k((x, y), n, (ell,), rng_old)
        assert got == want
        assert type(got) is int
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.integers(2**63) == rng_old.integers(2**63)


# Population sizes of the flipK draw: no draw at 1, small ones, the operator's
# n = 60, and both sides of numpy's 10,000 threshold, above which it runs
# Floyd's algorithm only for takes up to c // 50.
FLIP_K_POPULATIONS = (1, 2, 7, 60, 10_000, 10_001, 123_456)


class TestFlipKDraw:
    """The flipK kernel on x = 0, y = 2**c - 1 flips exactly the ranks it
    draws, so the flipped bits are the set ``rng.choice`` returns."""

    @pytest.mark.parametrize("c", FLIP_K_POPULATIONS)
    def test_flipped_ranks_are_the_choice_set(self, c):
        full = (1 << c) - 1
        for seed in range(120):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for ell in range(_FLOYD_TAKE_LIMIT + 3):
                take = min(ell, c)
                got = sample_operator(flip_k_id(ell), (0, full), c, rng_new) ^ full
                want = rng_old.choice(c, size=take, replace=False).tolist() if take else []
                assert got == sum(1 << r for r in want), (seed, c, ell)
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, c, ell)


def bytes_word(n: int, rng: np.random.Generator) -> int:
    """The earlier ``random_word``: n bits of ``rng.bytes``, little-endian."""
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


class TestRandomWord:
    def test_matches_bytes_with_interleaved_draws(self):
        lengths = list(range(1, 301)) + [1024, 4096]
        assert {32, 33, _WORD_DRAW_BITS, _WORD_DRAW_BITS + 1} <= set(lengths)
        for seed in range(12):
            plan = np.random.default_rng([seed, 11])
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in lengths:
                got = random_word(n, rng_new)
                assert got == bytes_word(n, rng_old), (seed, n)
                assert type(got) is int
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, n)
                # a bounded draw leaves PCG64's buffered half-word for the
                # next word to start from; a double leaves it as it is
                step = int(plan.integers(3))
                if step == 1:
                    assert rng_new.random() == rng_old.random()
                elif step == 2:
                    m = int(plan.integers(1, 2**32))
                    assert _below(m, rng_new) == int(rng_old.integers(m))


class TestMonotoneEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_mask_indexing_exactly(self, data):
        n = data.draw(st.integers(1, 300))
        weights = data.draw(st.lists(
            st.integers(1, 2**52), min_size=n, max_size=n))
        z = data.draw(st.integers(0, (1 << n) - 1))
        inst = MonotoneInstance(BitString(n, z), tuple(weights))
        for word in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5)):
            assert inst.evaluate_word(word) == monotone_reference(inst, word)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([200, 1024, 4096]), st.integers(0, 2**32 - 1))
    def test_matches_on_random_instances(self, n, seed):
        inst = random_instance("monotone", n, seed)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            word = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            assert inst.evaluate_word(word) == monotone_reference(inst, word)
        assert inst.evaluate_word(inst.z.word) == monotone_reference(inst, inst.z.word)
        assert inst.evaluate_word(~inst.z.word & ((1 << n) - 1)) == 0
