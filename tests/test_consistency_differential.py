"""The meet-in-the-middle ``consistent_words`` against the full scan it replaced.

``consistent_words`` joins a high and a low half of each word on the
distances the low half must supply.  It must return exactly what the earlier
full scan over all 2**dim words returned: the same uint32 words in the same
ascending order, so that ``choose_consistent_word``'s uniform index picks the
same word and seeded runs keep their query counts and output bytes.  The
earlier scan is kept here verbatim as the oracle.

``block_projection`` projects a ``chooseConsistentSub`` history onto the
anchors' block with one numpy unpack and pack of all the points together.
It must return the words and raise the errors, in the same order, of the
earlier per-point loop, also kept here verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt import consistency
from arityopt.bitcore import differing_positions
from arityopt.consistency import (
    ENUMERATION_DIM_LIMIT,
    _require_enumerable,
    block_projection,
    choose_consistent_word,
    consistent_words,
    project_word,
)


def filter_consistent_words(dim: int, point_words, values) -> np.ndarray:
    _require_enumerable(dim)
    z = np.arange(1 << dim, dtype=np.uint32)
    for x, u in zip(point_words, values):
        z = z[np.bitwise_count(z ^ np.uint32(x)) == np.uint32(dim - u)]
        if z.size == 0:
            break
    return z


def loop_block_projection(n: int, point_words, values, anchor_lo: int, anchor_hi: int):
    block = tuple(int(p) for p in differing_positions(anchor_lo, anchor_hi, n))
    _require_enumerable(len(block))
    block_mask = (anchor_lo ^ anchor_hi) & ((1 << n) - 1)
    outside = anchor_lo & ~block_mask
    projected = []
    for w in point_words:
        if w & ~block_mask & ((1 << n) - 1) != outside:
            raise ValueError("history point disagrees with the anchors outside the block")
        projected.append(project_word(w, block))
    for u in values:
        if not 0 <= u <= len(block):
            raise ValueError(f"block value {u} outside 0..{len(block)}")
    return block, outside, projected


def assert_same_words(dim, point_words, values):
    got = consistent_words(dim, point_words, values)
    want = filter_consistent_words(dim, point_words, values)
    assert got.dtype == np.uint32
    np.testing.assert_array_equal(got, want)


@st.composite
def queries(draw, dims, t_max=32):
    """(dim, points, values): values realised by a hidden word, free values
    (mostly contradictory), or values pinned to 0 and dim; points sometimes
    drawn from a pool of two so that they repeat."""
    dim = draw(dims)
    word = st.integers(0, (1 << dim) - 1)
    t = draw(st.integers(0, t_max))
    if draw(st.booleans()):
        word = st.sampled_from(draw(st.lists(word, min_size=2, max_size=2)))
    points = draw(st.lists(word, min_size=t, max_size=t))
    kind = draw(st.sampled_from(["hidden", "free", "extreme"]))
    if kind == "hidden":
        z = draw(st.integers(0, (1 << dim) - 1))
        values = [dim - (z ^ p).bit_count() for p in points]
    else:
        value = st.integers(0, dim) if kind == "free" else st.sampled_from([0, dim])
        values = draw(st.lists(value, min_size=t, max_size=t))
    return dim, points, values


@settings(max_examples=400, deadline=None)
@given(queries(st.integers(1, 20)))
def test_matches_filter_up_to_dim_20(query):
    assert_same_words(*query)


@settings(max_examples=120, deadline=None)
@given(queries(st.sampled_from([11, 12, 13])))
def test_matches_filter_around_the_split(query):
    assert_same_words(*query)


@settings(max_examples=6, deadline=None)
@given(queries(st.integers(21, 24)))
def test_matches_filter_above_dim_20(query):
    assert_same_words(*query)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(28, 40), st.integers(0, 2**64 - 1))
def test_matches_filter_on_star_ary_rounds(hidden, t, seed):
    # star_ary_onemax at n = 20 conditions on t = 28 uniform samples
    dim = 20
    z = hidden & ((1 << dim) - 1)
    points = [int(w) for w in np.random.default_rng(seed).integers(0, 1 << dim, size=t)]
    values = [dim - (z ^ p).bit_count() for p in points]
    assert_same_words(dim, points, values)
    assert z in consistent_words(dim, points, values)


@pytest.mark.parametrize("dim", [1, 4, 11, 12, 13, 16, 24])
def test_no_constraints_is_every_word(dim):
    got = consistent_words(dim, [], [])
    assert got.dtype == np.uint32
    np.testing.assert_array_equal(got, np.arange(1 << dim, dtype=np.uint32))


@pytest.mark.parametrize("dim", [3, 11, 12, 13, 20, 24])
def test_contradictory_constraints_are_empty(dim):
    point = (1 << dim) - 1 - 5
    assert_same_words(dim, [point, point], [1, 2])
    assert consistent_words(dim, [point, point], [1, 2]).size == 0


@pytest.mark.parametrize("dim", [1, 7, 12, 17, 24])
def test_extreme_values_pin_the_point_or_its_complement(dim):
    point = 0b1011 & ((1 << dim) - 1)
    complement = point ^ ((1 << dim) - 1)
    np.testing.assert_array_equal(consistent_words(dim, [point], [dim]), [point])
    np.testing.assert_array_equal(consistent_words(dim, [point], [0]), [complement])
    np.testing.assert_array_equal(
        consistent_words(dim, [point, point, point], [dim, dim, dim]), [point]
    )


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        consistent_words(12, [1, 2], [3])


@settings(max_examples=200, deadline=None)
@given(queries(st.integers(1, 20)), st.integers(0, 2**64 - 1))
def test_choose_consistent_word_matches_filter_backed_draw(query, seed):
    dim, points, values = query
    rng = np.random.default_rng(seed)
    got = choose_consistent_word(dim, points, values, rng)
    ref_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consistency, "consistent_words", filter_consistent_words)
        want = choose_consistent_word(dim, points, values, ref_rng)
    assert got == want
    assert rng.integers(2**63) == ref_rng.integers(2**63)


@pytest.mark.parametrize("dim", [12, 13, 20])
def test_choose_consistent_word_without_constraints(dim):
    # every word is consistent, so the draw is an index into all 2**dim words
    rng = np.random.default_rng(dim)
    ref_rng = np.random.default_rng(dim)
    word, draw = choose_consistent_word(dim, [], [], rng)
    want = int(ref_rng.integers(1 << dim))
    assert (word, draw) == (want, want)
    assert rng.integers(2**63) == ref_rng.integers(2**63)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def sub_histories(draw):
    """(n, points, values, anchor_lo, anchor_hi): a block of 0..26 positions
    (past the enumeration limit at times), points that mostly agree with the
    anchors off the block, values mostly in 0..len(block)."""
    n = draw(st.one_of(st.integers(1, 80), st.sampled_from([255, 256, 257, 1000])))
    full = (1 << n) - 1
    positions = draw(st.lists(st.integers(0, n - 1), max_size=ENUMERATION_DIM_LIMIT + 2))
    mask = sum(1 << p for p in set(positions))
    anchor_lo = draw(st.integers(0, full))
    anchor_hi = anchor_lo ^ mask
    t = draw(st.integers(0, 20))
    points = [
        (anchor_lo & ~mask) | (draw(st.integers(0, full)) & mask) for _ in range(t)
    ]
    if points and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, t - 1))
        points[i] ^= 1 << draw(st.integers(0, n - 1))
    ell = len(set(positions))
    values = draw(st.lists(st.integers(-1, ell + 1), min_size=t, max_size=t))
    return n, points, values, anchor_lo, anchor_hi


@settings(max_examples=400, deadline=None)
@given(sub_histories())
def test_block_projection_matches_loop(history):
    got = outcome(block_projection, *history)
    want = outcome(loop_block_projection, *history)
    assert got == want
    if not isinstance(got[0], type):
        assert all(type(w) is int for w in got[2])


@pytest.mark.parametrize("block", [(), (0,), (7,), (8,), (0, 8, 16, 23), tuple(range(40, 64))])
def test_block_projection_edges(block):
    n = 64
    mask = sum(1 << p for p in block)
    anchor_lo = 0x5A5A5A5A5A5A5A5A & ~mask
    points = [anchor_lo | (w & mask) for w in (0, mask, 0x0123456789ABCDEF)]
    values = [0, len(block), len(block) // 2]
    args = (n, points, values, anchor_lo, anchor_lo | mask)
    assert block_projection(*args) == loop_block_projection(*args)
    assert block_projection(*args[:1], [], [], *args[3:]) == (block, anchor_lo, [])
