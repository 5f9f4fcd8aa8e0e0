"""The meet-in-the-middle ``consistent_words`` against the full scan it replaced.

``consistent_words`` joins a high and a low half of each word on the
distances the low half must supply.  It must return exactly what the earlier
full scan over all 2**dim words returned: the same uint32 words in the same
ascending order, so that the chooseConsistent kernel's uniform index picks
the same word and seeded runs keep their query counts and output bytes.  The
earlier scan is kept here verbatim as the oracle.

``block_projection`` projects a ``chooseConsistentSub`` history onto the
anchors' block with one numpy unpack and pack of all the points together.
It must return the words and raise the errors, in the same order, of the
earlier per-point loop, also kept here verbatim.

The chooseConsistent and chooseConsistentSub kernels in ``operators`` draw
what ``choose_consistent_word`` and ``choose_consistent_sub_word``, the
samplers ``consistency`` used to define, drew.  Those two are kept here
verbatim as the oracle: ``sample_operator`` must return the same word, raise
the same error and leave the generator in the same state.  They memoise
their survivors by their own arguments, so a draw on a remembered key must
equal the same draw after the memo is cleared, word and generator state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt import operators
from arityopt.bitcore import differing_positions, random_word
from arityopt.consistency import (
    ENUMERATION_DIM_LIMIT,
    _require_enumerable,
    block_projection,
    consistent_words,
    embed_word,
)
from arityopt.operators import choose_consistent_id, choose_consistent_sub_id, sample_operator
from arityopt.unbiasedness import _trial_case


def project_word(word: int, positions) -> int:
    """Compress the bits of ``word`` at ``positions`` into a small word."""
    out = 0
    for j, p in enumerate(positions):
        if (word >> p) & 1:
            out |= 1 << j
    return out


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


def choose_consistent_word(dim: int, point_words, values, rng: np.random.Generator) -> int:
    """Uniform consistent word, or uniform over all words if none is consistent.

    Returns the word; it is the survivor at a uniform index into the
    ascending ``consistent_words`` array, or a ``random_word`` when that is
    empty.
    """
    survivors = consistent_words(dim, point_words, values)
    if survivors.size == 0:
        return random_word(dim, rng)
    return int(survivors[int(rng.integers(survivors.size))])


def choose_consistent_sub_word(n: int, point_words, values, anchor_lo: int, anchor_hi: int,
                               rng: np.random.Generator) -> int:
    """Block-restricted consistent draw; the block is where the anchors differ.

    The history is validated and projected by ``block_projection``; the
    values are block-level agreement counts.  Returns the word, which always
    carries the anchors' bits outside the block.
    """
    block, outside, projected = block_projection(n, point_words, values, anchor_lo, anchor_hi)
    small = choose_consistent_word(len(block), projected, values, rng) if block else 0
    return embed_word(small, block, outside)


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
    got = sample_operator(choose_consistent_id(values), points, dim, rng)
    ref_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "consistent_words", filter_consistent_words)
        want = sample_operator(choose_consistent_id(values), points, dim, ref_rng)
    assert got == want
    assert rng.integers(2**63) == ref_rng.integers(2**63)


@pytest.mark.parametrize("dim", [12, 13, 20])
def test_choose_consistent_word_without_constraints(dim):
    # every word is consistent, so the draw is an index into all 2**dim words
    rng = np.random.default_rng(dim)
    ref_rng = np.random.default_rng(dim)
    assert sample_operator(choose_consistent_id([]), [], dim, rng) == int(ref_rng.integers(1 << dim))
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


def assert_same_draw(op, words, n, seed, reference, *ref_args):
    """sample_operator and the reference give the same word or error and
    leave their generators in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = outcome(sample_operator, op, words, n, rng)
    assert got == outcome(reference, *ref_args, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


@pytest.mark.parametrize("dim", [11, 12, 13, 20, 24])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_choose_consistent_kernel_matches_reference(dim, data):
    _, points, values = data.draw(queries(st.just(dim), t_max=12))
    seed = data.draw(st.integers(0, 2**64 - 1))
    got = assert_same_draw(choose_consistent_id(values), points, dim, seed,
                           choose_consistent_word, dim, points, values)
    assert 0 <= got < 1 << dim


@pytest.mark.parametrize("dim", [3, 11, 12, 13, 20, 24])
def test_choose_consistent_kernel_on_an_empty_set(dim):
    # contradictory values: the draw falls back to a uniform word
    point = (1 << dim) - 1 - 5
    assert consistent_words(dim, [point, point], [1, 2]).size == 0
    for seed in range(5):
        assert_same_draw(choose_consistent_id([1, 2]), [point, point], dim, seed,
                         choose_consistent_word, dim, [point, point], [1, 2])


def sub_draw(history, seed):
    n, points, values, anchor_lo, anchor_hi = history
    words = points + [anchor_lo, anchor_hi]
    return assert_same_draw(choose_consistent_sub_id(values), words, n, seed,
                            choose_consistent_sub_word, n, points, values, anchor_lo, anchor_hi)


@settings(max_examples=300, deadline=None)
@given(sub_histories(), st.integers(0, 2**64 - 1))
def test_choose_consistent_sub_kernel_matches_reference(history, seed):
    sub_draw(history, seed)


@pytest.mark.parametrize("n", [1, 8, 64, 65, 200])
def test_choose_consistent_sub_kernel_on_an_empty_block(n):
    # equal anchors: the block is empty, every value is 0 and the output is
    # the anchor, drawn from the one-word set without moving the generator
    anchor = 0x5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A5A & ((1 << n) - 1)
    for t in (0, 1, 3):
        history = (n, [anchor] * t, [0] * t, anchor, anchor)
        assert sub_draw(history, t) == anchor
    assert sub_draw((n, [anchor], [1], anchor, anchor), 0)[0] is ValueError


@pytest.mark.parametrize("block", [(0, 63, 64, 65), (60, 70, 80, 90, 99), tuple(range(50, 74))])
def test_choose_consistent_sub_kernel_past_64_bits(block):
    n = 100
    mask = sum(1 << p for p in block)
    anchor_lo = (0x0123456789ABCDEF0123456789ABCDEF & ((1 << n) - 1)) & ~mask
    rng = np.random.default_rng(len(block))
    hidden = int(rng.integers(1 << len(block)))
    points = [anchor_lo | embed_word(int(rng.integers(1 << len(block))), block, 0) for _ in range(6)]
    z = embed_word(hidden, block, anchor_lo)
    values = [len(block) - ((z ^ p) & mask).bit_count() for p in points]
    for seed in range(4):
        word = sub_draw((n, points, values, anchor_lo, anchor_lo | mask), seed)
        assert word & ~mask == anchor_lo
        # agreement 0 and len(block) with one point: the set is empty
        sub_draw((n, points[:1] * 2, [0, len(block)], anchor_lo, anchor_lo | mask), seed)


@pytest.mark.parametrize("family", ["chooseConsistent", "chooseConsistentSub"])
@pytest.mark.parametrize("n", [6, 12])
def test_memo_hit_draws_as_a_fresh_enumeration(family, n):
    # The kernels memoise their survivors (operators._survivors): a call on a
    # remembered key must draw the word, and leave the full generator state,
    # of the same call after cache_clear().  The certifier's own cases, half
    # of them with values no string realises, so empty sets are drawn too.
    cases = np.random.default_rng([n, len(family)])
    for seed in range(40):
        op, words = _trial_case(family, n, cases)
        operators._survivors.cache_clear()
        sample_operator(op, words, n, np.random.default_rng(10**6 + seed))
        hit_rng, fresh_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            hits = operators._survivors.cache_info().hits
            hit = sample_operator(op, words, n, hit_rng)
            assert operators._survivors.cache_info().hits == hits + 1
            operators._survivors.cache_clear()
            fresh = sample_operator(op, words, n, fresh_rng)
            assert operators._survivors.cache_info().misses == 1
            assert hit == fresh
            assert hit_rng.bit_generator.state == fresh_rng.bit_generator.state
