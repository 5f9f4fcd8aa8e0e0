"""Uniform sampling from agreement-consistent hypothesis sets.

Given queried points x^1..x^t and their observed agreement counts u^1..u^t,
the consistent set is every z with agreement(z, x^i) = u^i for all i.  The
samplers here enumerate that set exactly (the enumeration is the correctness
oracle, not an approximation) and draw from it with a single uniform index
into the ascending array of survivors, which makes the draw exactly uniform
rather than approximately so.

The enumeration (``consistent_words``) is a meet-in-the-middle join in the
manner of Horowitz and Sahni: a word splits into a high and a low half, the
Hamming distance to each point is the sum of the two halves' distances, so
each half is tabulated once against every point (2**(dim/2) rows per half
instead of 2**dim words) and the halves are joined on the distances the low
half must supply.  Below dimension 12 the low half is empty and the join is
a single filter pass over all words.  Enumeration is bounded at dimension 24;
beyond that the operations fail loudly instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitcore import BitString, differing_positions

__all__ = [
    "ExactEnumerationUnavailable",
    "ConsistencyQuery",
    "consistent_set",
    "choose_consistent",
    "choose_consistent_sub",
    "ENUMERATION_DIM_LIMIT",
]

ENUMERATION_DIM_LIMIT = 24
# Smallest dimension at which consistent_words splits words into two halves.
_SPLIT_MIN_DIM = 12
# Constraints packed into consistent_words' uint64 join key, one byte each.
_KEY_BYTES = 8


class ExactEnumerationUnavailable(ValueError):
    """The requested exact enumeration exceeds the supported dimension."""


@dataclass(frozen=True)
class ConsistencyQuery:
    """Observed points and agreement values constraining the hidden string."""

    dim: int
    points: tuple[BitString, ...] = ()
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if len(self.points) != len(self.values):
            raise ValueError(
                f"{len(self.points)} points vs {len(self.values)} values"
            )
        for p in self.points:
            if p.n != self.dim:
                raise ValueError(f"point length {p.n} != dim {self.dim}")
        for u in self.values:
            if not 0 <= u <= self.dim:
                raise ValueError(f"value {u} outside 0..{self.dim}")


def _require_enumerable(dim: int) -> None:
    if dim > ENUMERATION_DIM_LIMIT:
        raise ExactEnumerationUnavailable(
            f"dimension {dim} exceeds enumeration limit {ENUMERATION_DIM_LIMIT}"
        )


def consistent_words(dim: int, point_words, values) -> np.ndarray:
    """All words z with agreement(z, x_i) = u_i for every constraint, ascending.

    Agreement is dim minus Hamming distance, so z survives when
    popcount(z ^ x_i) == dim - u_i for every i.  Split z = (hi << lo_bits) | lo;
    the distance is dist_hi_i(hi) + dist_lo_i(lo), so a low half completes a
    high half exactly when dist_lo_i(lo) equals the residual
    (dim - u_i) - dist_hi_i(hi) for every i:

    1. Tabulate every high half's residuals, a t x 2**(dim - lo_bits) table,
       and keep the high halves whose residuals all lie in 0..lo_bits.
    2. Key each kept high half by its first ``_KEY_BYTES`` residuals, and
       each low half by its first ``_KEY_BYTES`` distances, one byte apiece
       read as one uint64.
    3. Sort the low halves stably by key; each high half's key then finds
       its matching low halves as one run, ascending.
    4. Emit (hi << lo_bits) | lo, high halves ascending and low halves
       ascending within each, and filter these candidates on the constraints
       the key had no room for.

    The tables hold about t * 2**(dim/2) entries where a full scan reads
    2**dim words.  Below ``_SPLIT_MIN_DIM`` the low half is empty and step 1
    is the whole computation: one filter pass over all 2**dim words, which at
    small dim costs less than the join's fixed overhead.  The array is the
    same for any split.
    """
    _require_enumerable(dim)
    if len(point_words) != len(values):
        raise ValueError(f"{len(point_words)} points vs {len(values)} values")
    lo_bits = dim // 2 if dim >= _SPLIT_MIN_DIM else 0
    xs = np.array(point_words, dtype=np.uint32).reshape(-1, 1)
    target = np.array([dim - u for u in values], dtype=np.uint8).reshape(-1, 1)
    hi = np.arange(1 << (dim - lo_bits), dtype=np.uint32)
    # Distance left for the low half; uint8 wraps a negative one above lo_bits.
    resid = target - np.bitwise_count(hi ^ (xs >> lo_bits))
    keep = (resid <= lo_bits).all(axis=0)
    hi = hi[keep]
    if lo_bits == 0 or hi.size == 0:
        return hi
    n_key = min(xs.size, _KEY_BYTES)
    lo = np.arange(1 << lo_bits, dtype=np.uint32)
    lo_dist = np.bitwise_count(lo ^ (xs[:n_key] & np.uint32((1 << lo_bits) - 1)))
    lo_key = _row_keys(lo_dist)
    hi_key = _row_keys(resid[:n_key, keep])
    order = np.argsort(lo_key, kind="stable")
    lo_key = lo_key[order]
    start = np.searchsorted(lo_key, hi_key, side="left")
    counts = np.searchsorted(lo_key, hi_key, side="right") - start
    # Output position p of high half h reads order[start[h] + p - first[h]],
    # where first[h] is h's first output position.
    first = np.cumsum(counts) - counts
    pos = np.arange(int(first[-1] + counts[-1]), dtype=np.int32)
    pos += np.repeat((start - first).astype(np.int32), counts)
    z = np.repeat(hi << np.uint32(lo_bits), counts)
    z |= order.astype(np.uint32)[pos]
    if n_key < xs.size:
        z = z[(np.bitwise_count(z ^ xs[n_key:]) == target[n_key:]).all(axis=0)]
    return z


def _row_keys(table: np.ndarray) -> np.ndarray:
    """One uint64 per column of a uint8 table of at most _KEY_BYTES rows:
    the column's bytes, zero-padded; equal columns give equal keys."""
    packed = np.zeros((table.shape[1], _KEY_BYTES), dtype=np.uint8)
    packed[:, : table.shape[0]] = table.T
    return packed.view(np.uint64).ravel()


def consistent_set(q: ConsistencyQuery) -> set[BitString]:
    """The exact consistent set for the query, as a set of bitstrings."""
    words = consistent_words(q.dim, [p.word for p in q.points], q.values)
    return {BitString(q.dim, int(w)) for w in words}


def choose_consistent_word(
    dim: int, point_words, values, rng: np.random.Generator
) -> tuple[int, int]:
    """Uniform consistent word, or uniform over all words if none is consistent.

    Returns (word, draw) where draw records the uniform index or fallback word.
    """
    survivors = consistent_words(dim, point_words, values)
    if survivors.size == 0:
        word = int.from_bytes(rng.bytes((dim + 7) // 8), "little") & ((1 << dim) - 1)
        return word, word
    idx = int(rng.integers(survivors.size))
    return int(survivors[idx]), idx


def choose_consistent(q: ConsistencyQuery, rng: np.random.Generator) -> BitString:
    """Uniform draw from consistent_set(q); uniform over {0,1}^dim if empty."""
    word, _ = choose_consistent_word(q.dim, [p.word for p in q.points], q.values, rng)
    return BitString(q.dim, word)


def project_word(word: int, positions) -> int:
    """Compress the bits of ``word`` at ``positions`` into a small word."""
    out = 0
    for j, p in enumerate(positions):
        if (word >> p) & 1:
            out |= 1 << j
    return out


def embed_word(small: int, positions, base: int) -> int:
    """Write the bits of ``small`` into ``base`` at ``positions``."""
    out = base
    for j, p in enumerate(positions):
        if (small >> j) & 1:
            out |= 1 << p
        else:
            out &= ~(1 << p)
    return out


def block_projection(n: int, point_words, values, anchor_lo: int, anchor_hi: int):
    """Project a ``chooseConsistentSub`` history onto the anchors' block.

    The block is where the anchors differ.  Every history point must agree
    with the anchors outside it, and every value must be a block-level count
    in 0..len(block).  Returns (block_positions, outside, projected_words),
    where ``outside`` is the anchors' shared bits off the block.
    """
    block = tuple(differing_positions(anchor_lo, anchor_hi, n).tolist())
    _require_enumerable(len(block))
    block_mask = (anchor_lo ^ anchor_hi) & ((1 << n) - 1)
    outside = anchor_lo & ~block_mask
    off_block = ~block_mask & ((1 << n) - 1)
    # All points at once: point i's block span sits in slot i of one int, and
    # each block position moves its bit of every slot in one shift and mask.
    low = block[0] if block else 0
    slot = block[-1] - low + 1 if block else 1
    stacked = 0
    for i, w in enumerate(point_words):
        if w & off_block != outside:
            raise ValueError("history point disagrees with the anchors outside the block")
        stacked |= ((w & block_mask) >> low) << (i * slot)
    for u in values:
        if not 0 <= u <= len(block):
            raise ValueError(f"block value {u} outside 0..{len(block)}")
    ones = ((1 << (len(point_words) * slot)) - 1) // ((1 << slot) - 1)
    packed = 0
    for j, p in enumerate(block):
        packed |= ((stacked >> (p - low)) & ones) << j
    small = (1 << len(block)) - 1
    return block, outside, [(packed >> (i * slot)) & small for i in range(len(point_words))]


def choose_consistent_sub_word(
    n: int,
    point_words,
    values,
    anchor_lo: int,
    anchor_hi: int,
    rng: np.random.Generator,
) -> tuple[int, int, tuple[int, ...]]:
    """Block-restricted consistent draw; the block is where the anchors differ.

    The history is validated and projected by ``block_projection``; the
    values are block-level agreement counts.  Returns (word, block_draw,
    block_positions); the output always carries the anchors' bits outside
    the block.
    """
    block, outside, projected = block_projection(n, point_words, values, anchor_lo, anchor_hi)
    small, draw = choose_consistent_word(len(block), projected, values, rng) if block else (0, 0)
    return outside | embed_word(small, block, 0), draw, block


def choose_consistent_sub(
    block: tuple[int, ...] | frozenset,
    history: list[tuple[BitString, int]],
    anchor_pair: tuple[BitString, BitString],
    rng: np.random.Generator,
) -> BitString:
    """Uniform block-level consistent draw embedded in the anchors' suffix.

    ``block`` must be exactly the positions where the two anchors differ;
    ``history`` pairs each observed point with its block-level agreement
    count (any shared offset already subtracted by the caller).
    """
    a_lo, a_hi = anchor_pair
    if a_lo.n != a_hi.n:
        raise ValueError(f"length mismatch: {a_lo.n} != {a_hi.n}")
    actual = tuple(int(p) for p in differing_positions(a_lo.word, a_hi.word, a_lo.n))
    if tuple(sorted(block)) != actual:
        raise ValueError("block is not the set of positions where the anchors differ")
    word, _, _ = choose_consistent_sub_word(
        a_lo.n,
        [p.word for p, _ in history],
        [u for _, u in history],
        a_lo.word,
        a_hi.word,
        rng,
    )
    return BitString(a_lo.n, word)
