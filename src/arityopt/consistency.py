"""Exact enumeration of agreement-consistent hypothesis sets.

Given queried points x^1..x^t and their observed agreement counts u^1..u^t,
the consistent set is every z with agreement(z, x^i) = u^i for all i.  This
module enumerates that set exactly (the enumeration is the correctness
oracle, not an approximation), projects a ``chooseConsistentSub`` history
onto its block and embeds block words back.  The samplers are the
chooseConsistent kernels in ``operators``.

The enumeration (``consistent_words``) is a meet-in-the-middle join in the
manner of Horowitz and Sahni: a word splits into a high and a low half, the
Hamming distance to each point is the sum of the two halves' distances, so
each half is tabulated once against every point (2**(dim/2) rows per half
instead of 2**dim words) and the halves are joined on the distances the low
half must supply.  Below dimension 12 the low half is empty and the join is
a single filter pass over all words.  Enumeration is bounded at dimension 24;
beyond that the operations fail loudly instead of degrading.

``consistent_words`` remembers its results for the last two distinct argument
sets and returns them read-only.  Only statistical certification trials hit
the memo: each alternates between an input set and its transformed image on
every sample, where an exact trial builds each pmf once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitcore import BitString, differing_positions

__all__ = [
    "ExactEnumerationUnavailable",
    "ConsistencyQuery",
    "consistent_set",
    "consistent_words",
    "block_projection",
    "embed_word",
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

    The array is read-only and shared: a call whose (dim, words, values)
    equal one of the last two distinct calls' returns that call's array
    without enumerating.  Every value must lie in 0..dim and every point in
    0..2**dim - 1; invalid arguments raise ``ValueError`` on every call.
    """
    _require_enumerable(dim)
    if len(point_words) != len(values):
        raise ValueError(f"{len(point_words)} points vs {len(values)} values")
    return _join(dim, tuple(point_words), tuple(values))


@lru_cache(maxsize=2)
def _join(dim: int, point_words: tuple, values: tuple) -> np.ndarray:
    """The enumeration behind ``consistent_words``, memoised by its arguments."""
    for w, u in zip(point_words, values):
        if not (0 <= w < 1 << dim and 0 <= u <= dim):
            raise ValueError(f"need points below 2**{dim} and values in 0..{dim}, got point {w} with value {u}")
    lo_bits = dim // 2 if dim >= _SPLIT_MIN_DIM else 0
    xs = np.array(point_words, dtype=np.uint32).reshape(-1, 1)
    target = np.array([dim - u for u in values], dtype=np.uint8).reshape(-1, 1)
    hi = np.arange(1 << (dim - lo_bits), dtype=np.uint32)
    # Distance left for the low half; uint8 wraps a negative one above lo_bits.
    resid = target - np.bitwise_count(hi ^ (xs >> lo_bits))
    keep = (resid <= lo_bits).all(axis=0)
    hi = hi[keep]
    if lo_bits == 0 or hi.size == 0:
        hi.setflags(write=False)
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
    z.setflags(write=False)
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


def embed_word(small, positions, base: int):
    """Write bit j of ``small`` into ``base`` at ``positions[j]``, for each j.

    ``small`` is an int, or an integer array embedded elementwise into int64.
    """
    out = base
    if isinstance(small, np.ndarray):
        small = small.astype(np.int64)
        out = np.full(small.shape, base, dtype=np.int64)
    for j, p in enumerate(positions):
        out = (out & ~(1 << p)) | (((small >> j) & 1) << p)
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

