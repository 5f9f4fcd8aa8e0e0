"""Unbiased variation operators: seeded samplers plus exact output supports.

Each operator exists in two forms: a sampler that draws one output from the
operator's distribution using a caller-supplied generator, and (for n up to
16) its exact output distribution.  The exact form is what makes
unbiasedness certification exact instead of statistical.  Every family is
uniform on its support, so the distribution is defined once, by
``output_support``: the ascending int64 array of output words, each with
probability 1/size.  ``exact_pmf`` is the same distribution as an
``OutputDistribution`` over ``BitString`` outputs.

The word-level kernels are the only definition of what an operator samples.
``OPERATORS`` maps each family name to its kernel and its arity rule, and
``OperatorId``, ``sample_operator`` (the hot path shared with the run engine
and the statistical certifier) and the final, deterministic branch of
``output_support`` all read that one table.  A family's arity rule is its fixed
arity, an int, for a family that takes no params; for a parametric family it
is a function from the params to the arity, which raises ``ValueError``
naming the family on params it rejects.  ``OperatorId`` applies the rule
once and stores the arity it gives.

chooseConsistent draws a uniform index into the ascending ``consistent_words``
survivors, or a uniform word if there are none; chooseConsistentSub makes
that draw on its anchors' block, between ``block_projection`` and ``embed_word``.
Both memoise all before the draw in one entry keyed by their own arguments
(``_survivors``), as a statistical trial draws each input set's samples in a run.

flipOneWhereDifferent flips the set bit of d = x ^ y at a uniform rank, and
flipKWhereDifferent those at the ranks it draws.  Both read d's set bits from
``_positions``, a one-entry, per-thread memo keyed on the last parent pair,
which holds their ascending positions and flipOne's last output and drawn
index.  Along pair descent the next pair is the same one, in either order, or
has that output in place of the parent flipOne flipped; the first reads the
positions as they are and the second deletes the drawn index.  Any other pair
is built.

Uniform words (uniformSample, randomWhereDifferent's mask and an empty
consistent set's word) come from ``bitcore.random_word``, raw 64-bit outputs
of the bit generator.  Bounded draws go through ``_below``, which replays
numpy's ``rng.integers(m)`` (Lemire's multiply-shift rejection) on the bit
generator's C interface.
flipK makes numpy's Floyd draws, then its shuffle's, on ``_below`` at every
take: ``Generator.choice(c, take, replace=False)`` wherever numpy runs Floyd's
algorithm (c <= 10,000, or take <= c // 50).  Differential tests pin both to
numpy, and CI runs them on numpy 2.0 too.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import fsum

import numpy as np

from .bitcore import BitString, differing_positions, random_word
from .consistency import ExactEnumerationUnavailable, block_projection, consistent_words, embed_word

__all__ = [
    "OperatorId",
    "OutputDistribution",
    "OPERATORS",
    "sample_operator",
    "exact_pmf",
    "output_support",
    "EXACT_PMF_LIMIT",
    "UNIFORM_SAMPLE",
    "COMPLEMENT",
    "FLIP_ONE_WHERE_DIFFERENT",
    "RANDOM_WHERE_DIFFERENT",
    "UPDATE",
    "SWITCH_IF_DISTANCE_ONE",
    "FLIP_ONE_UNIFORM",
    "flip_k_id",
    "choose_consistent_id",
    "choose_consistent_sub_id",
]

EXACT_PMF_LIMIT = 16


@dataclass(frozen=True)
class OutputDistribution:
    """Exact output distribution of one operator application."""

    support: dict

    def __post_init__(self) -> None:
        values = list(self.support.values())
        total = fsum(values)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if min(values) < 0:
            raise ValueError("negative probability in support")


def _below(m: int, rng: np.random.Generator) -> int:
    """``int(rng.integers(m))`` for 1 <= m < 2**32, leaving the same state:
    numpy's method on ``next_uint32``, without numpy's dispatch or its lock."""
    if not 0 < m < 1 << 32:
        raise ValueError(f"bounded draws need 1 <= m < 2**32, got {m}")
    if m == 1:
        return 0
    bits = rng.bit_generator.ctypes
    draw, state = bits.next_uint32, bits.state
    product = draw(state) * m
    if product & 0xFFFFFFFF < m:
        threshold = ((1 << 32) - m) % m
        while product & 0xFFFFFFFF < threshold:
            product = draw(state) * m
    return product >> 32


# Word-level kernels.  Each returns its output word; the deterministic ones
# ignore rng.

def _k_uniform(words, n, params, rng):
    return random_word(n, rng)


def _k_complement(words, n, params, rng):
    return ~words[0] & ((1 << n) - 1)


class _PositionsMemo:
    """The flip kernels' last parents ``x`` and ``y``; ``pos``, the ascending
    positions of the set bits of x ^ y, or None until they are built; and
    flipOne's last output ``out``, x flipped at ``pos[i]``, or None."""

    __slots__ = ("x", "y", "pos", "out", "i")

    def __init__(self) -> None:
        self.x = self.y = self.pos = self.out = self.i = None


class _ThreadMemos(threading.local):
    """A ``_PositionsMemo`` per thread, made on its first call and read once per
    call: a thread-local's attribute costs about three times a slot's."""

    def __init__(self) -> None:
        self.positions = _PositionsMemo()


_thread_memos = _ThreadMemos()


def _positions(memo: _PositionsMemo, x: int, y: int, n: int) -> array:
    """The ascending positions of the set bits of x ^ y: the memo's own if (x, y)
    is its pair in either order, less index ``i`` if flipOne's last output took
    the place of the parent it flipped, else built.  Callers only read them."""
    a, b, pos, out = memo.x, memo.y, memo.pos, memo.out
    memo.pos = memo.out = None  # cleared first: no pair holds another's positions or draw
    if pos is not None and (x == a and y == b or x == b and y == a):
        pass  # the same pair: a rejected flip
    elif out is not None and (x == out and y == b or x == b and y == out):
        del pos[memo.i]  # a kept flip: that bit left the difference
    else:
        pos = array("q")  # filled in place: a copy through bytes raised peak RSS
        pos.frombytes(differing_positions(x ^ y, 0, n).astype(np.int64, copy=False).view(np.uint8))
    memo.x, memo.y, memo.pos = x, y, pos
    return pos


def _k_flip_one(words, n, params, rng):
    x, y = words
    memo = _thread_memos.positions
    pos = _positions(memo, x, y, n)
    if not pos:
        return x
    i = memo.i = _below(len(pos), rng)
    memo.out = out = x ^ (1 << pos[i])
    return out


def _k_flip_k(words, n, params, rng):
    x, y = words
    pos = _positions(_thread_memos.positions, x, y, n)
    c = len(pos)
    take = min(params[0], c)
    ranks = set()  # numpy's Floyd draws, then its shuffle's, whose order xor ignores
    for j in range(c - take, c):
        v = _below(j + 1, rng)
        ranks.add(j if v in ranks else v)
    for i in range(take - 1, 0, -1):
        _below(i + 1, rng)
    return y ^ sum(1 << pos[r] for r in ranks)  # distinct ranks: the sum is the bits' xor


def _k_rwd(words, n, params, rng):
    x, y = words
    d = x ^ y
    if d == 0:
        return x
    return x ^ (d & random_word(n, rng))


def _k_update(words, n, params, rng):
    a, b, c = words
    agree = ~(a ^ c) & ((1 << n) - 1)
    return (agree & b) | (a & ~agree)


def _k_switch(words, n, params, rng):
    y, y2 = words
    return y2 if (y ^ y2).bit_count() == 1 else y


def _k_flip_one_uniform(words, n, params, rng):
    return words[0] ^ (1 << _below(n, rng))


@lru_cache(maxsize=1)
def _survivors(n: int, words: tuple, params: tuple, family: str):
    """chooseConsistent's ``consistent_words`` survivors, or chooseConsistentSub's
    block, ``outside`` and block survivors; the memo of both kernels."""
    if family == "chooseConsistent":
        return consistent_words(n, words, params)
    block, outside, projected = block_projection(n, words[:-2], params, words[-2], words[-1])
    return block, outside, consistent_words(len(block), projected, params)


def _draw(survivors: np.ndarray, n: int, rng) -> int:
    return int(survivors[_below(survivors.size, rng)]) if survivors.size else random_word(n, rng)


def _k_choose_consistent(words, n, params, rng):
    return _draw(_survivors(n, tuple(words), params, "chooseConsistent"), n, rng)


def _k_choose_consistent_sub(words, n, params, rng):
    block, outside, survivors = _survivors(n, tuple(words), params, "chooseConsistentSub")
    return embed_word(_draw(survivors, len(block), rng), block, outside)


def _flip_k_arity(params) -> int:
    if len(params) != 1 or params[0] < 0:
        raise ValueError(f"flipKWhereDifferent needs params (ell,) with ell >= 0, got {params!r}")
    return 2


# The operator table: family name -> (kernel, arity rule).  The rule is the
# fixed arity of a family without params, or a function from the params to
# the arity: flipKWhereDifferent takes (ell,) on two parents,
# chooseConsistent its target agreement values, one parent per value, and
# chooseConsistentSub its block-level values, one parent per value plus two
# anchors.
OPERATORS = {
    "uniformSample": (_k_uniform, 0),
    "complement": (_k_complement, 1),
    "flipOneWhereDifferent": (_k_flip_one, 2),
    "flipKWhereDifferent": (_k_flip_k, _flip_k_arity),
    "randomWhereDifferent": (_k_rwd, 2),
    "update": (_k_update, 3),
    "switchIfDistanceOne": (_k_switch, 2),
    "flipOneUniform": (_k_flip_one_uniform, 1),
    "chooseConsistent": (_k_choose_consistent, len),
    "chooseConsistentSub": (_k_choose_consistent_sub, lambda values: len(values) + 2),
}


@dataclass(frozen=True)
class OperatorId:
    """Identity of one variation operator: name, optional int params, arity.

    The params are None for a family without params, and otherwise are
    stored as a tuple of ints.  The arity is not passed: it is what the
    family's rule in ``OPERATORS`` gives for the params.
    """

    name: str
    params: tuple[int, ...] | None = None
    arity: int = field(init=False)

    def __post_init__(self) -> None:
        if self.name not in OPERATORS:
            raise ValueError(f"unknown operator name {self.name!r}")
        rule = OPERATORS[self.name][1]
        fixed = isinstance(rule, int)
        if fixed != (self.params is None):
            raise ValueError(f"{self.name} {'takes no params' if fixed else 'needs params'}")
        if not fixed:
            try:
                object.__setattr__(self, "params", tuple(map(int, self.params)))
            except TypeError:
                raise ValueError(
                    f"{self.name} needs a sequence of int params, got {self.params!r}"
                ) from None
        object.__setattr__(self, "arity", rule if fixed else rule(self.params))


UNIFORM_SAMPLE = OperatorId("uniformSample")
COMPLEMENT = OperatorId("complement")
FLIP_ONE_WHERE_DIFFERENT = OperatorId("flipOneWhereDifferent")
RANDOM_WHERE_DIFFERENT = OperatorId("randomWhereDifferent")
UPDATE = OperatorId("update")
SWITCH_IF_DISTANCE_ONE = OperatorId("switchIfDistanceOne")
FLIP_ONE_UNIFORM = OperatorId("flipOneUniform")


def flip_k_id(ell: int) -> OperatorId:
    return OperatorId("flipKWhereDifferent", (ell,))


def choose_consistent_id(values) -> OperatorId:
    return OperatorId("chooseConsistent", values)


def choose_consistent_sub_id(values) -> OperatorId:
    return OperatorId("chooseConsistentSub", values)


def sample_operator(op: OperatorId, words, n: int, rng: np.random.Generator) -> int:
    """Sample one output word of op on the parent words."""
    if len(words) != op.arity:
        raise ValueError(f"{op.name} expects {op.arity} parents, got {len(words)}")
    return OPERATORS[op.name][0](words, n, op.params, rng)


def _check_lengths(*xs: BitString) -> int:
    n = xs[0].n
    for x in xs[1:]:
        if x.n != n:
            raise ValueError(f"length mismatch: {x.n} != {n}")
    return n


def output_support(op: OperatorId, words, n: int) -> np.ndarray:
    """Exact output distribution of op on the parent words (n <= 16): the
    ascending int64 array of its outputs, each with probability 1/size.
    Each family returns the index array it builds: the submasks of the
    parents' difference, the survivors of ``consistent_words`` or their
    embedding, or its deterministic kernel's word.
    """
    if len(words) != op.arity:
        raise ValueError(f"{op.name} expects {op.arity} parents, got {len(words)}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    for w in words:
        if w < 0 or w >> n:
            raise ValueError(f"word {w:#x} does not fit in {n} bits")
    name = op.name
    if name == "uniformSample":
        return np.arange(1 << n)
    if name == "flipOneWhereDifferent":
        x, y = words
        pos = differing_positions(x, y, n)
        return np.sort(x ^ (1 << pos)) if pos.size else np.array([x])
    if name in ("flipKWhereDifferent", "randomWhereDifferent"):
        x, y = words
        d = x ^ y
        sub = np.arange(1 << n)
        sub = sub[(sub & d) == sub]
        if name == "randomWhereDifferent":
            return np.sort(x ^ sub)
        return np.sort(y ^ sub[np.bitwise_count(sub) == min(op.params[0], d.bit_count())])
    if name == "flipOneUniform":
        return np.sort(words[0] ^ (1 << np.arange(n)))
    if name == "chooseConsistent":
        survivors = consistent_words(n, words, op.params)
        return survivors.astype(np.int64) if survivors.size else np.arange(1 << n)
    if name == "chooseConsistentSub":
        block, outside, proj = block_projection(n, words[:-2], op.params, words[-2], words[-1])
        survivors = consistent_words(len(block), proj, op.params)
        if survivors.size == 0:
            survivors = np.arange(1 << len(block))
        # the block ascends, so embedding keeps the survivors' order
        return embed_word(survivors, block, outside)
    # every family left is deterministic: its kernel needs no generator
    return np.array([OPERATORS[name][0](words, n, None, None)])


def exact_pmf(op: OperatorId, inputs: list[BitString], n: int | None = None) -> OutputDistribution:
    """Full output distribution of op on the given parents, built from
    ``output_support`` (n <= 16).  ``n`` is required only for 0-ary
    operators, where no parent fixes the length."""
    if len(inputs) != op.arity:
        raise ValueError(f"{op.name} expects {op.arity} parents, got {len(inputs)}")
    if inputs:
        n = _check_lengths(*inputs)
    elif n is None:
        raise ValueError("n is required for 0-ary operators")
    support = output_support(op, [x.word for x in inputs], n)
    p = 1.0 / support.size
    return OutputDistribution({BitString(n, w): p for w in support.tolist()})
