"""Unbiased variation operators: seeded samplers plus exact output pmfs.

Each operator exists in two forms: a sampler that draws one output from the
operator's distribution using a caller-supplied generator, and (for n up to
16) the exact probability mass function over outputs.  The pmf form is what
makes unbiasedness certification exact instead of statistical.  It is defined
once, by ``pmf_vector``: a dense float64 array of length 2**n indexed by
output word, which the certifier pushes through xor shifts by an index
array and through permutations by a tensor transpose.  ``exact_pmf`` is the same pmf as an ``OutputDistribution``
over ``BitString`` outputs, built from the vector's nonzero entries.

The word-level kernels are the only definition of what an operator samples.
``OPERATORS`` maps each family name to its kernel and its arity rule, and
``OperatorId``, ``sample_operator`` (the hot path shared with the run engine
and the statistical certifier) and the final, deterministic branch of
``pmf_vector`` all read that one table.  A family's arity rule is its fixed
arity, an int, for a family that takes no params; for a parametric family it
is a function from the params to the arity, which raises ``ValueError``
naming the family on params it rejects.  ``OperatorId`` applies the rule
once and stores the arity it gives.

chooseConsistent draws a uniform index into the ascending ``consistent_words``
survivors, or a uniform word if there are none; chooseConsistentSub makes
that draw on its anchors' block, between ``block_projection`` and ``embed_word``.

Bounded draws go through ``_below``, which replays numpy's ``rng.integers(m)``
(Lemire's multiply-shift rejection) on the bit generator's C interface; a
differential test pins it to numpy, and CI runs that test on numpy 2.0 too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .bitcore import BitString, differing_positions, nth_set_bit, random_word
from .consistency import ExactEnumerationUnavailable, block_projection, consistent_words, embed_word

__all__ = [
    "OperatorId",
    "OutputDistribution",
    "OPERATORS",
    "sample_operator",
    "exact_pmf",
    "pmf_vector",
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


def _check_probabilities(values: list[float]) -> None:
    """A pmf's probabilities sum to 1 within 1e-12 and none is negative."""
    total = fsum(values)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    if min(values) < 0:
        raise ValueError("negative probability in support")


@dataclass(frozen=True)
class OutputDistribution:
    """Exact output distribution of one operator application."""

    support: dict

    def __post_init__(self) -> None:
        _check_probabilities(list(self.support.values()))


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


def _rand_word(n: int, rng: np.random.Generator) -> int:
    # raw 64-bit PRNG outputs; far cheaper per draw than Generator.bytes
    if n <= 64:
        return int(rng.bit_generator.random_raw()) & ((1 << n) - 1)
    k = (n + 63) >> 6
    raw = rng.bit_generator.random_raw(k)
    return int.from_bytes(raw.tobytes(), "little") & ((1 << n) - 1)


# Word-level kernels.  Each returns its output word; the deterministic ones
# ignore rng.

def _k_uniform(words, n, params, rng):
    return _rand_word(n, rng)


def _k_complement(words, n, params, rng):
    return ~words[0] & ((1 << n) - 1)


def _k_flip_one(words, n, params, rng):
    x, y = words
    d = x ^ y
    return x ^ (1 << nth_set_bit(d, _below(d.bit_count(), rng))) if d else x


def _k_flip_k(words, n, params, rng):
    x, y = words
    d = x ^ y
    c = d.bit_count()
    take = min(params[0], c)
    if take == 0:
        return y
    out = y
    for r in rng.choice(c, size=take, replace=False).tolist():
        out ^= 1 << nth_set_bit(d, r)
    return out


def _k_rwd(words, n, params, rng):
    x, y = words
    d = x ^ y
    if d == 0:
        return x
    return x ^ (d & _rand_word(n, rng))


def _k_update(words, n, params, rng):
    a, b, c = words
    agree = ~(a ^ c) & ((1 << n) - 1)
    return (agree & b) | (a & ~agree)


def _k_switch(words, n, params, rng):
    y, y2 = words
    return y2 if (y ^ y2).bit_count() == 1 else y


def _k_flip_one_uniform(words, n, params, rng):
    return words[0] ^ (1 << _below(n, rng))


def _k_choose_consistent(words, n, params, rng):
    survivors = consistent_words(n, words, params)
    if survivors.size == 0:
        return random_word(n, rng)
    return int(survivors[_below(survivors.size, rng)])


def _k_choose_consistent_sub(words, n, params, rng):
    block, outside, projected = block_projection(n, words[:-2], params, words[-2], words[-1])
    return embed_word(_k_choose_consistent(projected, len(block), params, rng), block, outside)


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
                object.__setattr__(self, "params", tuple(int(u) for u in self.params))
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


def pmf_vector(op: OperatorId, words, n: int) -> np.ndarray:
    """Exact output pmf of op on the parent words, indexed by output word.

    A float64 array of length 2**n (n <= 16) whose entry w is the
    probability that op outputs w.  Each family writes its support through
    one index array: randomWhereDifferent and flipKWhereDifferent select the
    submasks of the parents' difference from arange(2**n), and
    chooseConsistent and chooseConsistentSub index with the ascending
    survivor array of ``consistent_words``.
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
    size = 1 << n
    v = np.zeros(size)
    name = op.name

    if name == "uniformSample":
        v[:] = 1.0 / size
    elif name == "flipOneWhereDifferent":
        x, y = words
        pos = differing_positions(x, y, n)
        if pos.size == 0:
            v[x] = 1.0
        else:
            v[x ^ (1 << pos)] = 1.0 / pos.size
    elif name in ("flipKWhereDifferent", "randomWhereDifferent"):
        x, y = words
        d = x ^ y
        sub = np.arange(size)
        sub = sub[(sub & d) == sub]
        if name == "randomWhereDifferent":
            v[x ^ sub] = 1.0 / (1 << d.bit_count())
        else:
            sub = sub[np.bitwise_count(sub) == min(op.params[0], d.bit_count())]
            v[y ^ sub] = 1.0 / sub.size
    elif name == "flipOneUniform":
        v[words[0] ^ (1 << np.arange(n))] = 1.0 / n
    elif name == "chooseConsistent":
        survivors = consistent_words(n, words, op.params)
        if survivors.size == 0:
            v[:] = 1.0 / size
        else:
            v[survivors] = 1.0 / survivors.size
    elif name == "chooseConsistentSub":
        block, outside, proj = block_projection(n, words[:-2], op.params, words[-2], words[-1])
        survivors = consistent_words(len(block), proj, op.params)
        if survivors.size == 0:
            survivors = np.arange(1 << len(block), dtype=np.uint32)
        v[embed_word(survivors, block, outside)] = 1.0 / survivors.size
    else:
        # every family left is deterministic: its kernel needs no generator
        v[OPERATORS[name][0](words, n, None, None)] = 1.0
    _check_probabilities(v[v != 0].tolist())
    return v


def exact_pmf(op: OperatorId, inputs: list[BitString], n: int | None = None) -> OutputDistribution:
    """Full output distribution of op on the given parents; n <= 16 only.

    The support is the nonzero entries of ``pmf_vector``.  ``n`` is required
    only for 0-ary operators, where no parent fixes the length.
    """
    if len(inputs) != op.arity:
        raise ValueError(f"{op.name} expects {op.arity} parents, got {len(inputs)}")
    if inputs:
        n = _check_lengths(*inputs)
    elif n is None:
        raise ValueError("n is required for 0-ary operators")
    v = pmf_vector(op, [x.word for x in inputs], n)
    support = np.flatnonzero(v)
    return OutputDistribution(
        {BitString(n, w): p for w, p in zip(support.tolist(), v[support].tolist())}
    )
