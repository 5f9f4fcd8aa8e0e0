"""Unbiased variation operators: seeded samplers plus exact output pmfs.

Each operator exists in two forms: a sampler that draws one output from the
operator's distribution using a caller-supplied generator, and (for n up to
16) the exact probability mass function over outputs.  The pmf form is what
makes unbiasedness certification exact instead of statistical.  It is defined
once, by ``pmf_vector``: a dense float64 array of length 2**n indexed by
output word, which the certifier pushes through xor shifts and permutations
by index arrays.  ``exact_pmf`` is the same pmf as an ``OutputDistribution``
over ``BitString`` outputs, built from the vector's nonzero entries.

The word-level kernels (``sample_operator``) are the hot path shared with the
run engine; the bitstring-level functions are thin validated wrappers around
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .bitcore import BitString, differing_positions, nth_set_bit
from .consistency import (
    ExactEnumerationUnavailable,
    block_projection,
    choose_consistent_sub_word,
    choose_consistent_word,
    consistent_words,
)

__all__ = [
    "OperatorId",
    "OutputDistribution",
    "OPERATOR_NAMES",
    "uniform_sample",
    "complement_op",
    "flip_one_where_different",
    "flip_k_where_different",
    "random_where_different",
    "update_op",
    "switch_if_distance_one",
    "flip_one_uniform",
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

# Fixed-arity operator names; the three parameterized families are handled
# separately because their arity depends on params.
_FIXED_ARITY = {
    "uniformSample": 0,
    "complement": 1,
    "flipOneWhereDifferent": 2,
    "randomWhereDifferent": 2,
    "update": 3,
    "switchIfDistanceOne": 2,
    "flipOneUniform": 1,
}

OPERATOR_NAMES = tuple(_FIXED_ARITY) + (
    "flipKWhereDifferent",
    "chooseConsistent",
    "chooseConsistentSub",
)


@dataclass(frozen=True)
class OperatorId:
    """Identity of one variation operator: name, arity, optional int params.

    params meaning by family: (ell,) for flipKWhereDifferent; the tuple of
    target agreement values for chooseConsistent (arity = number of values);
    the tuple of block-level values for chooseConsistentSub (arity = number
    of values + 2 anchors).
    """

    name: str
    arity: int
    params: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.name in _FIXED_ARITY:
            want = _FIXED_ARITY[self.name]
            if self.arity != want:
                raise ValueError(f"{self.name} has arity {want}, got {self.arity}")
            if self.params is not None:
                raise ValueError(f"{self.name} takes no params")
        elif self.name == "flipKWhereDifferent":
            if self.arity != 2:
                raise ValueError(f"flipKWhereDifferent has arity 2, got {self.arity}")
            if self.params is None or len(self.params) != 1 or self.params[0] < 0:
                raise ValueError("flipKWhereDifferent needs params (ell,) with ell >= 0")
        elif self.name == "chooseConsistent":
            if self.params is None or self.arity != len(self.params):
                raise ValueError("chooseConsistent arity must equal the number of values")
        elif self.name == "chooseConsistentSub":
            if self.params is None or self.arity != len(self.params) + 2:
                raise ValueError(
                    "chooseConsistentSub arity must be number of values + 2 anchors"
                )
        else:
            raise ValueError(f"unknown operator name {self.name!r}")


UNIFORM_SAMPLE = OperatorId("uniformSample", 0)
COMPLEMENT = OperatorId("complement", 1)
FLIP_ONE_WHERE_DIFFERENT = OperatorId("flipOneWhereDifferent", 2)
RANDOM_WHERE_DIFFERENT = OperatorId("randomWhereDifferent", 2)
UPDATE = OperatorId("update", 3)
SWITCH_IF_DISTANCE_ONE = OperatorId("switchIfDistanceOne", 2)
FLIP_ONE_UNIFORM = OperatorId("flipOneUniform", 1)


def flip_k_id(ell: int) -> OperatorId:
    return OperatorId("flipKWhereDifferent", 2, (int(ell),))


def choose_consistent_id(values) -> OperatorId:
    vals = tuple(int(u) for u in values)
    return OperatorId("chooseConsistent", len(vals), vals)


def choose_consistent_sub_id(values) -> OperatorId:
    vals = tuple(int(u) for u in values)
    return OperatorId("chooseConsistentSub", len(vals) + 2, vals)


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

    def prob(self, x: BitString) -> float:
        return self.support.get(x, 0.0)

    def max_deviation(self, other: "OutputDistribution") -> float:
        keys = self.support.keys() | other.support.keys()
        return max(abs(self.prob(k) - other.prob(k)) for k in keys)


def _rand_word(n: int, rng: np.random.Generator) -> int:
    # raw 64-bit PRNG outputs; far cheaper per draw than Generator.bytes
    if n <= 64:
        return int(rng.bit_generator.random_raw()) & ((1 << n) - 1)
    k = (n + 63) >> 6
    raw = rng.bit_generator.random_raw(k)
    return int.from_bytes(raw.tobytes(), "little") & ((1 << n) - 1)


# Word-level kernels.  Each returns (output word, compact record of the RNG
# draw consumed); deterministic operators record None.

def _k_uniform(words, n, params, rng):
    w = _rand_word(n, rng)
    return w, w


def _k_complement(words, n, params, rng):
    return ~words[0] & ((1 << n) - 1), None


def _k_flip_one(words, n, params, rng):
    x, y = words
    d = x ^ y
    if d == 0:
        return x, None
    p = nth_set_bit(d, int(rng.integers(d.bit_count())))
    return x ^ (1 << p), p


def _k_flip_k(words, n, params, rng):
    x, y = words
    d = x ^ y
    pos = []
    while d:
        low = d & -d
        pos.append(low.bit_length() - 1)
        d ^= low
    take = min(params[0], len(pos))
    if take == 0:
        return y, ()
    chosen = [pos[r] for r in rng.choice(len(pos), size=take, replace=False).tolist()]
    out = y
    for p in chosen:
        out ^= 1 << p
    return out, tuple(sorted(chosen))


def _k_rwd(words, n, params, rng):
    x, y = words
    d = x ^ y
    if d == 0:
        return x, 0
    sel = d & _rand_word(n, rng)
    return x ^ sel, sel


def _k_update(words, n, params, rng):
    a, b, c = words
    agree = ~(a ^ c) & ((1 << n) - 1)
    return (agree & b) | (a & ~agree), None


def _k_switch(words, n, params, rng):
    y, y2 = words
    return (y2 if (y ^ y2).bit_count() == 1 else y), None


def _k_flip_one_uniform(words, n, params, rng):
    p = int(rng.integers(n))
    return words[0] ^ (1 << p), p


def _k_choose_consistent(words, n, params, rng):
    word, draw = choose_consistent_word(n, words, params, rng)
    return word, draw


def _k_choose_consistent_sub(words, n, params, rng):
    word, draw, _ = choose_consistent_sub_word(
        n, words[:-2], params, words[-2], words[-1], rng
    )
    return word, draw


_KERNELS = {
    "uniformSample": _k_uniform,
    "complement": _k_complement,
    "flipOneWhereDifferent": _k_flip_one,
    "flipKWhereDifferent": _k_flip_k,
    "randomWhereDifferent": _k_rwd,
    "update": _k_update,
    "switchIfDistanceOne": _k_switch,
    "flipOneUniform": _k_flip_one_uniform,
    "chooseConsistent": _k_choose_consistent,
    "chooseConsistentSub": _k_choose_consistent_sub,
}


def sample_operator(op: OperatorId, words, n: int, rng: np.random.Generator):
    """Sample one output word; returns (word, draw record)."""
    if len(words) != op.arity:
        raise ValueError(f"{op.name} expects {op.arity} parents, got {len(words)}")
    return _KERNELS[op.name](words, n, op.params, rng)


def _check_lengths(*xs: BitString) -> int:
    n = xs[0].n
    for x in xs[1:]:
        if x.n != n:
            raise ValueError(f"length mismatch: {x.n} != {n}")
    return n


def uniform_sample(n: int, rng: np.random.Generator) -> BitString:
    """Each bit independently 0 or 1 with probability one half."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return BitString(n, _rand_word(n, rng))


def complement_op(x: BitString) -> BitString:
    """Flip every bit."""
    return BitString(x.n, ~x.word & ((1 << x.n) - 1))


def flip_one_where_different(x: BitString, y: BitString, rng) -> BitString:
    """Copy of x with one uniformly chosen differing bit flipped; x if none differ."""
    n = _check_lengths(x, y)
    word, _ = _k_flip_one((x.word, y.word), n, None, rng)
    return BitString(n, word)


def flip_k_where_different(ell: int, x: BitString, y: BitString, rng) -> BitString:
    """Copy of y with min(ell, H(x, y)) uniformly chosen differing bits flipped."""
    if ell < 0:
        raise ValueError(f"ell must be non-negative, got {ell}")
    n = _check_lengths(x, y)
    word, _ = _k_flip_k((x.word, y.word), n, (ell,), rng)
    return BitString(n, word)


def random_where_different(x: BitString, y: BitString, rng) -> BitString:
    """Keep shared bits; set each differing bit to x's or y's value with equal probability."""
    n = _check_lengths(x, y)
    word, _ = _k_rwd((x.word, y.word), n, None, rng)
    return BitString(n, word)


def update_op(a: BitString, b: BitString, c: BitString) -> BitString:
    """Positionwise: take b's bit where a agrees with c, else keep a's bit."""
    n = _check_lengths(a, b, c)
    word, _ = _k_update((a.word, b.word, c.word), n, None, rng=None)
    return BitString(n, word)


def switch_if_distance_one(y: BitString, y2: BitString) -> BitString:
    """y2 if the two differ in exactly one bit, else y."""
    n = _check_lengths(y, y2)
    word, _ = _k_switch((y.word, y2.word), n, None, rng=None)
    return BitString(n, word)


def flip_one_uniform(x: BitString, rng) -> BitString:
    """Flip one uniformly chosen bit; the local-search baseline's mutation."""
    word, _ = _k_flip_one_uniform((x.word,), x.n, None, rng)
    return BitString(x.n, word)


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

    if name in ("complement", "update", "switchIfDistanceOne"):
        word, _ = _KERNELS[name](words, n, None, None)
        v[word] = 1.0
    elif name == "uniformSample":
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
        survivors = consistent_words(len(block), proj, op.params) if block else np.array([0])
        if survivors.size == 0:
            survivors = np.arange(1 << len(block), dtype=np.uint32)
        out = np.full(survivors.size, outside)
        for j, p in enumerate(block):
            out |= ((survivors >> j) & 1).astype(np.int64) << p
        v[out] = 1.0 / survivors.size
    else:
        raise ValueError(f"unknown operator name {name!r}")  # pragma: no cover
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
