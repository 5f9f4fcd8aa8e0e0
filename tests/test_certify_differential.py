"""Exact certification on dense pmf vectors against the dict pmfs it replaced.

``operators.pmf_vector`` gives an operator's exact pmf as a float64 array
indexed by output word, and the certifier pushes it through xor shifts and
position permutations by index arrays.  Every probability, every deviation
and every report must be the one the earlier dict-of-``BitString`` code gave,
and the generator must stand at the same place afterwards.  The earlier
``OutputDistribution`` (with ``push`` and ``max_deviation``), ``exact_pmf``
and the two checks are kept here verbatim as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt import unbiasedness
from arityopt.bitcore import (
    BitString,
    Permutation,
    apply_permutation,
    differing_positions,
    permute_words,
)
from arityopt.consistency import (
    ExactEnumerationUnavailable,
    block_projection,
    consistent_words,
    embed_word,
)
from arityopt.operators import (
    COMPLEMENT,
    EXACT_PMF_LIMIT,
    FLIP_ONE_WHERE_DIFFERENT,
    OperatorId,
    _check_lengths,
    complement_op,
    exact_pmf,
    switch_if_distance_one,
    update_op,
)
from arityopt.unbiasedness import (
    EXACT_TOLERANCE,
    NEGATIVE_CONTROL,
    NEGATIVE_CONTROL_NAME,
    SHIPPED_OPERATOR_FAMILIES,
    certify_operator,
    check_perm_invariance,
    check_xor_invariance,
)

FAMILIES = SHIPPED_OPERATOR_FAMILIES + (NEGATIVE_CONTROL_NAME,)


@dataclass(frozen=True)
class OutputDistribution:
    """Exact output distribution of one operator application."""

    support: dict

    def __post_init__(self) -> None:
        total = fsum(self.support.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if any(p < 0 for p in self.support.values()):
            raise ValueError("negative probability in support")

    def prob(self, x: BitString) -> float:
        return self.support.get(x, 0.0)

    def push(self, fn) -> "OutputDistribution":
        """Pushforward through a (not necessarily injective) map on outputs."""
        out: dict = {}
        for x, p in self.support.items():
            y = fn(x)
            out[y] = out.get(y, 0.0) + p
        return OutputDistribution(out)

    def max_deviation(self, other: "OutputDistribution") -> float:
        keys = self.support.keys() | other.support.keys()
        return max(abs(self.prob(k) - other.prob(k)) for k in keys)


def _submasks(d: int):
    """All submasks of d, including 0 and d."""
    s = d
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & d


def dict_exact_pmf(op: OperatorId, inputs: list[BitString], n: int | None = None) -> OutputDistribution:
    if len(inputs) != op.arity:
        raise ValueError(f"{op.name} expects {op.arity} parents, got {len(inputs)}")
    if inputs:
        n = _check_lengths(*inputs)
    elif n is None:
        raise ValueError("n is required for 0-ary operators")
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    words = [x.word for x in inputs]
    name = op.name

    if name == "uniformSample":
        p = 1.0 / (1 << n)
        return OutputDistribution({BitString(n, w): p for w in range(1 << n)})
    if name == "complement":
        return OutputDistribution({complement_op(inputs[0]): 1.0})
    if name == "flipOneWhereDifferent":
        x, y = words
        pos = differing_positions(x, y, n)
        if pos.size == 0:
            return OutputDistribution({inputs[0]: 1.0})
        p = 1.0 / pos.size
        return OutputDistribution(
            {BitString(n, x ^ (1 << int(q))): p for q in pos}
        )
    if name == "flipKWhereDifferent":
        x, y = words
        ell = op.params[0]
        pos = [int(q) for q in differing_positions(x, y, n)]
        take = min(ell, len(pos))
        subsets = list(combinations(pos, take))
        p = 1.0 / len(subsets)
        out: dict = {}
        for subset in subsets:
            w = y
            for q in subset:
                w ^= 1 << q
            out[BitString(n, w)] = out.get(BitString(n, w), 0.0) + p
        return OutputDistribution(out)
    if name == "randomWhereDifferent":
        x, y = words
        d = x ^ y
        p = 1.0 / (1 << d.bit_count())
        return OutputDistribution(
            {BitString(n, x ^ s): p for s in _submasks(d)}
        )
    if name == "update":
        return OutputDistribution({update_op(*inputs): 1.0})
    if name == "switchIfDistanceOne":
        return OutputDistribution({switch_if_distance_one(*inputs): 1.0})
    if name == "flipOneUniform":
        x = words[0]
        p = 1.0 / n
        return OutputDistribution({BitString(n, x ^ (1 << i)): p for i in range(n)})
    if name == "chooseConsistent":
        survivors = consistent_words(n, words, op.params)
        if survivors.size == 0:
            p = 1.0 / (1 << n)
            return OutputDistribution({BitString(n, w): p for w in range(1 << n)})
        p = 1.0 / survivors.size
        return OutputDistribution({BitString(n, int(w)): p for w in survivors})
    if name == "chooseConsistentSub":
        block, outside, proj = block_projection(n, words[:-2], op.params, words[-2], words[-1])
        survivors = consistent_words(len(block), proj, op.params) if block else np.array([0])
        if survivors.size == 0:
            survivors = np.arange(1 << len(block), dtype=np.uint32)
        p = 1.0 / survivors.size
        return OutputDistribution(
            {
                BitString(n, outside | embed_word(int(s), block, 0)): p
                for s in survivors
            }
        )
    raise ValueError(f"unknown operator name {name!r}")  # pragma: no cover


def _pmf(op, inputs, n):
    if op.name == NEGATIVE_CONTROL_NAME:
        return OutputDistribution({BitString.ones(n): 1.0})
    return dict_exact_pmf(op, inputs, n=n)


def dict_check_xor_invariance(op, inputs, z: BitString) -> tuple[bool, float]:
    n = z.n
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    pushed = _pmf(op, inputs, n).push(lambda b: b ^ z)
    shifted = _pmf(op, [x ^ z for x in inputs], n)
    dev = pushed.max_deviation(shifted)
    return dev <= EXACT_TOLERANCE, dev


def dict_check_perm_invariance(op, inputs, sigma: Permutation) -> tuple[bool, float]:
    n = sigma.size
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    pushed = _pmf(op, inputs, n).push(lambda b: apply_permutation(sigma, b))
    permuted = _pmf(op, [apply_permutation(sigma, x) for x in inputs], n)
    dev = pushed.max_deviation(permuted)
    return dev <= EXACT_TOLERANCE, dev


@st.composite
def cases(draw):
    """(n, operator, inputs, z, sigma): one certification trial's case from
    ``_trial_case`` on a drawn seed, and a drawn shift and permutation."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    op, inputs = unbiasedness._trial_case(family, n, rng)
    z = BitString(n, draw(st.integers(0, (1 << n) - 1)))
    sigma = Permutation(tuple(draw(st.permutations(range(n)))))
    return n, op, inputs, z, sigma


class TestChecksMatchDictPmfs:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_same_passed_and_deviation(self, case):
        n, op, inputs, z, sigma = case
        got = check_xor_invariance(op, inputs, z)
        assert got == dict_check_xor_invariance(op, inputs, z)
        assert type(got[1]) is float
        got = check_perm_invariance(op, inputs, sigma)
        assert got == dict_check_perm_invariance(op, inputs, sigma)
        assert type(got[1]) is float

    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_exact_pmf_support_is_the_dict_support(self, case):
        n, op, inputs, _, _ = case
        if op is NEGATIVE_CONTROL:
            return
        got = exact_pmf(op, inputs, n=n).support
        assert got == dict_exact_pmf(op, inputs, n=n).support
        assert all(type(p) is float for p in got.values())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(1, 10), st.integers(1, 4),
           st.integers(0, 2**64 - 1))
    def test_same_report_and_generator_state(self, family, n, trials, seed):
        rng = np.random.default_rng(seed)
        got = certify_operator(family, n, trials, rng)
        ref_rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unbiasedness, "check_xor_invariance", dict_check_xor_invariance)
            mp.setattr(unbiasedness, "check_perm_invariance", dict_check_perm_invariance)
            want = certify_operator(family, n, trials, ref_rng)
        assert got == want
        assert repr(got.worst_deviation) == repr(want.worst_deviation)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("check", ["xor", "perm"])
    def test_same_errors(self, check):
        new, old = {
            "xor": (check_xor_invariance, dict_check_xor_invariance),
            "perm": (check_perm_invariance, dict_check_perm_invariance),
        }[check]
        t = BitString.zeros(6) if check == "xor" else Permutation.identity(6)
        big = BitString.zeros(17) if check == "xor" else Permutation.identity(17)
        short = [BitString.zeros(5), BitString.zeros(5)]
        for fn in (new, old):
            with pytest.raises(ValueError):
                fn(FLIP_ONE_WHERE_DIFFERENT, short, t)
            with pytest.raises(ValueError):
                fn(COMPLEMENT, [BitString.zeros(6), BitString.zeros(6)], t)
            with pytest.raises(ExactEnumerationUnavailable):
                fn(COMPLEMENT, [BitString.zeros(17)], big)


class TestPushDirection:
    """Unbiased operators deviate by 0 whichever way sigma is pushed, so the
    direction is checked on pmfs with no symmetry."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.integers(0, (1 << n) - 1),
                            st.integers(0, 2**64 - 1))))
    def test_push_matches_dict_push_entrywise(self, drawn):
        mapping, z, seed = drawn
        n = len(mapping)
        sigma = Permutation(tuple(mapping))
        weights = np.random.default_rng(seed).random(1 << n) + 0.01
        v = weights / weights.sum()
        dist = OutputDistribution({BitString(n, w): p for w, p in enumerate(v.tolist())})
        words = np.arange(1 << n)
        pushed = unbiasedness._push(v, permute_words(sigma, words))
        want = dist.push(lambda b: apply_permutation(sigma, b))
        assert pushed.tolist() == [want.prob(BitString(n, w)) for w in range(1 << n)]
        pushed = unbiasedness._push(v, words ^ z)
        want = dist.push(lambda b: b ^ BitString(n, z))
        assert pushed.tolist() == [want.prob(BitString(n, w)) for w in range(1 << n)]


class TestPermuteWords:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(n))))
    def test_every_word_up_to_n_10(self, mapping):
        n = len(mapping)
        sigma = Permutation(tuple(mapping))
        table = permute_words(sigma, np.arange(1 << n))
        assert table.tolist() == [
            apply_permutation(sigma, BitString(n, w)).word for w in range(1 << n)
        ]

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(range(16)), st.integers(0, 2**64 - 1))
    def test_random_permutations_at_n_16(self, mapping, seed):
        sigma = Permutation(tuple(mapping))
        table = permute_words(sigma, np.arange(1 << 16))
        assert sorted(table.tolist()) == list(range(1 << 16))
        words = [0, 1, 1 << 15, (1 << 16) - 1]
        words += np.random.default_rng(seed).integers(0, 1 << 16, size=500).tolist()
        for w in words:
            assert table[w] == apply_permutation(sigma, BitString(16, w)).word
