"""Exact certification on dense pmf vectors against the dict pmfs it replaced.

``operators.pmf_vector`` gives an operator's exact pmf as a float64 array
indexed by output word, and the certifier pushes it through xor shifts by an
index array and through position permutations by a tensor transpose, which
``TestPermutePmf`` checks against the scatter through ``permute_words``'s
table that it replaced.  Every probability, every deviation and every report
must be the one the earlier dict-of-``BitString`` code gave, and the
generator must stand at the same place afterwards.  The earlier
``OutputDistribution`` (with ``push`` and ``max_deviation``), ``exact_pmf``,
the two checks and the ``BitString`` xor and permutation are kept here as the
oracle.  They compute on ``BitString`` inside; the two checks take the
certifier's int words at their boundary, and ``dict_check_invariance`` joins
them into the one check the certifier makes per trial.

Statistical certification draws its samples in a loop and profiles them in
one array pass, on int64 words below n = 64 and on Python ints from there
on.  The earlier per-sample loop, ``_statistical_trial`` with
``_profile_key``, is kept here as its oracle: every contingency table, every
deviation and the generator state after a trial must be the same.  The loop
still takes its p value from ``scipy.stats.chi2_contingency``, the test the
program's standard-library ``_chi2_contingency_p`` replaced, so the two p
values are also compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from arityopt import unbiasedness
from arityopt.bitcore import (
    BitString,
    Permutation,
    apply_permutation,
    differing_positions,
    permute_words,
    random_word,
)
from arityopt.consistency import (
    ENUMERATION_DIM_LIMIT,
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
    exact_pmf,
    sample_operator,
)
from arityopt.unbiasedness import (
    EXACT_TOLERANCE,
    NEGATIVE_CONTROL,
    NEGATIVE_CONTROL_NAME,
    SHIPPED_OPERATOR_FAMILIES,
    certify_operator,
    check_invariance,
)

FAMILIES = SHIPPED_OPERATOR_FAMILIES + (NEGATIVE_CONTROL_NAME,)
_trial_case = unbiasedness._trial_case
_control_sample = unbiasedness._control_sample


def bs_xor(x: BitString, y: BitString) -> BitString:
    """The earlier ``BitString.__xor__``."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return BitString(x.n, x.word ^ y.word)


def bs_apply_permutation(sigma: Permutation, x: BitString) -> BitString:
    """The earlier ``apply_permutation`` on a ``BitString``."""
    if sigma.size != x.n:
        raise ValueError(f"size mismatch: perm {sigma.size} vs bitstring {x.n}")
    word = 0
    for i, j in enumerate(sigma.mapping):
        if (x.word >> j) & 1:
            word |= 1 << i
    return BitString(x.n, word)


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
    if name in ("complement", "update", "switchIfDistanceOne"):
        return OutputDistribution({BitString(n, sample_operator(op, words, n, None)): 1.0})
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
        return OutputDistribution({BitString(n, (1 << n) - 1): 1.0})
    return dict_exact_pmf(op, inputs, n=n)


def dict_check_xor_invariance(op, words: list[int], z: int, n: int) -> tuple[bool, float]:
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    inputs = [BitString(n, w) for w in words]
    z = BitString(n, z)
    pushed = _pmf(op, inputs, n).push(lambda b: bs_xor(b, z))
    shifted = _pmf(op, [bs_xor(x, z) for x in inputs], n)
    dev = pushed.max_deviation(shifted)
    return dev <= EXACT_TOLERANCE, dev


def dict_check_perm_invariance(op, words: list[int], sigma: Permutation) -> tuple[bool, float]:
    n = sigma.size
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    inputs = [BitString(n, w) for w in words]
    pushed = _pmf(op, inputs, n).push(lambda b: bs_apply_permutation(sigma, b))
    permuted = _pmf(op, [bs_apply_permutation(sigma, x) for x in inputs], n)
    dev = pushed.max_deviation(permuted)
    return dev <= EXACT_TOLERANCE, dev


def dict_check_invariance(op, words: list[int], z: int, sigma: Permutation) -> tuple[bool, float]:
    """The two dict checks as the certifier's exact loop combined them."""
    ok_x, dev_x = dict_check_xor_invariance(op, words, z, sigma.size)
    ok_p, dev_p = dict_check_perm_invariance(op, words, sigma)
    return ok_x and ok_p, max(dev_x, dev_p)


def _profile_key(word: int, ref_words: list[int]) -> tuple:
    return (word.bit_count(),) + tuple((word ^ r).bit_count() for r in ref_words)


def loop_statistical_trial(family, n, rng, samples: int) -> tuple[float, float, tuple | None]:
    """Two-sample comparison of op(inputs) pushed through an automorphism
    against op on the transformed inputs.  Returns (p value, max freq diff,
    contingency table), the table as its two rows (a, b), or None when the
    merged cells leave fewer than two columns and p is 1 without a test."""
    op, words = _trial_case(family, n, rng)
    inputs = [BitString(n, w) for w in words]
    sigma = Permutation.random(n, rng)
    z = BitString(n, random_word(n, rng))
    t_inputs = [bs_xor(bs_apply_permutation(sigma, x), z) for x in inputs]
    ref = [b.word for b in t_inputs]
    sample = (
        _control_sample
        if op.name == NEGATIVE_CONTROL_NAME
        else lambda ws, m, g: sample_operator(op, ws, m, g)
    )
    in_words = [b.word for b in inputs]
    counts1: dict = {}
    counts2: dict = {}
    for _ in range(samples):
        w1 = sample(in_words, n, rng)
        m1 = bs_xor(bs_apply_permutation(sigma, BitString(n, w1)), z).word
        k1 = _profile_key(m1, ref)
        counts1[k1] = counts1.get(k1, 0) + 1
        w2 = sample(ref, n, rng)
        k2 = _profile_key(w2, ref)
        counts2[k2] = counts2.get(k2, 0) + 1
    keys = sorted(counts1.keys() | counts2.keys())
    c1 = np.array([counts1.get(k, 0) for k in keys], dtype=float)
    c2 = np.array([counts2.get(k, 0) for k in keys], dtype=float)
    dev = float(np.max(np.abs(c1 - c2)) / samples)
    # merge sparse cells so the chi-square approximation is sound
    keep = (c1 + c2) >= 10
    a = np.concatenate([c1[keep], [c1[~keep].sum()]])
    b = np.concatenate([c2[keep], [c2[~keep].sum()]])
    nz = (a + b) > 0
    a, b = a[nz], b[nz]
    if a.size < 2:
        return 1.0, dev, None
    _, p, _, _ = stats.chi2_contingency(np.vstack([a, b]))
    return float(p), dev, (a, b)


def assert_same_p(got: float, want: float) -> None:
    """got within 1e-10 relative of scipy's p where that p is above 1e-300,
    and below 1e-290 where it is not, so no verdict at any alpha can flip."""
    if want > 1e-300:
        assert got == pytest.approx(want, rel=1e-10, abs=0)
    else:
        assert got < 1e-290


def loop_p_and_deviation(family, n, rng, samples: int) -> tuple[float, float]:
    """``loop_statistical_trial`` with the signature of ``_statistical_trial``."""
    return loop_statistical_trial(family, n, rng, samples)[:2]


@st.composite
def cases(draw):
    """(n, operator, words, z, sigma): one certification trial's case from
    ``_trial_case`` on a drawn seed, and a drawn shift and permutation."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    op, words = unbiasedness._trial_case(family, n, rng)
    z = draw(st.integers(0, (1 << n) - 1))
    sigma = Permutation(tuple(draw(st.permutations(range(n)))))
    return n, op, words, z, sigma


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


class TestChecksMatchDictPmfs:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_same_passed_and_deviation(self, case):
        n, op, words, z, sigma = case
        got = check_invariance(op, words, z, sigma)
        assert got == dict_check_invariance(op, words, z, sigma)
        assert type(got[1]) is float

    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_each_condition_alone_matches_its_dict_check(self, case):
        # identity sigma leaves only the shift, z = 0 only the permutation
        n, op, words, z, sigma = case
        got = check_invariance(op, words, z, identity(n))
        assert got == dict_check_xor_invariance(op, words, z, n)
        assert type(got[1]) is float
        got = check_invariance(op, words, 0, sigma)
        assert got == dict_check_perm_invariance(op, words, sigma)
        assert type(got[1]) is float

    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_exact_pmf_support_is_the_dict_support(self, case):
        n, op, words, _, _ = case
        if op is NEGATIVE_CONTROL:
            return
        inputs = [BitString(n, w) for w in words]
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
            mp.setattr(unbiasedness, "check_invariance", dict_check_invariance)
            want = certify_operator(family, n, trials, ref_rng)
        assert got == want
        assert repr(got.worst_deviation) == repr(want.worst_deviation)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("check", ["xor", "perm"])
    def test_same_errors(self, check):
        # an int carries no length, so the earlier length mismatch is now a
        # word that does not fit in n bits
        def reverse(n):
            return Permutation(tuple(range(n))[::-1])

        new, old = {
            "xor": (lambda op, ws, n: check_invariance(op, ws, (1 << n) - 1, identity(n)),
                    lambda op, ws, n: dict_check_xor_invariance(op, ws, (1 << n) - 1, n)),
            "perm": (lambda op, ws, n: check_invariance(op, ws, 0, reverse(n)),
                     lambda op, ws, n: dict_check_perm_invariance(op, ws, reverse(n))),
        }[check]
        for fn in (new, old):
            with pytest.raises(ValueError, match="does not fit"):
                fn(FLIP_ONE_WHERE_DIFFERENT, [1 << 6, 0], 6)
            with pytest.raises(ValueError, match="does not fit"):
                fn(NEGATIVE_CONTROL, [1 << 6], 6)
            with pytest.raises(ValueError):
                fn(COMPLEMENT, [0, 0], 6)
            with pytest.raises(ExactEnumerationUnavailable):
                fn(COMPLEMENT, [0], 17)

    def test_shift_that_does_not_fit_is_rejected(self):
        for fn in (lambda z: check_invariance(COMPLEMENT, [0], z, identity(6)),
                   lambda z: dict_check_xor_invariance(COMPLEMENT, [0], z, 6)):
            for z in (1 << 6, -1):
                with pytest.raises(ValueError, match="does not fit"):
                    fn(z)


STATISTICAL_NS = (1, 2, 8, 16, 17, 20, 24, 62, 63, 64, 65, 100)


class TestStatisticalTrialMatchesLoop:
    """The array pass against the per-sample loop, at lengths on both sides
    of the exact limit (16), the enumeration limit (24) and the switch from
    int64 to object arrays (n = 64)."""

    @pytest.mark.parametrize("n", STATISTICAL_NS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_p_deviation_and_generator_state(self, family, n):
        for seed in range(3):
            rng = np.random.default_rng([seed, n])
            ref_rng = np.random.default_rng([seed, n])
            if family == "chooseConsistent" and n > ENUMERATION_DIM_LIMIT:
                for fn, g in ((unbiasedness._statistical_trial, rng),
                              (loop_statistical_trial, ref_rng)):
                    with pytest.raises(ExactEnumerationUnavailable):
                        fn(family, n, g, samples=2000)
                continue
            got_p, got_dev = unbiasedness._statistical_trial(family, n, rng, samples=2000)
            scipy_p, dev, table = loop_statistical_trial(family, n, ref_rng, samples=2000)
            want_p = 1.0 if table is None else unbiasedness._chi2_contingency_p(*table)
            assert repr(got_p) == repr(want_p)
            assert_same_p(got_p, scipy_p)
            assert repr(got_dev) == repr(dev)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(FAMILIES), st.sampled_from((1, 2, 8, 17, 20)),
           st.integers(1, 2), st.integers(0, 2**64 - 1))
    def test_same_statistical_report_and_generator_state(self, family, n, trials, seed):
        rng = np.random.default_rng(seed)
        got = certify_operator(family, n, trials, rng, mode="statistical")
        ref_rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unbiasedness, "_statistical_trial", loop_p_and_deviation)
            want = certify_operator(family, n, trials, ref_rng, mode="statistical")
        assert got == want
        assert repr(got.worst_deviation) == repr(want.worst_deviation)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


CHI2_KINDS = ("dof1", "sparse", "dense", "far_tail")


def random_tables(kind: str, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded 2 x m count tables shaped as ``_statistical_trial`` passes them:
    float rows, no empty column, m from 2 to 300 (always 2 for dof1).  Row b
    draws each column's mean as row a's times exp(effect * N(0, 1)), and the
    effect size spreads p from 1 to far below 1e-300.  Sparse tables have
    cell means under 2; far_tail tables have large effects."""
    rng = np.random.default_rng(CHI2_KINDS.index(kind))
    out = []
    while len(out) < count:
        m = 2 if kind == "dof1" else int(rng.integers(2, 301))
        lam = rng.uniform(0.05, 2.0, m) if kind == "sparse" else rng.uniform(1.0, 500.0, m)
        effect = 10 ** (rng.uniform(-1.5, 0.3) if kind == "far_tail" else rng.uniform(-3.0, 0.0))
        a = rng.poisson(lam).astype(float)
        b = rng.poisson(lam * np.exp(effect * rng.standard_normal(m))).astype(float)
        nz = (a + b) > 0
        a, b = a[nz], b[nz]
        if a.size >= 2 and a.sum() > 0 and b.sum() > 0:
            out.append((a, b))
    return out


class TestChi2MatchesScipy:
    """The standard-library chi-square p against ``scipy.stats.chi2_contingency``."""

    @pytest.mark.parametrize("kind", CHI2_KINDS)
    def test_p_within_1e_10_and_no_verdict_flip(self, kind):
        thresholds = [unbiasedness.STATISTICAL_ALPHA / t for t in (1, 5, 10, 200)]
        scipy_ps, statistics = [], []
        for a, b in random_tables(kind, 2000):
            got = unbiasedness._chi2_contingency_p(a, b)
            x, want, dof, _ = stats.chi2_contingency(np.vstack([a, b]))
            assert type(got) is float
            assert dof == a.size - 1
            assert_same_p(got, want)
            for threshold in thresholds:
                assert (got > threshold) == (want > threshold)
            scipy_ps.append(want)
            statistics.append(x)
        ps, x = np.array(scipy_ps), np.array(statistics)
        # every verdict threshold has tables within a factor of 10 of it
        for threshold in thresholds:
            assert ((ps > threshold / 10) & (ps < threshold * 10)).any()
        if kind == "far_tail":
            assert (ps <= 1e-300).any()
            assert ((ps > 1e-300) & (ps < 1e-100)).any()
            # exp(-x/2) alone underflows there, but p does not
            assert ((x / 2 > 746) & (ps > 1e-300)).any()

    def test_degenerate_tables(self):
        # equal rows give a zero statistic; Yates's correction at dof 1 can
        # too, where every |observed - expected| is at most 0.5
        for a, b in (([5.0, 5.0], [5.0, 5.0]), ([3.0, 4.0], [4.0, 3.0]),
                     ([7.0, 1.0, 2.0], [7.0, 1.0, 2.0])):
            a, b = np.array(a), np.array(b)
            assert unbiasedness._chi2_contingency_p(a, b) == 1.0
            assert stats.chi2_contingency(np.vstack([a, b]))[1] == 1.0


class TestPushDirection:
    """Unbiased operators deviate by 0 whichever way sigma is pushed, so the
    direction is checked on pmfs with no symmetry.  A stand-in ``pmf_vector``
    gives a drawn pmf v on the word x and the dict push of v on the
    transformed word; ``check_invariance`` then deviates by exactly 0 only
    where its push equals the dict push entrywise."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.integers(0, (1 << n) - 1),
                            st.integers(0, (1 << n) - 1), st.integers(0, 2**64 - 1))))
    def test_push_matches_dict_push_entrywise(self, drawn):
        mapping, x, z, seed = drawn
        n = len(mapping)
        sigma = Permutation(tuple(mapping))
        weights = np.random.default_rng(seed).random(1 << n) + 0.01
        v = weights / weights.sum()
        dist = OutputDistribution({BitString(n, w): p for w, p in enumerate(v.tolist())})

        def vector(d):
            return np.array([d.prob(BitString(n, w)) for w in range(1 << n)])

        def check(pmfs, word, z, sigma):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(unbiasedness, "pmf_vector", lambda op, ws, m: pmfs[ws[0]])
                return check_invariance(COMPLEMENT, [word], z, sigma)

        want = vector(dist.push(lambda b: bs_xor(b, BitString(n, z))))
        assert check({x: v, x ^ z: want}, x, z, identity(n)) == (True, 0.0)
        # a word sigma moves, so the two pmfs of the stand-in sit at two words
        xp = next((1 << i for i, j in enumerate(mapping) if i != j), x)
        yp = bs_apply_permutation(sigma, BitString(n, xp)).word
        want = vector(dist.push(lambda b: bs_apply_permutation(sigma, b)))
        assert check({xp: v, yp: want}, xp, 0, sigma) == (True, 0.0)


def scatter_push(v: np.ndarray, sigma: Permutation) -> np.ndarray:
    """v pushed through sigma by one scatter through ``permute_words``'s table."""
    out = np.empty_like(v)
    out[permute_words(sigma, np.arange(v.size))] = v
    return out


class TestPermutePmf:
    """The transpose that pushes a pmf through sigma against the scatter it
    replaced, on pmfs with distinct entries, so any misplaced entry shows."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_permutation_up_to_n_6(self, n):
        v = np.random.default_rng(n).random(1 << n)
        for mapping in permutations(range(n)):
            sigma = Permutation(mapping)
            assert np.array_equal(unbiasedness._permute_pmf(v, sigma), scatter_push(v, sigma))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from((12, 16)).flatmap(lambda n: st.permutations(range(n))),
           st.integers(0, 2**64 - 1))
    def test_random_permutations_at_n_12_and_16(self, mapping, seed):
        sigma = Permutation(tuple(mapping))
        v = np.random.default_rng(seed).random(1 << len(mapping))
        assert np.array_equal(unbiasedness._permute_pmf(v, sigma), scatter_push(v, sigma))


class TestPermuteWords:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(n))))
    def test_every_word_up_to_n_10(self, mapping):
        n = len(mapping)
        sigma = Permutation(tuple(mapping))
        table = permute_words(sigma, np.arange(1 << n))
        want = [bs_apply_permutation(sigma, BitString(n, w)).word for w in range(1 << n)]
        assert table.tolist() == want
        assert [apply_permutation(sigma, w) for w in range(1 << n)] == want

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(range(16)), st.integers(0, 2**64 - 1))
    def test_random_permutations_at_n_16(self, mapping, seed):
        sigma = Permutation(tuple(mapping))
        table = permute_words(sigma, np.arange(1 << 16))
        assert sorted(table.tolist()) == list(range(1 << 16))
        words = [0, 1, 1 << 15, (1 << 16) - 1]
        words += np.random.default_rng(seed).integers(0, 1 << 16, size=500).tolist()
        for w in words:
            assert table[w] == bs_apply_permutation(sigma, BitString(16, w)).word
            assert table[w] == apply_permutation(sigma, w)
