"""Variation operators: samplers, exact pmfs, and their agreement."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from arityopt.bitcore import BitString
from arityopt.consistency import ExactEnumerationUnavailable
from arityopt.operators import (
    COMPLEMENT,
    FLIP_ONE_UNIFORM,
    FLIP_ONE_WHERE_DIFFERENT,
    RANDOM_WHERE_DIFFERENT,
    SWITCH_IF_DISTANCE_ONE,
    UNIFORM_SAMPLE,
    UPDATE,
    OPERATORS,
    OperatorId,
    OutputDistribution,
    choose_consistent_id,
    choose_consistent_sub_id,
    exact_pmf,
    flip_k_id,
    pmf_vector,
    sample_operator,
)

ALPHA = 1e-3


def bs(s: str) -> BitString:
    return BitString.from_string(s)


def draw(op, *parents, rng=None) -> BitString:
    """One output of op on bitstring parents, through ``sample_operator``."""
    n = parents[0].n
    return BitString(n, sample_operator(op, [x.word for x in parents], n, rng))


# Valid params and the arity they give, for each family whose arity rule is
# a function of its params.
PARAMETRIC_CASES = {
    "flipKWhereDifferent": [((0,), 2), ((3,), 2)],
    "chooseConsistent": [((), 0), ((2,), 1), ((4, 2, 3), 3)],
    "chooseConsistentSub": [((), 2), ((1, 2), 4)],
}


class TestOperatorId:
    def test_fixed_arities(self):
        assert UNIFORM_SAMPLE.arity == 0
        assert COMPLEMENT.arity == 1
        assert FLIP_ONE_WHERE_DIFFERENT.arity == 2
        assert RANDOM_WHERE_DIFFERENT.arity == 2
        assert UPDATE.arity == 3
        assert SWITCH_IF_DISTANCE_ONE.arity == 2
        assert FLIP_ONE_UNIFORM.arity == 1

    def test_parameterized_arities(self):
        assert flip_k_id(3).arity == 2
        assert flip_k_id(3).params == (3,)
        assert choose_consistent_id((4, 2, 3)).arity == 3
        assert choose_consistent_sub_id((1, 2)).arity == 4

    def test_rejects_wrong_arity(self):
        # the arity follows from the name and params, so params on a
        # fixed-arity family and an unknown name are what is left to reject
        with pytest.raises(ValueError):
            OperatorId("complement", (2,))
        with pytest.raises(ValueError):
            OperatorId("nonsense")
        with pytest.raises(ValueError):
            flip_k_id(-1)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_arity_follows_the_rule(self, name):
        rule = OPERATORS[name][1]
        cases = [(None, rule)] if isinstance(rule, int) else PARAMETRIC_CASES[name]
        rng = np.random.default_rng(0)
        for params, arity in cases:
            op = OperatorId(name, params)
            assert op.arity == arity
            if params is not None:
                assert rule(params) == arity
            for wrong in (arity - 1, arity + 1):
                if wrong < 0:
                    continue
                words = [0b0110] * wrong
                with pytest.raises(ValueError, match="parents"):
                    sample_operator(op, words, 4, rng)
                with pytest.raises(ValueError, match="parents"):
                    pmf_vector(op, words, 4)

    @pytest.mark.parametrize("name", sorted(n for n, (_, r) in OPERATORS.items() if isinstance(r, int)))
    def test_fixed_arity_family_rejects_params(self, name):
        for params in ((), (1,)):
            with pytest.raises(ValueError, match=f"{name} takes no params"):
                OperatorId(name, params)

    @pytest.mark.parametrize("name", sorted(n for n, (_, r) in OPERATORS.items() if not isinstance(r, int)))
    def test_parametric_family_rejects_missing_params(self, name):
        with pytest.raises(ValueError, match=f"{name} needs params"):
            OperatorId(name)

    @pytest.mark.parametrize("params", [(), (1, 2), (-1,), 3, (None,)])
    def test_flip_k_rejects_bad_params(self, params):
        with pytest.raises(ValueError, match="flipKWhereDifferent"):
            OperatorId("flipKWhereDifferent", params)

    def test_params_normalised_to_a_tuple_of_ints(self):
        op = OperatorId("chooseConsistent", [3, np.int64(1)])
        assert op.params == (3, 1)
        assert all(type(u) is int for u in op.params)
        assert op == choose_consistent_id((3, 1))
        assert hash(op) == hash(choose_consistent_id([3, 1]))
        assert OperatorId("chooseConsistentSub", np.array([2, 0])).params == (2, 0)

    def test_builders_give_equal_ids(self):
        # the ids the algorithms build, from Python and numpy ints alike
        assert flip_k_id(np.int64(3)) == OperatorId("flipKWhereDifferent", (3,))
        assert hash(flip_k_id(np.int64(3))) == hash(OperatorId("flipKWhereDifferent", (3,)))
        values = np.array([4, 2, 3])
        assert choose_consistent_id(values) == OperatorId("chooseConsistent", (4, 2, 3))
        assert choose_consistent_id(u for u in values).params == (4, 2, 3)
        assert choose_consistent_sub_id(values) == OperatorId("chooseConsistentSub", (4, 2, 3))
        assert len({flip_k_id(1), flip_k_id(1), choose_consistent_id([1])}) == 2


class TestDeterministicOperators:
    def test_complement(self):
        assert draw(COMPLEMENT, bs("0000")) == bs("1111")
        assert draw(COMPLEMENT, draw(COMPLEMENT, bs("0110"))) == bs("0110")

    def test_update_rule(self):
        # bit takes b where a and c agree, keeps a elsewhere
        a = bs("101100110")
        b = bs("010011110")
        c = bs("101011110")
        assert draw(UPDATE, a, b, c) == bs("010100110")

    def test_update_edges(self):
        a, b = bs("0101"), bs("1100")
        assert draw(UPDATE, a, b, a) == b
        assert draw(UPDATE, a, b, draw(COMPLEMENT, a)) == a

    def test_switch_if_distance_one(self):
        assert draw(SWITCH_IF_DISTANCE_ONE, bs("000"), bs("001")) == bs("001")
        assert draw(SWITCH_IF_DISTANCE_ONE, bs("000"), bs("011")) == bs("000")
        assert draw(SWITCH_IF_DISTANCE_ONE, bs("000"), bs("000")) == bs("000")


class TestSamplerBehavior:
    def test_flip_one_support(self):
        rng = np.random.default_rng(0)
        seen = {draw(FLIP_ONE_WHERE_DIFFERENT, bs("00"), bs("11"), rng=rng) for _ in range(200)}
        assert seen == {bs("01"), bs("10")}

    def test_flip_one_single_difference_is_forced(self):
        rng = np.random.default_rng(1)
        assert draw(FLIP_ONE_WHERE_DIFFERENT, bs("00"), bs("01"), rng=rng) == bs("01")

    def test_flip_one_identical_inputs(self):
        rng = np.random.default_rng(2)
        assert draw(FLIP_ONE_WHERE_DIFFERENT, bs("0110"), bs("0110"), rng=rng) == bs("0110")

    def test_flip_k_copies_y_and_flips_toward_x(self):
        rng = np.random.default_rng(3)
        seen = {draw(flip_k_id(2), bs("000"), bs("111"), rng=rng) for _ in range(200)}
        assert seen == {bs("001"), bs("010"), bs("100")}

    def test_flip_k_clamps_to_distance(self):
        rng = np.random.default_rng(4)
        assert draw(flip_k_id(0), bs("000"), bs("110"), rng=rng) == bs("110")
        assert draw(flip_k_id(5), bs("010"), bs("111"), rng=rng) == bs("010")

    def test_random_where_different_respects_agreement(self):
        rng = np.random.default_rng(5)
        x, y = bs("0011"), bs("0101")
        for _ in range(100):
            out = draw(RANDOM_WHERE_DIFFERENT, x, y, rng=rng)
            assert out.word & 1 == 0 and (out.word >> 3) & 1 == 1

    def test_flip_one_uniform_changes_exactly_one_bit(self):
        rng = np.random.default_rng(6)
        x = bs("10110")
        for _ in range(100):
            out = draw(FLIP_ONE_UNIFORM, x, rng=rng)
            assert (out.word ^ x.word).bit_count() == 1

    def test_uniform_sample_length(self):
        rng = np.random.default_rng(7)
        assert BitString(37, sample_operator(UNIFORM_SAMPLE, [], 37, rng)).n == 37

    def test_length_mismatch(self):
        # parents of different lengths reach no kernel: exact_pmf rejects them
        with pytest.raises(ValueError):
            exact_pmf(FLIP_ONE_WHERE_DIFFERENT, [bs("00"), bs("000")])
        with pytest.raises(ValueError):
            exact_pmf(UPDATE, [bs("00"), bs("000"), bs("00")])
        with pytest.raises(ValueError):
            sample_operator(UPDATE, [0, 0], 2, None)

    def test_determinism_per_seed(self):
        ops_inputs = [
            (UNIFORM_SAMPLE, []),
            (FLIP_ONE_WHERE_DIFFERENT, [bs("000000"), bs("111111")]),
            (flip_k_id(2), [bs("000000"), bs("111111")]),
            (RANDOM_WHERE_DIFFERENT, [bs("000000"), bs("101010")]),
            (FLIP_ONE_UNIFORM, [bs("010101")]),
            (choose_consistent_id((3,)), [bs("000000")]),
        ]
        for op, inputs in ops_inputs:
            words = [x.word for x in inputs]
            a = sample_operator(op, words, 6, np.random.default_rng(42))
            b = sample_operator(op, words, 6, np.random.default_rng(42))
            assert a == b


class TestExactPmf:
    def test_uniform_sample(self):
        dist = exact_pmf(UNIFORM_SAMPLE, [], n=3)
        assert len(dist.support) == 8
        assert dist.support.get(bs("101"), 0.0) == pytest.approx(1 / 8)

    def test_complement_point_mass(self):
        dist = exact_pmf(COMPLEMENT, [bs("0101")])
        assert dist.support == {bs("1010"): 1.0}

    def test_flip_one(self):
        dist = exact_pmf(FLIP_ONE_WHERE_DIFFERENT, [bs("00"), bs("11")])
        assert dist.support.get(bs("01"), 0.0) == pytest.approx(0.5)
        assert dist.support.get(bs("10"), 0.0) == pytest.approx(0.5)

    def test_flip_k(self):
        dist = exact_pmf(flip_k_id(2), [bs("000"), bs("111")])
        assert {x: pytest.approx(1 / 3) for x in dist.support} == {
            bs("001"): 1 / 3, bs("010"): 1 / 3, bs("100"): 1 / 3,
        }

    def test_random_where_different(self):
        dist = exact_pmf(RANDOM_WHERE_DIFFERENT, [bs("000"), bs("110")])
        assert len(dist.support) == 4
        for x in (bs("000"), bs("100"), bs("010"), bs("110")):
            assert dist.support.get(x, 0.0) == pytest.approx(1 / 4)

    def test_flip_k_ell_one_matches_flip_one_reversed(self):
        # flipping one differing bit of a copy of y is flip-one on (y, x)
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            x = BitString(n, int(rng.integers(1 << n)))
            y = BitString(n, int(rng.integers(1 << n)))
            if x == y:
                continue
            a = exact_pmf(flip_k_id(1), [x, y])
            b = exact_pmf(FLIP_ONE_WHERE_DIFFERENT, [y, x])
            assert a.support == b.support

    def test_choose_consistent_uniform_on_survivors(self):
        dist = exact_pmf(choose_consistent_id((1,)), [bs("000")])
        assert len(dist.support) == 3
        assert dist.support.get(bs("011"), 0.0) == pytest.approx(1 / 3)

    def test_choose_consistent_empty_falls_back(self):
        dist = exact_pmf(choose_consistent_id((0, 2)), [bs("00"), bs("00")])
        assert len(dist.support) == 4

    def test_choose_consistent_sub_stays_outside_block(self):
        # anchors differ at positions 3 and 4 only, so 1 and 2 are pinned
        op = choose_consistent_sub_id((1,))
        inputs = [bs("1001"), bs("1000"), bs("1011")]
        dist = exact_pmf(op, inputs)
        assert set(dist.support) == {bs("1000"), bs("1011")}
        for x in dist.support:
            assert x.word & 1 == 1 and (x.word >> 1) & 1 == 0

    def test_wrong_input_count(self):
        with pytest.raises(ValueError):
            exact_pmf(COMPLEMENT, [bs("0"), bs("1")])

    def test_enumeration_limit(self):
        with pytest.raises(ExactEnumerationUnavailable):
            exact_pmf(COMPLEMENT, [BitString(17, 0)])

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            OutputDistribution({bs("0"): 0.7})


def _chi_square_vs_pmf(op, inputs, n, samples, seed):
    dist = exact_pmf(op, inputs, n=n)
    words = [x.word for x in inputs]
    rng = np.random.default_rng(seed)
    counts: dict = {}
    for _ in range(samples):
        w = sample_operator(op, words, n, rng)
        counts[w] = counts.get(w, 0) + 1
    support = sorted(dist.support, key=lambda b: b.word)
    expected = np.array([dist.support[b] * samples for b in support])
    observed = np.array([counts.pop(b.word, 0) for b in support])
    assert not counts, "sampler produced a word outside the pmf support"
    keep = expected > 0
    if keep.sum() < 2:
        assert observed[keep].sum() == samples
        return
    _, p_value = stats.chisquare(observed[keep], expected[keep])
    assert p_value > ALPHA, f"{op.name}: p={p_value:.2e}"


class TestSamplerMatchesPmf:
    SAMPLES = 100_000

    def test_uniform_sample(self):
        _chi_square_vs_pmf(UNIFORM_SAMPLE, [], 5, self.SAMPLES, 10)

    def test_complement(self):
        _chi_square_vs_pmf(COMPLEMENT, [bs("01101")], 5, 1000, 11)

    def test_flip_one(self):
        _chi_square_vs_pmf(
            FLIP_ONE_WHERE_DIFFERENT, [bs("0000000"), bs("1110111")], 7, self.SAMPLES, 12
        )

    def test_flip_k(self):
        _chi_square_vs_pmf(
            flip_k_id(3), [bs("00000000"), bs("11111010")], 8, self.SAMPLES, 13
        )

    def test_random_where_different(self):
        _chi_square_vs_pmf(
            RANDOM_WHERE_DIFFERENT, [bs("000000"), bs("111100")], 6, self.SAMPLES, 14
        )

    def test_flip_one_uniform(self):
        _chi_square_vs_pmf(FLIP_ONE_UNIFORM, [bs("010010")], 6, self.SAMPLES, 15)

    def test_switch(self):
        _chi_square_vs_pmf(
            SWITCH_IF_DISTANCE_ONE, [bs("0000"), bs("0100")], 4, 1000, 16
        )

    def test_update(self):
        _chi_square_vs_pmf(
            UPDATE, [bs("0101"), bs("1100"), bs("0110")], 4, 1000, 17
        )

    def test_choose_consistent(self):
        _chi_square_vs_pmf(
            choose_consistent_id((2, 3)), [bs("00000"), bs("10100")], 5, self.SAMPLES, 18
        )

    def test_choose_consistent_sub(self):
        op = choose_consistent_sub_id((2,))
        inputs = [bs("010110"), bs("010000"), bs("011110")]
        _chi_square_vs_pmf(op, inputs, 6, self.SAMPLES, 19)
