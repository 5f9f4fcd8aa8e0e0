"""Invariance certification: exact checks, the negative control, statistics."""

from __future__ import annotations

import numpy as np
import pytest

from arityopt.bitcore import BitString, Permutation
from arityopt.consistency import ExactEnumerationUnavailable
from arityopt.operators import (
    FLIP_ONE_WHERE_DIFFERENT,
    RANDOM_WHERE_DIFFERENT,
    UPDATE,
    flip_k_id,
)
from arityopt.unbiasedness import (
    EXACT_TOLERANCE,
    NEGATIVE_CONTROL,
    NEGATIVE_CONTROL_NAME,
    SHIPPED_OPERATOR_FAMILIES,
    certify_operator,
    check_invariance,
)


def w(s: str) -> int:
    return BitString.from_string(s).word


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


class TestInvarianceChecks:
    """Each check isolates one condition: identity sigma leaves only the xor
    shift, z = 0 leaves only the permutation."""

    def test_xor_invariance_holds_for_flip_one(self):
        ok, dev = check_invariance(
            FLIP_ONE_WHERE_DIFFERENT, [w("000000"), w("110100")], w("101010"), identity(6)
        )
        assert ok and dev <= EXACT_TOLERANCE

    def test_perm_invariance_holds_for_rwd(self):
        sigma = Permutation((2, 0, 3, 1, 4))
        ok, dev = check_invariance(
            RANDOM_WHERE_DIFFERENT, [w("00000"), w("11010")], 0, sigma
        )
        assert ok and dev <= EXACT_TOLERANCE

    def test_deterministic_ternary_operator(self):
        ok, _ = check_invariance(
            UPDATE, [w("0101"), w("1100"), w("0110")], w("1111"), identity(4)
        )
        assert ok

    def test_identity_transformations_give_zero_deviation(self):
        ok, dev = check_invariance(flip_k_id(2), [w("000000"), w("111111")], 0, identity(6))
        assert ok and dev == 0.0

    def test_negative_control_breaks_xor_invariance(self):
        ok, dev = check_invariance(NEGATIVE_CONTROL, [w("0000")], w("1000"), identity(4))
        assert not ok
        assert dev >= 0.5

    def test_negative_control_breaks_xor_and_passes_perm(self):
        # all-ones is fixed by every permutation, so only the shift breaks it
        sigma = Permutation((2, 0, 3, 1))
        assert check_invariance(NEGATIVE_CONTROL, [w("0110")], 0, sigma) == (True, 0.0)
        assert check_invariance(NEGATIVE_CONTROL, [w("0110")], w("0011"), identity(4)) == (False, 1.0)

    def test_limit_checked_before_any_pmf(self):
        with pytest.raises(ExactEnumerationUnavailable):
            check_invariance(NEGATIVE_CONTROL, [0], 0, identity(17))


class TestCertifyOperator:
    def test_all_shipped_families_pass_exact(self):
        rng = np.random.default_rng(0)
        for family in SHIPPED_OPERATOR_FAMILIES:
            report = certify_operator(family, 6, 25, rng)
            assert report.passed, family
            assert report.mode == "exact"
            assert report.worst_deviation <= EXACT_TOLERANCE

    def test_control_fails_exact(self):
        rng = np.random.default_rng(1)
        report = certify_operator(NEGATIVE_CONTROL_NAME, 6, 25, rng)
        assert not report.passed
        assert report.worst_deviation >= 0.5

    def test_exact_mode_refused_above_limit(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ExactEnumerationUnavailable):
            certify_operator("complement", 20, 5, rng, mode="exact")

    def test_statistical_mode_smoke(self):
        rng = np.random.default_rng(3)
        report = certify_operator("flipOneWhereDifferent", 20, 5, rng)
        assert report.mode == "statistical"
        assert report.passed

    def test_statistical_smoke_choose_consistent(self):
        rng = np.random.default_rng(4)
        report = certify_operator("chooseConsistent", 18, 4, rng, mode="statistical")
        assert report.passed

    def test_statistical_control_fails(self):
        rng = np.random.default_rng(5)
        report = certify_operator(NEGATIVE_CONTROL_NAME, 20, 5, rng, mode="statistical")
        assert not report.passed

    def test_unknown_family_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            certify_operator("fourierSample", 6, 5, rng)

    def test_trials_validated(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            certify_operator("complement", 6, 0, rng)

    @pytest.mark.parametrize("n", (0, -3))
    def test_n_validated(self, n):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match=f"n={n}"):
            certify_operator("complement", n, 5, rng)
