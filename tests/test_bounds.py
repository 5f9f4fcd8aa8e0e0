"""Round counts, the concentration inequality, and theory curves."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from arityopt.bounds import (
    THEORY_MODELS,
    check_proposition1,
    default_d_grid,
    log2_binomial,
    round_count,
    theory_curve,
)


class TestRoundCount:
    def test_pinned_values(self):
        # t(16): (1 + 4*log2(4)/4) * 32/4 = 3 * 8 = 24
        assert round_count(16) == 24

    def test_small_n_clamps(self):
        assert round_count(1) == 1
        assert round_count(2) >= 1

    def test_formula_agreement(self):
        for n in (8, 16, 64, 256, 1 << 20):
            ln = math.log2(n)
            ll = math.log2(ln)
            expected = math.ceil((1 + 4 * ll / ln) * 2 * n / ln)
            assert round_count(n) == expected

    def test_monotone_for_large_n(self):
        values = [round_count(n) for n in (16, 32, 64, 128, 256, 512)]
        assert values == sorted(values)


class TestLog2Binomial:
    def test_known_value(self):
        assert log2_binomial(4, 2) == pytest.approx(math.log2(6), abs=1e-12)

    def test_matches_exact_up_to_60(self):
        for n in range(61):
            for k in range(n + 1):
                exact = math.log2(math.comb(n, k))
                assert log2_binomial(n, k) == pytest.approx(exact, abs=1e-6)

    def test_edges(self):
        assert log2_binomial(10, 0) == pytest.approx(0.0, abs=1e-12)
        assert log2_binomial(10, 10) == pytest.approx(0.0, abs=1e-12)

    def test_large_arguments_finite(self):
        v = log2_binomial(1 << 20, 1 << 19)
        assert 0 < v < (1 << 20)

    def test_matches_scipy_gammaln_at_random_k(self):
        rng = np.random.default_rng(24)
        for _ in range(5000):
            n = int(rng.integers(1, (1 << 24) + 1))
            k = int(rng.integers(0, n + 1))
            want = float(
                (special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1))
                / math.log(2.0)
            )
            assert log2_binomial(n, k) == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [1 << 24, (1 << 24) - 3, (1 << 22) + 7, 10**6 + 1, 1 << 16])
    def test_matches_exact_where_lgamma_cancels(self, n):
        # at k or n - k near 0 the three lgamma terms nearly cancel
        for k in list(range(40)) + list(range(n - 39, n + 1)):
            exact = math.log2(math.comb(n, k))
            err = abs(log2_binomial(n, k) - exact)
            assert err <= 1e-6 and err <= 1e-8 * exact


class TestDefaultDGrid:
    def test_small_n_is_all_even(self):
        grid = default_d_grid(10)
        assert grid == (2, 4, 6, 8, 10)

    def test_large_n_covers_range(self):
        grid = default_d_grid(1 << 20)
        assert grid[0] == 2
        assert grid[-1] == 1 << 20
        assert all(d % 2 == 0 for d in grid)
        assert list(grid) == sorted(set(grid))


class TestCheckProposition1:
    def test_margin_positive_at_moderate_n(self):
        res = check_proposition1(4096)
        assert res.passed
        assert res.margin > 0
        assert res.rhs_log2 == pytest.approx(-0.75 * res.t)

    def test_lhs_values_follow_formula(self):
        res = check_proposition1(64, d_grid=(2, 32, 64))
        for d, lhs in zip(res.d_grid, res.lhs_log2):
            expected = log2_binomial(64, d) + res.t * (log2_binomial(d, d // 2) - d)
            assert lhs == pytest.approx(expected, rel=1e-12)

    def test_margin_is_min_over_grid(self):
        res = check_proposition1(256)
        assert res.margin == pytest.approx(min(res.rhs_log2 - v for v in res.lhs_log2))

    def test_full_distance_is_allowed(self):
        res = check_proposition1(128, d_grid=(128,))
        assert len(res.lhs_log2) == 1

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            check_proposition1(64, d_grid=(3,))

    def test_out_of_range_d_rejected(self):
        with pytest.raises(ValueError):
            check_proposition1(64, d_grid=(66,))
        with pytest.raises(ValueError):
            check_proposition1(64, d_grid=(0,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_proposition1(64, d_grid=())


class TestTheoryCurve:
    def test_frozen_values(self):
        assert theory_curve("linear_2n", 100) == pytest.approx(200.0)
        assert theory_curve("nlogn", 32) == pytest.approx(160.0)
        assert theory_curve("n_over_logk", 64, 16) == pytest.approx(32.0)
        assert theory_curve("star_ary", 16) == pytest.approx(8.0)

    def test_small_n_guards(self):
        assert theory_curve("nlogn", 1) == pytest.approx(1.0)
        assert theory_curve("star_ary", 1) == pytest.approx(2.0)

    def test_k_required_and_validated(self):
        with pytest.raises(ValueError):
            theory_curve("n_over_logk", 64)
        with pytest.raises(ValueError):
            theory_curve("n_over_logk", 64, 1)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            theory_curve("exponential", 8)

    def test_model_list(self):
        assert set(THEORY_MODELS) == {"linear_2n", "nlogn", "n_over_logk", "star_ary"}
