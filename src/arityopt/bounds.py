"""Log-space checks of the sampling-concentration bound, and theory curves.

The central inequality says that for the round count t used by the star-ary
sampler, C(n, d) * (C(d, d/2) * 2**-d)**t <= 2**(-3t/4) for every even d.
At n around 2**20 the binomials overflow any fixed-width float, so everything
here is evaluated in log2 space via the standard library's ``math.lgamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "round_count",
    "log2_binomial",
    "BoundCheckResult",
    "check_proposition1",
    "default_d_grid",
    "theory_curve",
    "THEORY_MODELS",
]

_LN2 = math.log(2.0)

THEORY_MODELS = ("linear_2n", "nlogn", "n_over_logk", "star_ary")


def round_count(n: int) -> int:
    """Samples per round: ceil((1 + 4*log2(log2 n)/log2 n) * 2n/log2 n).

    Base-2 logs throughout.  The loglog term is clamped to 0 for n <= 2 and
    the result to at least 1, since the formula is undefined at tiny n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 1
    ln = math.log2(n)
    ll = math.log2(ln) if n > 2 else 0.0
    return max(1, math.ceil((1.0 + 4.0 * ll / ln) * 2.0 * n / ln))


def log2_binomial(n: int, k: int) -> float:
    """log2 of C(n, k) via ``math.lgamma``.

    Up to n = 2**24 it is within 1e-6 of the exact value, and within 1e-10
    relative of scipy's ``gammaln`` at k drawn uniformly from 0..n.  At k or
    n - k near 0 the lgamma difference cancels, which limits the relative
    accuracy to about 1e-8.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / _LN2


def default_d_grid(n: int) -> tuple[int, ...]:
    """Even d up to 2**11, plus 64 geometrically spaced even values up to n."""
    dense = list(range(2, min(n, 2048) + 1, 2))
    grid = set(dense)
    if n > 2048:
        for g in np.geomspace(2048, n, num=64):
            d = int(round(g / 2)) * 2
            if 2 <= d <= n:
                grid.add(d)
        grid.add(n if n % 2 == 0 else n - 1)
    return tuple(sorted(grid))


@dataclass(frozen=True)
class BoundCheckResult:
    """Per-d log2 values of both sides of the concentration inequality."""

    n: int
    t: int
    d_grid: tuple[int, ...]
    lhs_log2: tuple[float, ...]
    rhs_log2: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


def check_proposition1(n: int, d_grid=None) -> BoundCheckResult:
    """Evaluate the inequality on the grid; margin is min(rhs - lhs) in log2.

    lhs(d) = log2 C(n, d) + t * (log2 C(d, d/2) - d) and rhs = -3t/4, with
    t = round_count(n).  The inequality is asymptotic, so small n may fail
    for some d; the result reports the margin without asserting.
    """
    t = round_count(n)
    grid = tuple(default_d_grid(n) if d_grid is None else (int(d) for d in d_grid))
    if not grid:
        raise ValueError("empty d grid")
    lhs = []
    for d in grid:
        if d % 2 or not 2 <= d <= n:
            raise ValueError(f"grid values must be even in 2..n, got {d}")
        lhs.append(log2_binomial(n, d) + t * (log2_binomial(d, d // 2) - d))
    rhs = -0.75 * t
    margin = min(rhs - v for v in lhs)
    return BoundCheckResult(n, t, grid, tuple(lhs), rhs, margin)


def theory_curve(model: str, n: int, k: int | None = None) -> float:
    """Reference query-count curve for result overlays.

    linear_2n -> 2n; nlogn -> n*log2 n (unit leading coefficient; experiment
    fits supply the constant); n_over_logk -> 2n/log2 k; star_ary -> 2n/log2 n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if model == "linear_2n":
        return 2.0 * n
    if model == "nlogn":
        return n * math.log2(n) if n > 1 else 1.0
    if model == "n_over_logk":
        if k is None:
            raise ValueError("n_over_logk requires k")
        if k < 2:
            raise ValueError(f"k must be at least 2, got {k}")
        return 2.0 * n / math.log2(k)
    if model == "star_ary":
        return 2.0 * n / math.log2(n) if n > 1 else 2.0
    raise ValueError(f"unknown model {model!r}, expected one of {THEORY_MODELS}")
