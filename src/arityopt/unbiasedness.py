"""Executable certifier for operator unbiasedness.

An operator is unbiased when its output distribution commutes with every
xor shift and every bit-position permutation of its inputs.  For n up to 16
both conditions are checked exactly by comparing full pmfs; beyond that the
certifier degrades to a statistical two-sample comparison of sampler output.
A deliberately biased control operator (constant all-ones output) is built in
as a negative control for the certification pipeline itself.

The exact pmfs are dense vectors from ``operators.pmf_vector``, indexed by
output word.  A pmf is pushed through a bijection of words by one scatter
through a table of its images: ``arange(2**n) ^ z`` for an xor shift, and
``bitcore.permute_words`` over ``arange(2**n)`` for a permutation.  A push
only moves entries and sums none, so every probability, deviation and
report is the one a dict pmf over ``BitString`` outputs gives.

A statistical trial draws its two samples interleaved, every draw through
``operators.sample_operator``, and then maps and profiles each side in one
array pass: the first side is pushed through the automorphism by
``permute_words``, and every sample becomes a row of Hamming distances
counted by ``np.bitwise_count``.  The two sides' profile counts are then
compared by Pearson's chi-square test, computed with the standard library's
``math.erfc``, ``math.exp`` and ``math.lgamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcore import BitString, Permutation, apply_permutation, permute_words, random_word
from .consistency import ExactEnumerationUnavailable, embed_word
from .operators import (
    EXACT_PMF_LIMIT,
    OPERATORS,
    OperatorId,
    choose_consistent_id,
    choose_consistent_sub_id,
    exact_pmf,  # noqa: F401  (kept as a module attribute: per-layer tracing wraps it here)
    pmf_vector,
    sample_operator,
)

__all__ = [
    "NEGATIVE_CONTROL_NAME",
    "SHIPPED_OPERATOR_FAMILIES",
    "CertificationReport",
    "check_xor_invariance",
    "check_perm_invariance",
    "certify_operator",
]

EXACT_TOLERANCE = 1e-12
STATISTICAL_ALPHA = 1e-3  # per report, Bonferroni-corrected across trials

NEGATIVE_CONTROL_NAME = "constantOnes"

SHIPPED_OPERATOR_FAMILIES = tuple(OPERATORS)


@dataclass(frozen=True)
class _ControlId:
    """Stands in for an OperatorId; deliberately not a valid operator name."""

    name: str = NEGATIVE_CONTROL_NAME
    arity: int = 1
    params: tuple | None = None


NEGATIVE_CONTROL = _ControlId()


@dataclass(frozen=True)
class CertificationReport:
    operator: str
    mode: str
    trials: int
    worst_deviation: float
    passed: bool


def _require_exact(n: int) -> None:
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )


def _pmf(op, inputs: list[BitString], n: int) -> np.ndarray:
    """Exact pmf vector of op on inputs; the control is one-hot at all-ones."""
    if op.name == NEGATIVE_CONTROL_NAME:
        v = np.zeros(1 << n)
        v[-1] = 1.0
        return v
    return pmf_vector(op, [x.word for x in inputs], n)


def _push(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Pushforward of a pmf vector through the bijection w -> table[w]."""
    out = np.zeros_like(v)
    out[table] = v
    return out


def _deviation(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    dev = float(np.abs(a - b).max())
    return dev <= EXACT_TOLERANCE, dev


def _control_sample(inputs, n, rng):
    return (1 << n) - 1


def check_xor_invariance(op, inputs, z: BitString) -> tuple[bool, float]:
    """Exact check of shift equivariance: pmf(inputs) pushed through xor-z
    must equal pmf(inputs xor z).  Returns (passed, max pointwise deviation)."""
    n = z.n
    _require_exact(n)
    shifted = [x ^ z for x in inputs]
    pushed = _push(_pmf(op, inputs, n), np.arange(1 << n) ^ z.word)
    return _deviation(pushed, _pmf(op, shifted, n))


def check_perm_invariance(op, inputs, sigma: Permutation) -> tuple[bool, float]:
    """Exact check of permutation equivariance, analogous to the xor check."""
    n = sigma.size
    _require_exact(n)
    permuted = [apply_permutation(sigma, x) for x in inputs]
    pushed = _push(_pmf(op, inputs, n), permute_words(sigma, np.arange(1 << n)))
    return _deviation(pushed, _pmf(op, permuted, n))


def _rand_bs(n, rng):
    return BitString(n, random_word(n, rng))


def _trial_case(family: str, n: int, rng) -> tuple[object, list[BitString]]:
    """One random (operator instance, inputs) pair for the family."""
    if family == NEGATIVE_CONTROL_NAME:
        return NEGATIVE_CONTROL, [_rand_bs(n, rng)]
    if family == "chooseConsistent":
        t = int(rng.integers(1, 5))
        points = [_rand_bs(n, rng) for _ in range(t)]
        if rng.random() < 0.5:
            # values realizable by a hidden string, so the set is nonempty
            w = _rand_bs(n, rng)
            values = [n - (w.word ^ p.word).bit_count() for p in points]
        else:
            values = [int(rng.integers(0, n + 1)) for _ in range(t)]
        return choose_consistent_id(values), points
    if family == "chooseConsistentSub":
        ell = int(rng.integers(1, min(n, 6) + 1))
        r = int(rng.integers(1, 4))
        a_lo = _rand_bs(n, rng)
        block = sorted(int(p) for p in rng.choice(n, size=ell, replace=False))
        mask = sum(1 << p for p in block)
        a_hi = BitString(n, a_lo.word ^ mask)
        outside = a_lo.word & ~mask
        points = [
            BitString(n, embed_word(int(rng.integers(0, 1 << ell)), block, outside))
            for _ in range(r)
        ]
        values = [int(rng.integers(0, ell + 1)) for _ in range(r)]
        return choose_consistent_sub_id(values), points + [a_lo, a_hi]
    params = (int(rng.integers(0, n + 1)),) if family == "flipKWhereDifferent" else None
    op = OperatorId(family, params)
    return op, [_rand_bs(n, rng) for _ in range(op.arity)]


def _chi2_contingency_p(a: np.ndarray, b: np.ndarray) -> float:
    """p value of Pearson's chi-square test on the 2 x m table [a, b].

    The statistic is the one ``scipy.stats.chi2_contingency`` computes, with
    Yates's correction at one degree of freedom.  The p value is the
    survival function Q(dof/2, x/2) by the half-integer recurrence
    Q(s + 1, y) = Q(s, y) + y**s * exp(-y) / gamma(s + 1) (Abramowitz &
    Stegun 6.5), started from Q(1/2, y) = erfc(sqrt y) for odd dof and
    Q(0, y) = 0 for even dof.  The added terms are summed in log space, so a
    large statistic at a large dof gives a tiny p and not 0.
    """
    observed = np.vstack([a, b])
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0) / observed.sum()
    dof = observed.shape[1] - 1
    if dof == 1:
        diff = expected - observed
        observed = observed + np.sign(diff) * np.minimum(0.5, np.abs(diff))
    y = float(((observed - expected) ** 2 / expected).sum()) / 2
    if y == 0:
        return 1.0
    half = dof % 2 / 2
    p = math.erfc(math.sqrt(y)) if half else 0.0
    logs = [(j + half) * math.log(y) - y - math.lgamma(j + half + 1) for j in range(dof // 2)]
    if logs:
        top = max(logs)
        p += math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs)))
    return p


def _statistical_trial(family, n, rng, samples: int) -> tuple[float, float]:
    """Two-sample comparison of op(inputs) pushed through an automorphism
    against op on the transformed inputs.  Returns (p value, max freq diff).

    The loop only draws: the samples of the two sides interleave, each
    through ``sample_operator``.  Afterwards the samples are mapped and
    profiled in one pass over an object array, which holds words of any n:
    side 1 is pushed through the automorphism, and every sample becomes its
    popcount and its distances to the transformed inputs.  The cells are the
    distinct profiles in ascending lexicographic order.
    """
    op, inputs = _trial_case(family, n, rng)
    sigma = Permutation.random(n, rng)
    z = _rand_bs(n, rng)
    t_inputs = [apply_permutation(sigma, x) ^ z for x in inputs]
    ref = [b.word for b in t_inputs]
    sample = (
        _control_sample
        if op.name == NEGATIVE_CONTROL_NAME
        else lambda ws, m, g: sample_operator(op, ws, m, g)
    )
    in_words = [b.word for b in inputs]
    w1, w2 = [], []
    for _ in range(samples):
        w1.append(sample(in_words, n, rng))
        w2.append(sample(ref, n, rng))
    m1 = permute_words(sigma, np.array(w1, dtype=object)) ^ z.word
    words = np.concatenate([m1, np.array(w2, dtype=object)])
    rows = [np.bitwise_count(words)] + [np.bitwise_count(words ^ r) for r in ref]
    cells, cell = np.unique(np.array(rows, dtype=np.int64).T, axis=0, return_inverse=True)
    c1 = np.bincount(cell[:samples], minlength=len(cells)).astype(float)
    c2 = np.bincount(cell[samples:], minlength=len(cells)).astype(float)
    dev = float(np.max(np.abs(c1 - c2)) / samples)
    # merge sparse cells so the chi-square approximation is sound
    keep = (c1 + c2) >= 10
    a = np.concatenate([c1[keep], [c1[~keep].sum()]])
    b = np.concatenate([c2[keep], [c2[~keep].sum()]])
    nz = (a + b) > 0
    a, b = a[nz], b[nz]
    if a.size < 2:
        return 1.0, dev
    return _chi2_contingency_p(a, b), dev


def certify_operator(op, n: int, trials: int, rng, mode: str | None = None) -> CertificationReport:
    """Certify one operator family over random trials.

    ``op`` may be a family name or an OperatorId (its name selects the
    family).  Exact mode compares pmfs for both invariance conditions on
    random (inputs, z, sigma); it applies for n <= 16.  Statistical mode
    compares sampler frequencies under random automorphisms and applies at
    any n; failures there are statistical evidence, not proof.
    """
    family = op if isinstance(op, str) else op.name
    if family != NEGATIVE_CONTROL_NAME and family not in SHIPPED_OPERATOR_FAMILIES:
        raise ValueError(f"unknown operator family {family!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got n={n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if mode is None:
        mode = "exact" if n <= EXACT_PMF_LIMIT else "statistical"
    if mode == "exact" and n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"exact mode needs n <= {EXACT_PMF_LIMIT}, got {n}"
        )

    worst = 0.0
    passed = True
    if mode == "exact":
        for _ in range(trials):
            case, inputs = _trial_case(family, n, rng)
            z = _rand_bs(n, rng)
            sigma = Permutation.random(n, rng)
            ok_x, dev_x = check_xor_invariance(case, inputs, z)
            ok_p, dev_p = check_perm_invariance(case, inputs, sigma)
            worst = max(worst, dev_x, dev_p)
            passed = passed and ok_x and ok_p
    elif mode == "statistical":
        threshold = STATISTICAL_ALPHA / trials
        for _ in range(trials):
            p, dev = _statistical_trial(family, n, rng, samples=2000)
            worst = max(worst, dev)
            passed = passed and p > threshold
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CertificationReport(family, mode, trials, worst, passed)
