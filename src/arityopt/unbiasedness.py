"""Executable certifier for operator unbiasedness.

An operator is unbiased when its output distribution commutes with every
xor shift and every bit-position permutation of its inputs.  For n up to 16
both conditions are checked exactly by comparing full pmfs; beyond that the
certifier degrades to a statistical two-sample comparison of sampler output.
A deliberately biased control operator (constant all-ones output) is built in
as a negative control for the certification pipeline itself.

Everything is computed on int words.  One exact check per trial builds the
pmf of the trial's words once, as a dense vector from
``operators.pmf_vector`` indexed by output word, and pushes it through both
bijections of words.  The xor shift is one scatter through the table
``arange(2**n) ^ z``.  The permutation moves the bits of every index, so it
is a transpose of the vector seen as a ``(2,)*n`` tensor with one axis per
bit.  A push only moves entries and sums none, so every probability,
deviation and report is the one a dict pmf over ``BitString`` outputs gives.

A statistical trial draws its two samples interleaved, every draw through
``operators.sample_operator``, and then maps and profiles them in one pass
over an array of int64 words (of Python ints from n = 64 on): side 1 is
pushed through the automorphism by ``permute_words``, and every sample
becomes a row of Hamming distances counted by ``np.bitwise_count``.  The
two sides' profile counts are then compared by Pearson's chi-square test,
computed with ``math.erfc``, ``math.exp`` and ``math.lgamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcore import Permutation, apply_permutation, permute_words, random_word
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
    "check_invariance",
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


def _pmf(op, words: list[int], n: int) -> np.ndarray:
    """Exact pmf vector of op on words; the control is one-hot at all-ones."""
    if op.name == NEGATIVE_CONTROL_NAME:
        v = np.zeros(1 << n)
        v[-1] = 1.0
        return v
    return pmf_vector(op, words, n)


def _control_sample(inputs, n, rng):
    return (1 << n) - 1


def _permute_pmf(v: np.ndarray, sigma: Permutation) -> np.ndarray:
    """v pushed through sigma: a transpose of the (2,)*n tensor, whose axis k is bit n-1-k."""
    n, m = sigma.size, sigma.mapping
    return v.reshape((2,) * n).transpose([n - 1 - m[n - 1 - k] for k in range(n)]).reshape(-1)


def check_invariance(op, words: list[int], z: int, sigma: Permutation) -> tuple[bool, float]:
    """Exact check of both equivariance conditions on n = sigma.size bits.

    pmf(words) pushed through xor-z must equal pmf(words xor z), and pushed
    through sigma must equal pmf(sigma(words)).  Returns (passed, the larger
    of the two max pointwise deviations).
    """
    n = sigma.size
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    if z < 0 or z >> n:
        raise ValueError(f"word {z:#x} does not fit in {n} bits")
    v = _pmf(op, words, n)
    # the xor table is a bijection, so one scatter overwrites every entry
    pushed = np.empty_like(v)
    pushed[np.arange(1 << n) ^ z] = v
    dev_x = float(np.abs(pushed - _pmf(op, [w ^ z for w in words], n)).max())
    permuted = [apply_permutation(sigma, w) for w in words]
    dev_p = float(np.abs(_permute_pmf(v, sigma) - _pmf(op, permuted, n)).max())
    dev = max(dev_x, dev_p)
    return dev <= EXACT_TOLERANCE, dev


def _trial_case(family: str, n: int, rng) -> tuple[object, list[int]]:
    """One random (operator instance, input words) pair for the family."""
    if family == NEGATIVE_CONTROL_NAME:
        return NEGATIVE_CONTROL, [random_word(n, rng)]
    if family == "chooseConsistent":
        t = int(rng.integers(1, 5))
        points = [random_word(n, rng) for _ in range(t)]
        if rng.random() < 0.5:
            # values realizable by a hidden string, so the set is nonempty
            w = random_word(n, rng)
            values = [n - (w ^ p).bit_count() for p in points]
        else:
            values = [int(rng.integers(0, n + 1)) for _ in range(t)]
        return choose_consistent_id(values), points
    if family == "chooseConsistentSub":
        ell = int(rng.integers(1, min(n, 6) + 1))
        r = int(rng.integers(1, 4))
        a_lo = random_word(n, rng)
        block = sorted(int(p) for p in rng.choice(n, size=ell, replace=False))
        mask = sum(1 << p for p in block)
        outside = a_lo & ~mask
        points = [embed_word(int(rng.integers(0, 1 << ell)), block, outside) for _ in range(r)]
        values = [int(rng.integers(0, ell + 1)) for _ in range(r)]
        return choose_consistent_sub_id(values), points + [a_lo, a_lo ^ mask]
    params = (int(rng.integers(0, n + 1)),) if family == "flipKWhereDifferent" else None
    op = OperatorId(family, params)
    return op, [random_word(n, rng) for _ in range(op.arity)]


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
    through ``sample_operator``.  Afterwards one array pass, on int64 words
    for n < 64 and on Python ints above, maps and profiles them: side 1 is
    pushed through the automorphism, and every sample becomes its popcount
    and its distances to the transformed inputs.  The cells are the
    distinct profiles in ascending lexicographic order.
    """
    op, in_words = _trial_case(family, n, rng)
    sigma = Permutation.random(n, rng)
    z = random_word(n, rng)
    ref = [apply_permutation(sigma, w) ^ z for w in in_words]
    sample = (
        _control_sample
        if op.name == NEGATIVE_CONTROL_NAME
        else lambda ws, m, g: sample_operator(op, ws, m, g)
    )
    w1, w2 = [], []
    for _ in range(samples):
        w1.append(sample(in_words, n, rng))
        w2.append(sample(ref, n, rng))
    words = np.array(w1 + w2, dtype=np.int64 if n < 64 else object)
    words[:samples] = permute_words(sigma, words[:samples]) ^ z
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
            case, words = _trial_case(family, n, rng)
            z = random_word(n, rng)
            ok, dev = check_invariance(case, words, z, Permutation.random(n, rng))
            worst = max(worst, dev)
            passed = passed and ok
    elif mode == "statistical":
        threshold = STATISTICAL_ALPHA / trials
        for _ in range(trials):
            p, dev = _statistical_trial(family, n, rng, samples=2000)
            worst = max(worst, dev)
            passed = passed and p > threshold
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CertificationReport(family, mode, trials, worst, passed)
