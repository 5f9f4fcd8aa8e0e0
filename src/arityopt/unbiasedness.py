"""Executable certifier for operator unbiasedness.

An operator is unbiased when its output distribution commutes with every
xor shift and every bit-position permutation of its inputs.  For n up to 16
both conditions are checked exactly, on output supports; beyond that the
certifier degrades to a statistical two-sample comparison of sampler output.
A deliberately biased control operator (constant all-ones output) is built in
as a negative control for the certification pipeline itself.

Everything is computed on int words.  Every family, and the control, is
uniform on its support, so an exact trial compares supports, the ascending
word arrays of ``operators.output_support``.  It builds its own once and
pushes it through the xor shift and through sigma, by the table of sigma(w)
at every word w: ``arange(2**n)`` as a ``(2,)*n`` tensor, transposed.
``_deviation`` gives the max |p - q| that dict pmfs over ``BitString``
outputs give, so every deviation and report is theirs.

A statistical trial draws all of side 1's samples, then all of side 2's,
every draw through ``operators.sample_operator``, so each kernel's one-entry
memo builds once per side.  The trial then maps and profiles them in one
pass over an array of int64 words (of Python ints from n = 64 on): side 1 is
pushed through the automorphism by ``permute_words``, and every sample
becomes a row of Hamming distances counted by ``np.bitwise_count``, whose
lexicographic rank is its cell.  The two sides' cell counts are compared by
Pearson's chi-square test, computed with ``math.erfc``, ``math.exp`` and
``math.lgamma``.
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
    output_support,
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


def _support(op, words: list[int], n: int) -> np.ndarray:
    """Exact output support of op on words; the control's is all-ones."""
    if op.name == NEGATIVE_CONTROL_NAME:
        return np.array([(1 << n) - 1])
    return output_support(op, words, n)


def _word_table(sigma: Permutation) -> np.ndarray:
    """sigma(w) at index w: arange(2**n) as the (2,)*n tensor whose axis k is
    bit n-1-k, transposed by the inverse of sigma."""
    n, inverse = sigma.size, dict(zip(sigma.mapping, range(sigma.size)))
    axes = [n - 1 - inverse[n - 1 - k] for k in range(n)]
    return np.arange(1 << n).reshape((2,) * n).transpose(axes).reshape(-1)


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |p - q| over the union of two ascending supports, each uniform:
    1/size on a word only one of them holds, |pa - pb| on a shared word."""
    if a.size == b.size and (a == b).all():
        return 0.0
    pa, pb = 1.0 / a.size, 1.0 / b.size
    common = np.intersect1d(a, b, assume_unique=True).size
    # with no word shared, |pa - pb| is below both and changes no maximum
    return max([abs(pa - pb)] + [pa] * (common < a.size) + [pb] * (common < b.size))


def check_invariance(op, words: list[int], z: int, sigma: Permutation) -> tuple[bool, float]:
    """Exact check of both equivariance conditions on n = sigma.size bits.

    The support on words, xored with z, must equal the support on the words
    xor z, and mapped by sigma, the support on sigma(words).  Returns
    (passed, the larger of the two max pointwise deviations).
    """
    n = sigma.size
    if n > EXACT_PMF_LIMIT:
        raise ExactEnumerationUnavailable(
            f"length {n} exceeds exact pmf limit {EXACT_PMF_LIMIT}"
        )
    if z < 0 or z >> n:
        raise ValueError(f"word {z:#x} does not fit in {n} bits")
    s = _support(op, words, n)
    shifted, mapped = s ^ z, _word_table(sigma)[s]
    shifted.sort()
    mapped.sort()
    dev_x = _deviation(shifted, _support(op, [w ^ z for w in words], n))
    permuted = [apply_permutation(sigma, w) for w in words]
    dev_p = _deviation(mapped, _support(op, permuted, n))
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
        points = [embed_word(random_word(ell, rng), block, outside) for _ in range(r)]
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


def _cells(table: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """(distinct rows, each row's lexicographic rank) of an int64 table in
    0..n, ranked a column at a time on the 1-D key rank * (n + 1) + column."""
    cell = 0
    for col in table.T:
        keys, cell = np.unique(cell * (n + 1) + col, return_inverse=True)
    return keys.size, cell


def _statistical_trial(family, n, rng, samples: int) -> tuple[float, float]:
    """Two-sample comparison of op(inputs) pushed through an automorphism
    against op on the transformed inputs.  Returns (p value, max freq diff).

    The loops only draw, each sample through ``sample_operator``: all of
    side 1's, then all of side 2's.  Afterwards one array pass, on int64 words
    for n < 64 and on Python ints above, maps and profiles them: side 1 is
    pushed through the automorphism, and every sample becomes its popcount
    and its distances to the transformed inputs.  The cells are the
    distinct profiles in ascending lexicographic order (``_cells``).
    """
    op, in_words = _trial_case(family, n, rng)
    sigma = Permutation.random(n, rng)
    z = random_word(n, rng)
    ref = [apply_permutation(sigma, w) ^ z for w in in_words]
    if op.name == NEGATIVE_CONTROL_NAME:  # all-ones, drawing nothing
        w1 = w2 = [(1 << n) - 1] * samples
    else:
        w1 = [sample_operator(op, in_words, n, rng) for _ in range(samples)]
        w2 = [sample_operator(op, ref, n, rng) for _ in range(samples)]
    words = np.array(w1 + w2, dtype=np.int64 if n < 64 else object)
    words[:samples] = permute_words(sigma, words[:samples]) ^ z
    rows = [np.bitwise_count(words)] + [np.bitwise_count(words ^ r) for r in ref]
    cells, cell = _cells(np.array(rows, dtype=np.int64).T, n)
    c1 = np.bincount(cell[:samples], minlength=cells).astype(float)
    c2 = np.bincount(cell[samples:], minlength=cells).astype(float)
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


def certify_operator(family: str, n: int, trials: int, rng, mode: str | None = None) -> CertificationReport:
    """Certify one operator family, given by name, over random trials.

    Exact mode compares supports for both invariance conditions on
    random (inputs, z, sigma); it applies for n <= 16.  Statistical mode
    compares sampler frequencies under random automorphisms and applies at
    any n; failures there are statistical evidence, not proof.
    """
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
