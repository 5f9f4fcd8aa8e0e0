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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .bitcore import BitString, Permutation, apply_permutation, permute_words
from .consistency import ExactEnumerationUnavailable
from .operators import (
    EXACT_PMF_LIMIT,
    OperatorId,
    choose_consistent_id,
    choose_consistent_sub_id,
    exact_pmf,  # noqa: F401  (kept as a module attribute: per-layer tracing wraps it here)
    flip_k_id,
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

SHIPPED_OPERATOR_FAMILIES = (
    "uniformSample",
    "complement",
    "flipOneWhereDifferent",
    "flipKWhereDifferent",
    "randomWhereDifferent",
    "update",
    "switchIfDistanceOne",
    "flipOneUniform",
    "chooseConsistent",
    "chooseConsistentSub",
)


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
    return BitString(n, int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1))


def _trial_case(family: str, n: int, rng) -> tuple[object, list[BitString]]:
    """One random (operator instance, inputs) pair for the family."""
    if family == "uniformSample":
        return OperatorId("uniformSample", 0), []
    if family in ("complement", "flipOneUniform"):
        return OperatorId(family, 1), [_rand_bs(n, rng)]
    if family in ("flipOneWhereDifferent", "randomWhereDifferent", "switchIfDistanceOne"):
        return OperatorId(family, 2), [_rand_bs(n, rng), _rand_bs(n, rng)]
    if family == "update":
        return OperatorId(family, 3), [_rand_bs(n, rng) for _ in range(3)]
    if family == "flipKWhereDifferent":
        ell = int(rng.integers(0, n + 1))
        return flip_k_id(ell), [_rand_bs(n, rng), _rand_bs(n, rng)]
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
        block = rng.choice(n, size=ell, replace=False)
        mask = 0
        for p in block:
            mask |= 1 << int(p)
        a_hi = BitString(n, a_lo.word ^ mask)
        outside = a_lo.word & ~mask
        points = []
        for _ in range(r):
            blk = int(rng.integers(0, 1 << ell))
            w = outside
            for j, p in enumerate(sorted(int(q) for q in block)):
                if (blk >> j) & 1:
                    w |= 1 << p
            points.append(BitString(n, w))
        values = [int(rng.integers(0, ell + 1)) for _ in range(r)]
        return choose_consistent_sub_id(values), points + [a_lo, a_hi]
    if family == NEGATIVE_CONTROL_NAME:
        return NEGATIVE_CONTROL, [_rand_bs(n, rng)]
    raise ValueError(f"unknown operator family {family!r}")


def _profile_key(word: int, ref_words: list[int]) -> tuple:
    return (word.bit_count(),) + tuple((word ^ r).bit_count() for r in ref_words)


def _statistical_trial(family, n, rng, samples: int) -> tuple[float, float]:
    """Two-sample comparison of op(inputs) pushed through an automorphism
    against op on the transformed inputs.  Returns (p value, max freq diff)."""
    op, inputs = _trial_case(family, n, rng)
    sigma = Permutation.random(n, rng)
    z = _rand_bs(n, rng)
    t_inputs = [apply_permutation(sigma, x) ^ z for x in inputs]
    ref = [b.word for b in t_inputs]
    sample = (
        _control_sample
        if op.name == NEGATIVE_CONTROL_NAME
        else lambda ws, m, g: sample_operator(op, ws, m, g)[0]
    )
    in_words = [b.word for b in inputs]
    counts1: dict = {}
    counts2: dict = {}
    for _ in range(samples):
        w1 = sample(in_words, n, rng)
        m1 = (apply_permutation(sigma, BitString(n, w1)) ^ z).word
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
        return 1.0, dev
    _, p, _, _ = stats.chi2_contingency(np.vstack([a, b]))
    return float(p), dev


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
