"""Arity-enforcing run engine and the search policies built on it.

The engine realizes the black-box access model: a policy chooses variation
operators and parent points, the engine samples the operator, pays one oracle
query for every application (deterministic operators included), and returns
only the new point's handle and fitness.  Raw bitstrings stay inside the
engine, so a policy structurally cannot compute from anything but fitness
values and handles.  Any operator whose arity exceeds the configured maximum
rejects the run.  A handle is an opaque :class:`PointHandle` that holds its
point's word and its engine, so a queried word lives only as long as some
policy holds its handle, and an engine accepts only its own handles.

A run's cost is its number of queries up to and including the first one
that reaches an optimum.  The engine enforces that in one place: it raises
:class:`OptimumReached` right after recording such a query, on OneMax and
LeadingOnes, where the optimal value is n.  Monotone instances have no
target, and there a run ends when binary pair descent has kept n flips.

Policies implemented on top: a binary-operator OneMax optimizer (also sound
on any monotone agreement function), an unrestricted-arity sampling optimizer
for small n, a k-ary block optimizer with its subset subroutine, a binary
LeadingOnes optimizer, and a unary random-local-search baseline.  The
registry ``ALGORITHMS`` holds one :class:`Algorithm` record for each, which
the runners, the harness and the CLI read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .bounds import round_count
from .consistency import ENUMERATION_DIM_LIMIT
from .operators import (
    COMPLEMENT,
    FLIP_ONE_UNIFORM,
    FLIP_ONE_WHERE_DIFFERENT,
    RANDOM_WHERE_DIFFERENT,
    SWITCH_IF_DISTANCE_ONE,
    UNIFORM_SAMPLE,
    UPDATE,
    OperatorId,
    choose_consistent_id,
    choose_consistent_sub_id,
    flip_k_id,
    sample_operator,
)
from .problems import BudgetExhausted, Oracle

__all__ = [
    "ModelViolation",
    "OptimumReached",
    "PolicyFailure",
    "PointHandle",
    "EngineState",
    "PolicyView",
    "RunRecord",
    "Algorithm",
    "ALGORITHMS",
    "default_budget",
    "subset_round_count",
    "run_binary_onemax",
    "run_star_ary_onemax",
    "run_kary_onemax",
    "run_binary_leadingones",
    "run_rls_baseline",
]


class ModelViolation(RuntimeError):
    """An operator's arity exceeded the configured maximum for the run."""


class OptimumReached(Exception):
    """Ends a run: the query just recorded reached the run's optimal value."""


class PolicyFailure(RuntimeError):
    """A policy ended without querying the optimum, which its invariant rules out."""


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one run: query count, success flag, and labels."""

    algorithm: str
    class_name: str
    n: int
    k: int
    seed: int
    queries: int
    success: bool
    hit_budget: bool


class PointHandle:
    """A queried point as a policy holds it: opaque, made only by
    :meth:`EngineState.apply`, and accepted only by the engine that made it."""

    __slots__ = ("_word", "_fit", "_engine")


class EngineState:
    """Applies a policy's operators and queries their outputs on one oracle.

    ``max_arity=None`` means unrestricted arity.  Each queried word lives in
    the :class:`PointHandle` that ``apply`` returns for it, and in the
    oracle's history only if the oracle keeps one.  Policies work against
    :class:`PolicyView` and never see the words.
    """

    def __init__(self, oracle: Oracle, max_arity: int | None):
        if max_arity is not None and max_arity < 1:
            raise ValueError(f"max_arity must be positive or None, got {max_arity}")
        self.max_arity = max_arity
        self.n = oracle.n
        # the optimal value: n on OneMax and LeadingOnes, none on monotone
        self._target = None if oracle.debug_instance.kind == "monotone" else oracle.n
        self._query = oracle._query_word

    def apply(self, op: OperatorId, parents, rng) -> tuple[PointHandle, float]:
        """Sample op on the referenced parents and query the result through
        the oracle; returns (handle, fitness), or raises OptimumReached once
        that query is counted if its fitness is the target.  Anything but
        this engine's own handles is rejected before the query."""
        if self.max_arity is not None and op.arity > self.max_arity:
            raise ModelViolation(
                f"{op.name} has arity {op.arity}, run allows at most {self.max_arity}"
            )
        words = []
        for h in parents:
            if type(h) is not PointHandle or h._engine is not self:
                raise ValueError(f"invalid point handle {h!r}")
            words.append(h._word)
        # the oracle checks the budget before it counts the query; given the
        # first parent, it may take the value from the parent's
        word = sample_operator(op, words, self.n, rng)
        fit = self._query(word, words[0], parents[0]._fit) if words else self._query(word)
        if fit == self._target:
            raise OptimumReached
        # PointHandle has no __init__: filling its slots here costs less than
        # a constructor call (timeit)
        h = PointHandle()
        h._word = word
        h._fit = fit
        h._engine = self
        return h, fit

    @property
    def view(self) -> "PolicyView":
        return PolicyView(self)


class PolicyView:
    """What a policy is allowed to see: apply and n.  Opaque handles and
    fitness values come back from ``apply``; the words stay inside the
    handles and the oracle."""

    __slots__ = ("apply", "n")

    def __init__(self, engine: EngineState):
        self.apply = engine.apply
        self.n = engine.n


def default_budget(n: int) -> int:
    """Default per-run query budget: 100 * n * ceil(log2(n + 1))."""
    return 100 * n * math.ceil(math.log2(n + 1))


def subset_round_count(ell: int) -> int:
    """Samples per subset round: min(ell - 2, round_count(ell)); 0 means
    the block is too small for sampling and takes the binary fallback."""
    if ell <= 2:
        return 0
    return min(ell - 2, round_count(ell))


# Policies.  A run ends in the engine, at its first optimal query, or on
# monotone when binary pair descent returns after n kept flips; no policy
# compares a fitness with the optimum.


def _anchor_pair(view: PolicyView, rng):
    """The opening of every pair policy: a uniform sample x, then its
    complement y.  Returns (hx, fx, hy, fy)."""
    hx, fx = view.apply(UNIFORM_SAMPLE, (), rng)
    hy, fy = view.apply(COMPLEMENT, (hx,), rng)
    return hx, fx, hy, fy


def _pair_descent(view: PolicyView, rng, flips, hx, fx, hy, fy):
    """Coin-flip pair descent: one bit where x and y differ is flipped in x
    or in y per query, and strict improvements are kept, until ``flips`` are
    kept.  Returns (hx, fx)."""
    kept = 0
    random_raw = rng.bit_generator.random_raw
    while kept < flips:
        if not random_raw() >> 63:  # top bit 0: Generator.random() < 0.5
            h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hx, hy), rng)
            if f2 > fx:
                hx, fx = h2, f2
                kept += 1
        else:
            h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hy, hx), rng)
            if f2 > fy:
                hy, fy = h2, f2
                kept += 1
    return hx, fx


def policy_binary_onemax(view: PolicyView, rng):
    """Pair descent from x against its complement until n kept flips, when
    the pair has collapsed to one point; needs no optimal value."""
    _pair_descent(view, rng, view.n, *_anchor_pair(view, rng))


def policy_star_ary_onemax(view: PolicyView, rng):
    """Each round: draw round_count(n) uniform samples, then one consistent
    hypothesis conditioned on their values."""
    t = round_count(view.n)
    while True:
        handles, values = [], []
        for _ in range(t):
            h, f = view.apply(UNIFORM_SAMPLE, (), rng)
            handles.append(h)
            values.append(int(f))
        view.apply(choose_consistent_id(values), tuple(handles), rng)


def _subset_policy(view: PolicyView, rng, ell, h_abar, f_abar, h_a, f_a):
    """Solve the ell-bit block on which the two anchors differ.

    Returns (handle, fitness) of a point carrying the fully correct block and
    the anchors' shared suffix.  For ell <= 2 the sampling round size
    degenerates, so the block is solved by pair descent on the anchor pair.
    """
    if ell <= 2:
        return _pair_descent(view, rng, ell, h_a, f_a, h_abar, f_abar)
    r = subset_round_count(ell)
    # Shared suffix contribution; block-level values are fitnesses minus this.
    f_sigma = (int(f_a) + int(f_abar) - ell) // 2
    target = ell + f_sigma
    while True:
        handles, values = [], []
        for _ in range(r):
            h2, f2 = view.apply(RANDOM_WHERE_DIFFERENT, (h_a, h_abar), rng)
            handles.append(h2)
            values.append(int(f2) - f_sigma)
        hw, fw = view.apply(
            choose_consistent_sub_id(values), tuple(handles) + (h_abar, h_a), rng
        )
        if fw == target:
            return hw, fw


def policy_kary_onemax(view: PolicyView, rng, k: int):
    """Block decomposition: correct ceil(n/k) blocks of up to k positions,
    each solved by subset sampling between the pair and merged back in."""
    n = view.n
    hx, _, hy, fy = _anchor_pair(view, rng)
    for start in range(0, n, k):
        ell = min(k, n - start)
        hz, fz = view.apply(flip_k_id(ell), (hx, hy), rng)
        hy, fy = _subset_policy(view, rng, ell, hy, fy, hz, fz)
        hx, _ = view.apply(UPDATE, (hx, hy, hz), rng)
    raise PolicyFailure("block decomposition ended without querying the optimum")


def policy_binary_leadingones(view: PolicyView, rng):
    """Critical-pair binary search: the pair (x, y) agrees exactly on y's
    correct prefix; each outer round lifts y past its first wrong position
    via halving steps, then reorients the pair."""
    hx, fx, hy, fy = _anchor_pair(view, rng)
    if fy > fx:
        (hx, fx), (hy, fy) = (hy, fy), (hx, fx)
    while fx != fy:
        hp, fp = hx, fx
        while fy != fp:
            h2, f2 = view.apply(RANDOM_WHERE_DIFFERENT, (hy, hp), rng)
            if f2 > fy:
                hp, fp = h2, f2
            hy, fy = view.apply(SWITCH_IF_DISTANCE_ONE, (hy, hp), rng)
        if fy > fx:
            (hx, fx), (hy, fy) = (hy, fy), (hx, fx)
    raise PolicyFailure("critical pair closed below the optimum")


def policy_rls(view: PolicyView, rng):
    """Random local search baseline: flip one uniform bit, keep ties."""
    hx, fx = view.apply(UNIFORM_SAMPLE, (), rng)
    while True:
        h2, f2 = view.apply(FLIP_ONE_UNIFORM, (hx,), rng)
        if f2 >= fx:
            hx, fx = h2, f2


# The algorithm registry, and the runners: each checks its run against the
# algorithm's record, runs the policy under the record's arity bound and
# produces a RunRecord.


@dataclass(frozen=True)
class Algorithm:
    """One algorithm as the engine, the harness and the CLI see it.

    ``k`` is the value of the runs CSV's k column, and the arity bound
    follows from it: 2 is binary, 1 unary, 0 unrestricted, and None means
    the run's own k, with 3 <= k <= ENUMERATION_DIM_LIMIT.  ``policy`` takes
    (view, rng, k).  ``runner`` names the public run function,
    ``theory_model`` the ``bounds.theory_curve`` of its summary rows, and
    ``max_n`` caps n for a policy that enumerates all of {0,1}^n.
    """

    name: str
    runner: str
    policy: Callable
    classes: tuple[str, ...]
    k: int | None
    theory_model: str | None
    max_n: int | None = None

    def check(self, class_name: str, n: int, k: int | None) -> None:
        """Raise ValueError unless a run on (class_name, n, k) is valid."""
        if class_name not in self.classes:
            raise ValueError(
                f"{self.name} does not run on class {class_name};"
                f" valid classes: {self.classes}"
            )
        if self.max_n is not None and n > self.max_n:
            raise ValueError(
                f"{self.name} enumerates hypotheses, n must be <= {self.max_n}, got {n}"
            )
        if self.k is None:
            if k is None or not 3 <= k <= ENUMERATION_DIM_LIMIT:
                raise ValueError(
                    f"{self.name} requires 3 <= k <= {ENUMERATION_DIM_LIMIT}, got k={k}"
                )
        elif k is not None:
            raise ValueError(f"{self.name} fixes k = {self.k}; only kary_onemax takes k")


ALGORITHMS = {
    spec.name: spec
    for spec in (
        Algorithm(
            "binary_onemax", "run_binary_onemax",
            lambda v, rng, k: policy_binary_onemax(v, rng),
            ("onemax", "monotone"), 2, "linear_2n",
        ),
        Algorithm(
            "star_ary_onemax", "run_star_ary_onemax",
            lambda v, rng, k: policy_star_ary_onemax(v, rng),
            ("onemax",), 0, "star_ary", ENUMERATION_DIM_LIMIT,
        ),
        Algorithm(
            "kary_onemax", "run_kary_onemax", policy_kary_onemax,
            ("onemax",), None, "n_over_logk",
        ),
        Algorithm(
            "binary_leadingones", "run_binary_leadingones",
            lambda v, rng, k: policy_binary_leadingones(v, rng),
            ("leadingones",), 2, "nlogn",
        ),
        Algorithm(
            "rls", "run_rls_baseline",
            lambda v, rng, k: policy_rls(v, rng),
            ("onemax", "leadingones"), 1, None,
        ),
    )
}


def _run(name: str, n: int, k: int | None, oracle: Oracle, rng, seed: int) -> RunRecord:
    spec = ALGORITHMS[name]
    kind = oracle.debug_instance.kind
    spec.check(kind, n, k)
    if oracle.n != n:
        raise ValueError(f"oracle wraps an instance of size {oracle.n}, not {n}")
    if spec.k is not None:
        k = spec.k
    engine = EngineState(oracle, k or None)
    success, hit = True, False
    try:
        spec.policy(engine.view, rng, k)
    except OptimumReached:
        pass
    except BudgetExhausted:
        success, hit = False, True
    return RunRecord(name, kind, n, k, seed, oracle.query_count, success, hit)


def run_binary_onemax(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Binary pair descent on a OneMax or monotone oracle."""
    return _run("binary_onemax", n, None, oracle, rng, seed)


def run_star_ary_onemax(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Unrestricted-arity sampling on a OneMax oracle; n at most ENUMERATION_DIM_LIMIT."""
    return _run("star_ary_onemax", n, None, oracle, rng, seed)


def run_kary_onemax(n: int, k: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Block decomposition with k-ary operators on a OneMax oracle."""
    return _run("kary_onemax", n, k, oracle, rng, seed)


def run_binary_leadingones(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Critical-pair binary search on a LeadingOnes oracle."""
    return _run("binary_leadingones", n, None, oracle, rng, seed)


def run_rls_baseline(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Unary random local search on a OneMax or LeadingOnes oracle."""
    return _run("rls", n, None, oracle, rng, seed)
