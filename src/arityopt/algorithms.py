"""Arity-enforcing run engine and the search policies built on it.

The engine realizes the black-box access model: a policy chooses variation
operators and parent points, the engine samples the operator, pays one oracle
query for every application (deterministic operators included), and returns
only the new point's handle and fitness.  Raw bitstrings stay inside the
engine, so a policy structurally cannot compute from anything but fitness
values and handles.  Any operator whose arity exceeds the configured maximum
rejects the run.  Handles index the oracle's own query history, which is the
only store of queried points; a per-application audit list is kept only when
the engine is built with ``audit=True``.

Policies implemented on top: a binary-operator OneMax optimizer (also sound
on any monotone agreement function), an unrestricted-arity sampling optimizer
for small n, a k-ary block optimizer with its subset subroutine, a binary
LeadingOnes optimizer, and a unary random-local-search baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitcore import BitString
from .bounds import round_count
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
from .problems import BudgetExhausted, Oracle, oracle_query

__all__ = [
    "ModelViolation",
    "PolicyFailure",
    "PointHandle",
    "OperatorCall",
    "EngineState",
    "PolicyView",
    "CriticalPair",
    "RunRecord",
    "engine_apply",
    "default_budget",
    "subset_round_count",
    "optimize_subset",
    "run_binary_onemax",
    "run_star_ary_onemax",
    "run_kary_onemax",
    "run_binary_leadingones",
    "run_rls_baseline",
    "ALGORITHMS",
]

ALGORITHMS = (
    "binary_onemax",
    "star_ary_onemax",
    "kary_onemax",
    "binary_leadingones",
    "rls",
)


class ModelViolation(RuntimeError):
    """An operator's arity exceeded the configured maximum for the run."""


class PolicyFailure(RuntimeError):
    """A policy ended without querying the optimum, which its invariant rules out."""


class PointHandle(int):
    """Reference to a previously queried point, by position in query history.

    Policies receive and pass around handles; only the engine can resolve
    them to bitstrings.
    """

    __slots__ = ()

    @property
    def index(self) -> int:
        return int(self)


class OperatorCall(NamedTuple):
    """Audit record of one operator application."""

    op: OperatorId
    arity: int
    parents: tuple
    draw: object


class CriticalPair(NamedTuple):
    """Pair of handles with f(x) >= f(y) and exactly f(y) agreeing positions."""

    x_handle: PointHandle
    y_handle: PointHandle
    value: int


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


class EngineState:
    """Owns the oracle and, optionally, the audit trail.

    ``max_arity=None`` means unrestricted arity.  Queried words and their
    fitnesses live in the oracle's history; a handle is a position in it.
    The words are reachable only through :meth:`debug_point`, which policies
    never receive; they work against :class:`PolicyView`.  With
    ``audit=True`` every application also appends an :class:`OperatorCall`
    to ``audit``; otherwise ``audit`` is None.
    """

    def __init__(self, oracle: Oracle, max_arity: int | None, *, audit: bool = False):
        if max_arity is not None and max_arity < 1:
            raise ValueError(f"max_arity must be positive or None, got {max_arity}")
        self.oracle = oracle
        self.max_arity = max_arity
        self.n = oracle.n
        self._query = oracle._query_word
        self._points = oracle._words
        self.fitnesses = oracle._values
        self.audit: list[OperatorCall] | None = [] if audit else None

    @property
    def query_count(self) -> int:
        return self.oracle.query_count

    def apply(self, op: OperatorId, parents, rng) -> tuple[PointHandle, float]:
        """Sample op on the referenced parents and query the result through
        the oracle, which records it; returns (handle, fitness)."""
        if self.max_arity is not None and op.arity > self.max_arity:
            raise ModelViolation(
                f"{op.name} has arity {op.arity}, run allows at most {self.max_arity}"
            )
        pts = self._points
        m = len(pts)
        words = []
        for h in parents:
            if h < 0 or h >= m:
                raise ValueError(f"invalid point handle {h}")
            words.append(pts[h])
        word, draw = sample_operator(op, words, self.n, rng)
        # the oracle checks the budget before it appends word and fitness
        fit = self._query(word)
        if self.audit is not None:
            self.audit.append(OperatorCall(op, op.arity, tuple(parents), draw))
        return PointHandle(m), fit

    def debug_point(self, handle) -> BitString:
        """Resolve a handle to its bitstring; for tests and verification only."""
        return BitString(self.n, self._points[handle])

    @property
    def view(self) -> "PolicyView":
        return PolicyView(self)


class PolicyView:
    """What a policy is allowed to see: apply, fitness values, n, max arity."""

    __slots__ = ("apply", "fitnesses", "n", "max_arity")

    def __init__(self, engine: EngineState):
        self.apply = engine.apply
        self.fitnesses = engine.fitnesses
        self.n = engine.n
        self.max_arity = engine.max_arity


def engine_apply(e: EngineState, op: OperatorId, parents, rng):
    """Apply one operator through the engine; returns (handle, fitness)."""
    return e.apply(op, parents, rng)


def default_budget(n: int) -> int:
    """Default per-run query budget: 100 * n * ceil(log2(n + 1))."""
    return 100 * n * math.ceil(math.log2(n + 1))


def subset_round_count(ell: int) -> int:
    """Samples per subset round: min(ell - 2, round_count(ell)); 0 means
    the block is too small for sampling and takes the binary fallback."""
    if ell <= 2:
        return 0
    return min(ell - 2, round_count(ell))


# Policies.  Each returns the handle of the final (optimal) point; every
# query's fitness is checked against the known optimum so a run stops the
# moment the optimum has been queried, which is what the query-count cost
# model charges for.


def policy_binary_onemax(view: PolicyView, rng, *, acceptance_stop: bool = False):
    """Coin-flip pair descent: x against its complement, one differing bit
    flipped per query, strict improvements kept.

    With ``acceptance_stop`` the loop ends after n accepted flips (the pair
    has collapsed to one point), which requires no knowledge of the optimal
    value; otherwise it ends when a query reaches fitness n.
    """
    n = view.n
    hx, fx = view.apply(UNIFORM_SAMPLE, (), rng)
    if not acceptance_stop and fx == n:
        return hx
    hy, fy = view.apply(COMPLEMENT, (hx,), rng)
    if not acceptance_stop and fy == n:
        return hy
    accepted = 0
    while True:
        if acceptance_stop:
            if accepted == n:
                return hx
        elif fx == n:
            return hx
        elif fy == n:
            return hy
        if rng.random() < 0.5:
            h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hx, hy), rng)
            if f2 > fx:
                hx, fx = h2, f2
                accepted += 1
        else:
            h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hy, hx), rng)
            if f2 > fy:
                hy, fy = h2, f2
                accepted += 1


def policy_star_ary_onemax(view: PolicyView, rng):
    """Each round: draw round_count(n) uniform samples, then one consistent
    hypothesis conditioned on their values; stop when a query hits n."""
    n = view.n
    t = round_count(n)
    while True:
        handles = []
        values = []
        for _ in range(t):
            h, f = view.apply(UNIFORM_SAMPLE, (), rng)
            if f == n:
                return h
            handles.append(h)
            values.append(int(f))
        hw, fw = view.apply(choose_consistent_id(values), tuple(handles), rng)
        if fw == n:
            return hw


def _subset_policy(view: PolicyView, rng, ell, h_abar, f_abar, h_a, f_a):
    """Solve the ell-bit block on which the two anchors differ.

    Returns (handle, fitness) of a point carrying the fully correct block and
    the anchors' shared suffix; fitness n means the whole optimum was hit.
    For ell <= 2 the sampling round size degenerates, so the block is solved
    by the binary pair-descent restricted to the anchor pair.
    """
    n = view.n
    if ell <= 2:
        ha, fa = h_a, f_a
        hb, fb = h_abar, f_abar
        accepted = 0
        while accepted < ell:
            if rng.random() < 0.5:
                h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (ha, hb), rng)
                if f2 == n:
                    return h2, f2
                if f2 > fa:
                    ha, fa = h2, f2
                    accepted += 1
            else:
                h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hb, ha), rng)
                if f2 == n:
                    return h2, f2
                if f2 > fb:
                    hb, fb = h2, f2
                    accepted += 1
        return ha, fa
    r = subset_round_count(ell)
    # Shared suffix contribution; block-level values are fitnesses minus this.
    f_sigma = (int(f_a) + int(f_abar) - ell) // 2
    target = ell + f_sigma
    while True:
        handles = []
        values = []
        for _ in range(r):
            h2, f2 = view.apply(RANDOM_WHERE_DIFFERENT, (h_a, h_abar), rng)
            if f2 == n:
                return h2, f2
            handles.append(h2)
            values.append(int(f2) - f_sigma)
        hw, fw = view.apply(
            choose_consistent_sub_id(values), tuple(handles) + (h_abar, h_a), rng
        )
        if fw == n or fw == target:
            return hw, fw


def policy_kary_onemax(view: PolicyView, rng, k: int):
    """Block decomposition: correct ceil(n/k) blocks of up to k positions,
    each solved by subset sampling between the pair and merged back in."""
    n = view.n
    hx, fx = view.apply(UNIFORM_SAMPLE, (), rng)
    if fx == n:
        return hx
    hy, fy = view.apply(COMPLEMENT, (hx,), rng)
    if fy == n:
        return hy
    tau = math.ceil(n / k)
    for t in range(1, tau + 1):
        ell = min(k, n - k * (t - 1))
        hz, fz = view.apply(flip_k_id(ell), (hx, hy), rng)
        if fz == n:
            return hz
        hw, fw = _subset_policy(view, rng, ell, hy, fy, hz, fz)
        if fw == n:
            return hw
        hm, fm = view.apply(UPDATE, (hx, hw, hz), rng)
        if fm == n:
            return hm
        hx, fx = hm, fm
        hy, fy = hw, fw
    raise PolicyFailure("block decomposition ended without querying the optimum")


def policy_binary_leadingones(view: PolicyView, rng):
    """Critical-pair binary search: the pair (x, y) agrees exactly on y's
    correct prefix; each outer round lifts y past its first wrong position
    via halving steps, then reorients the pair."""
    n = view.n
    hx, fx = view.apply(UNIFORM_SAMPLE, (), rng)
    if fx == n:
        return hx
    hy, fy = view.apply(COMPLEMENT, (hx,), rng)
    if fy == n:
        return hy
    if fy > fx:
        (hx, fx), (hy, fy) = (hy, fy), (hx, fx)
    while fx != fy:
        hp, fp = hx, fx
        while fy != fp:
            h2, f2 = view.apply(RANDOM_WHERE_DIFFERENT, (hy, hp), rng)
            if f2 == n:
                return h2
            if f2 > fy:
                hp, fp = h2, f2
            hy, fy = view.apply(SWITCH_IF_DISTANCE_ONE, (hy, hp), rng)
        if fy > fx:
            (hx, fx), (hy, fy) = (hy, fy), (hx, fx)
    if fx != n:
        raise PolicyFailure("critical pair closed below the optimum")
    return hx


def policy_rls(view: PolicyView, rng):
    """Random local search baseline: flip one uniform bit, keep ties."""
    n = view.n
    hx, fx = view.apply(UNIFORM_SAMPLE, (), rng)
    while fx != n:
        h2, f2 = view.apply(FLIP_ONE_UNIFORM, (hx,), rng)
        if f2 >= fx:
            hx, fx = h2, f2
    return hx


def optimize_subset(n: int, ell: int, anchors, oracle: Oracle, rng) -> BitString:
    """Standalone subset solver over an anchor pair differing on ell positions.

    Queries both anchors, then runs the same procedure as the k-ary policy's
    subset phase without arity bookkeeping.  Returns the point carrying the
    corrected block embedded in the anchors' shared suffix.
    """
    a_bar, a = anchors
    if a_bar.n != n or a.n != n:
        raise ValueError("anchor length does not match n")
    if (a_bar.word ^ a.word).bit_count() != ell:
        raise ValueError("anchors must differ on exactly ell positions")

    class _Direct:
        # Minimal stand-in for PolicyView over raw bitstrings.
        __slots__ = ("n",)

        def __init__(self):
            self.n = n

        def apply(self, op, parents, rng):
            words = [p.word for p in parents]
            word, _ = sample_operator(op, words, n, rng)
            fit = oracle._query_word(word)
            return BitString(n, word), fit

    f_abar = oracle_query(oracle, a_bar)
    f_a = oracle_query(oracle, a)
    h, _ = _subset_policy(_Direct(), rng, ell, a_bar, f_abar, a, f_a)
    return h


# Runners: wrap a policy with budget handling and produce a RunRecord.


def _run(algorithm, class_name, n, k, oracle, policy, seed):
    if oracle.n != n:
        raise ValueError(f"oracle wraps an instance of size {oracle.n}, not {n}")
    engine = EngineState(oracle, _MAX_ARITY[algorithm] if algorithm != "kary_onemax" else k)
    try:
        policy(engine.view)
        success, hit = True, False
    except BudgetExhausted:
        success, hit = False, True
    return RunRecord(algorithm, class_name, n, k, seed, oracle.query_count, success, hit)


_MAX_ARITY = {
    "binary_onemax": 2,
    "star_ary_onemax": None,
    "binary_leadingones": 2,
    "rls": 1,
}


def run_binary_onemax(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Binary pair descent on a OneMax or monotone oracle."""
    kind = oracle.debug_instance.kind
    if kind not in ("onemax", "monotone"):
        raise ValueError(f"binary_onemax needs a onemax or monotone oracle, got {kind}")
    acceptance_stop = kind == "monotone"
    return _run(
        "binary_onemax",
        kind,
        n,
        2,
        oracle,
        lambda v: policy_binary_onemax(v, rng, acceptance_stop=acceptance_stop),
        seed,
    )


def run_star_ary_onemax(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Unrestricted-arity sampling on a OneMax oracle; n at most 24."""
    if oracle.debug_instance.kind != "onemax":
        raise ValueError("star_ary_onemax needs a onemax oracle")
    if n > 24:
        raise ValueError(f"star_ary_onemax enumerates hypotheses, n must be <= 24, got {n}")
    return _run(
        "star_ary_onemax", "onemax", n, 0, oracle,
        lambda v: policy_star_ary_onemax(v, rng), seed,
    )


def run_kary_onemax(n: int, k: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Block decomposition with k-ary operators on a OneMax oracle."""
    if oracle.debug_instance.kind != "onemax":
        raise ValueError("kary_onemax needs a onemax oracle")
    if not 3 <= k <= 24:
        raise ValueError(f"kary_onemax requires 3 <= k <= 24, got k={k}")
    return _run(
        "kary_onemax", "onemax", n, k, oracle,
        lambda v: policy_kary_onemax(v, rng, k), seed,
    )


def run_binary_leadingones(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Critical-pair binary search on a LeadingOnes oracle."""
    if oracle.debug_instance.kind != "leadingones":
        raise ValueError("binary_leadingones needs a leadingones oracle")
    return _run(
        "binary_leadingones", "leadingones", n, 2, oracle,
        lambda v: policy_binary_leadingones(v, rng), seed,
    )


def run_rls_baseline(n: int, oracle: Oracle, rng, *, seed: int = 0) -> RunRecord:
    """Unary random local search on a OneMax or LeadingOnes oracle."""
    kind = oracle.debug_instance.kind
    if kind not in ("onemax", "leadingones"):
        raise ValueError(f"rls needs a onemax or leadingones oracle, got {kind}")
    return _run("rls", kind, n, 1, oracle, lambda v: policy_rls(v, rng), seed)
