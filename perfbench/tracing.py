"""Per-layer tracing from outside the program.

The traced run replaces the module-level names each layer is called through
with timing wrappers.  Each boundary aggregates its call count, total time and
the time of the boundaries nested inside it, so self time is total minus
children.  Counts are aggregated rather than kept as one span per call: the
``leadingones`` workload makes about half a million queries per round.
"""

from __future__ import annotations

import time

from arityopt import (
    algorithms,
    cli,
    consistency,
    harness,
    operators,
    problems,
    unbiasedness,
)

FAMILIES = unbiasedness.SHIPPED_OPERATOR_FAMILIES
CERT_FAMILIES = FAMILIES + (unbiasedness.NEGATIVE_CONTROL_NAME,)
INSTANCE_KINDS = ("onemax", "leadingones", "monotone")
_RUNNERS = (
    "run_binary_onemax",
    "run_star_ary_onemax",
    "run_kary_onemax",
    "run_binary_leadingones",
    "run_rls_baseline",
)


class Tracer:
    """Installs timing wrappers; :meth:`restore` puts the originals back."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, children_s]
        self.words_scanned = 0
        self.survivors = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, fn, key, on_result=None):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                k = key if isinstance(key, str) else key(args)
                s = stats.get(k)
                if s is None:
                    s = stats[k] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += children
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owners, attr, key, on_result=None):
        """Wrap ``attr`` on each owner; owners sharing one function share one wrapper."""
        for owner in owners:
            original = owner.__dict__[attr]
            wrapper = self._wrappers.get(id(original))
            if wrapper is None:
                wrapper = self._wrappers[id(original)] = self._wrap(original, key, on_result)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    def _count_words(self, args, result):
        self.words_scanned += 1 << args[0]
        self.survivors += int(result.size)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        self.patch([operators, consistency], "differing_positions", "bitcore.differing_positions")
        self.patch([unbiasedness], "apply_permutation", "bitcore.apply_permutation")
        self.patch([algorithms, unbiasedness], "sample_operator", lambda a: "operators." + a[0].name)
        self.patch([unbiasedness], "exact_pmf", "operators.exact_pmf")
        for cls in (problems.OneMaxInstance, problems.LeadingOnesInstance, problems.MonotoneInstance):
            self.patch([cls], "evaluate_word", "problems.evaluate." + cls.kind)
        self.patch([harness], "random_instance", "problems.random_instance")
        self.patch([consistency, operators], "consistent_words", "consistency.consistent_words",
                   self._count_words)
        self.patch([algorithms.EngineState], "apply", "algorithms.apply")
        for name in _RUNNERS:
            self.patch([harness], name, "algorithms.policy")
        self.patch([harness], "run_experiment", "harness")
        self.patch([unbiasedness], "certify_operator",
                   lambda a: "unbiasedness.certify." + (a[0] if isinstance(a[0], str) else a[0].name))
        self.patch([cli], "check_proposition1", "bounds.check_proposition1")
        self.patch([cli], "main", "cli")

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, every name present (0 where a layer did no work)."""
        def get(key):
            return self.stats.get(key, [0, 0.0, 0.0])

        out: dict[str, tuple[float, str]] = {}

        def calls_us(name):
            calls, total, _ = get(name)
            out[name + ".calls"] = (calls / rounds, "count")
            out[name + ".us"] = (total / calls * 1e6 if calls else 0.0, "us")

        def self_s(key):
            _, total, children = get(key)
            return (total - children) / rounds

        calls_us("bitcore.differing_positions")
        calls_us("bitcore.apply_permutation")
        for family in FAMILIES:
            calls_us("operators." + family)
        calls_us("operators.exact_pmf")
        for kind in INSTANCE_KINDS:
            calls_us("problems.evaluate." + kind)
        calls_us("problems.random_instance")
        calls_us("consistency.consistent_words")
        out["consistency.words_scanned"] = (self.words_scanned / rounds, "count")
        out["consistency.survivor_ratio"] = (
            self.survivors / self.words_scanned if self.words_scanned else 0.0, "ratio")
        calls, total, children = get("algorithms.apply")
        out["algorithms.apply.calls"] = (calls / rounds, "count")
        out["algorithms.apply.self_us"] = ((total - children) / calls * 1e6 if calls else 0.0, "us")
        out["algorithms.policy.self_s"] = (self_s("algorithms.policy"), "s")
        out["algorithms.runs"] = (get("algorithms.policy")[0] / rounds, "count")
        out["harness.self_s"] = (self_s("harness"), "s")
        for family in CERT_FAMILIES:
            out[f"unbiasedness.certify.{family}.s"] = (
                get("unbiasedness.certify." + family)[1] / rounds, "s")
        out["bounds.check_proposition1.s"] = (get("bounds.check_proposition1")[1] / rounds, "s")
        out["cli.self_s"] = (self_s("cli"), "s")
        return out
