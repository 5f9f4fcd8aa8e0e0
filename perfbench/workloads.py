"""The benchmark's four workloads, built from a seed, and their property checks.

A workload is a fixed list of seeded operations (one "round").  The runner
repeats the round for the measured time; every repetition must give the same
outputs.  The three search workloads drive the public batch API
(``harness.run_experiment`` at ``workers=1``), one seeded trial per
operation; ``certify`` drives the certifier and the ``check-bound`` command.

A workload holds only plain data made from the seed; :meth:`ops` builds the
operations with the program's own types, so that an API change in the
program fails loudly.  Calls go through the program's module attributes
(``harness.run_experiment``, ``unbiasedness.certify_operator``,
``cli.main``) so that the traced run can swap in timing wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("pair_descent", "leadingones", "consistency", "certify")

# (algorithm, class, n_values, k, trials); full scale, then smoke scale.
_SEARCH = {
    "pair_descent": (
        [
            ("binary_onemax", "onemax", (200,), None, 20),
            ("binary_onemax", "onemax", (1024,), None, 4),
            ("binary_onemax", "onemax", (4096,), None, 2),
            ("binary_onemax", "onemax", (16384,), None, 1),
            ("binary_onemax", "monotone", (200,), None, 20),
            ("binary_onemax", "monotone", (1024,), None, 4),
            ("binary_onemax", "monotone", (4096,), None, 1),
        ],
        [
            ("binary_onemax", "onemax", (32,), None, 3),
            ("binary_onemax", "monotone", (32,), None, 3),
        ],
    ),
    "leadingones": (
        [
            ("binary_leadingones", "leadingones", (64, 128, 256), None, 20),
            ("rls", "leadingones", (64, 128, 256), None, 6),
        ],
        [
            ("binary_leadingones", "leadingones", (16, 32), None, 3),
            ("rls", "leadingones", (16, 32), None, 2),
        ],
    ),
    "consistency": (
        [
            ("star_ary_onemax", "onemax", (12, 16, 20), None, 60),
            ("kary_onemax", "onemax", (60,), 4, 40),
            ("kary_onemax", "onemax", (60,), 8, 40),
            ("kary_onemax", "onemax", (60,), 16, 40),
            ("kary_onemax", "onemax", (60,), 20, 40),
        ],
        [
            ("star_ary_onemax", "onemax", (8, 10), None, 3),
            ("kary_onemax", "onemax", (16,), 4, 3),
            ("kary_onemax", "onemax", (16,), 8, 3),
        ],
    ),
}

# The families the certify workload runs: the ten shipped at the benchmark's
# definition, then the negative control.  A package that ships another list
# is refused (see Certify.ops).
SHIPPED_FAMILIES = (
    "uniformSample", "complement", "flipOneWhereDifferent", "flipKWhereDifferent",
    "randomWhereDifferent", "update", "switchIfDistanceOne", "flipOneUniform",
    "chooseConsistent", "chooseConsistentSub",
)
NEGATIVE_CONTROL = "constantOnes"
CERT_FAMILIES = SHIPPED_FAMILIES + (NEGATIVE_CONTROL,)

# (n, trials, mode); full scale, then smoke scale.
_CERT = (
    [(8, 100, "exact"), (12, 10, "exact"), (16, 1, "statistical")],
    [(6, 5, "exact"), (8, 2, "exact"), (10, 1, "statistical")],
)
BOUND_N = 1 << 20

# The statistical certifier fails a correct operator with probability up to
# its alpha (1e-3) per report.  Over the hundreds of seeded runs a comparison
# makes, some seed would fail by chance, so its inputs come from this fixed
# seed instead of --seed.  Exact certification cannot false-alarm and takes
# its inputs from --seed.
STATISTICAL_SEED = 707

# Seconds one calibration kernel call took on the machine that defined the
# benchmark (median of ten runs over two workloads).  Reported times are the
# program's time over the kernel's, in these units, so they read as seconds
# on that machine at the speed it had then.
KERNEL_S_REF = 0.0042

# Seconds the set-up reference process (see run.py) took on the same
# machine, over the same runs.  ``setup_s`` is the program's set-up time over
# the reference's, in these units.
SETUP_REFERENCE_S_REF = 1.15


def _base_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index * 1_000


class _Workload:
    def run_round(self, pkg, ops):
        """Every operation of ``ops`` (built by :meth:`ops` for ``pkg``) once;
        returns the round's outcome."""
        return self.assemble([self.run_op(pkg, op) for op in ops])


@dataclass(frozen=True)
class Search(_Workload):
    name: str
    # ExperimentConfig fields, one dict per config.
    configs: tuple[dict, ...]

    @property
    def ops_per_round(self) -> int:
        return sum(c["trials"] * len(c["n_values"]) for c in self.configs)

    def ops(self, pkg) -> tuple:
        """One single-trial ``pkg.harness.ExperimentConfig`` per seeded trial,
        in the harness's run order."""
        make = pkg.harness.ExperimentConfig
        return tuple(
            make(**{**c, "n_values": (n,), "trials": 1, "base_seed": c["base_seed"] + i * c["trials"] + j})
            for c in self.configs for i, n in enumerate(c["n_values"]) for j in range(c["trials"])
        )

    @staticmethod
    def run_op(pkg, op):
        return pkg.harness.run_experiment(op)[0]

    def assemble(self, results):
        """Per-config tuples of records, as ``run_experiment`` would return them."""
        out, start = [], 0
        for c in self.configs:
            end = start + c["trials"] * len(c["n_values"])
            out.append(tuple(results[start:end]))
            start = end
        return tuple(out)

    @staticmethod
    def queries(outcome) -> int:
        return sum(r.queries for recs in outcome for r in recs)

    @staticmethod
    def failed(outcome) -> int:
        return sum(1 for recs in outcome for r in recs if not r.success)

    @staticmethod
    def queries_per_run(outcome) -> float:
        runs = sum(len(recs) for recs in outcome)
        return Search.queries(outcome) / runs

    def digest(self, pkg, outcome, out_dir) -> str:
        """sha256 over the runs CSVs ``pkg``'s harness writes for each config, in order."""
        os.makedirs(out_dir, exist_ok=True)
        h = hashlib.sha256()
        path = os.path.join(out_dir, f"runs-{os.getpid()}.csv")
        try:
            for recs in outcome:
                pkg.harness.write_runs_csv(list(recs), path)
                with open(path, "rb") as fh:
                    h.update(fh.read())
        finally:
            if os.path.exists(path):
                os.remove(path)
        return h.hexdigest()

    def check_properties(self, outcome) -> list[str]:
        """Method properties, with bands from the paper and the acceptance criteria."""
        from arityopt.bounds import round_count

        errors = []
        groups: dict = {}
        for recs in outcome:
            for r in recs:
                groups.setdefault((r.algorithm, r.class_name, r.n, r.k), []).append(r.queries)
        means = {key: sum(qs) / len(qs) for key, qs in groups.items()}
        if self.name == "pair_descent":
            for (algo, cls, n, k), qs in groups.items():
                ratio = means[(algo, cls, n, k)] / (2 * n)
                if not 0.9 <= ratio <= 1.1:
                    errors.append(f"binary_onemax {cls} n={n}: mean/2n={ratio:.4f} outside [0.9, 1.1]")
                if max(qs) > 6 * n:
                    errors.append(f"binary_onemax {cls} n={n}: max queries {max(qs)} > 6n")
        elif self.name == "leadingones":
            bl = {n: m for (a, _, n, _), m in means.items() if a == "binary_leadingones"}
            ratios = [bl[n] / (n * math.log2(n)) for n in sorted(bl)]
            spread = max(ratios) / min(ratios) - 1.0
            if spread > 0.25:
                errors.append(f"binary_leadingones mean/(n log2 n) spread {spread:.3f} > 0.25")
            gs = [n * math.log2(n) for n in sorted(bl)]
            ms = [bl[n] for n in sorted(bl)]
            a = sum(m * g for m, g in zip(ms, gs)) / sum(g * g for g in gs)
            residual = max(abs(m - a * g) / (a * g) for m, g in zip(ms, gs))
            if residual > 0.25:
                errors.append(f"binary_leadingones n log2 n fit residual {residual:.3f} > 0.25")
            rls = [q / n**2 for (a, _, n, _), qs in groups.items() if a == "rls" for q in qs]
            pooled = sum(rls) / len(rls)
            if not 0.375 <= pooled <= 0.625:
                errors.append(f"rls mean queries/n^2 = {pooled:.3f} outside 0.5 +- 25%")
        elif self.name == "consistency":
            kary = {}
            for (algo, _, n, k), m in means.items():
                if algo == "star_ary_onemax" and m > 3 * round_count(n):
                    errors.append(f"star_ary n={n}: mean {m:.2f} > 3t = {3 * round_count(n)}")
                if algo == "kary_onemax":
                    kary[k] = m
            # Criterion 4's ordering.  k = 20 is left out: at n = 60 its mean
            # sits about 2 queries below k = 16's, within one round's noise.
            ordered = [kary[k] for k in sorted(kary) if k <= 16]
            if any(a <= b for a, b in zip(ordered, ordered[1:])):
                errors.append(f"kary means do not decrease in k: {sorted(kary.items())}")
        return errors


@dataclass(frozen=True)
class Certify(_Workload):
    name: str
    tasks: tuple[tuple[str, int, int, str, tuple[int, ...]], ...]

    @property
    def ops_per_round(self) -> int:
        return len(self.tasks) + 1

    def ops(self, pkg):
        """Every certification task, then ``check-bound`` (``None``)."""
        u = pkg.unbiasedness
        shipped = tuple(u.SHIPPED_OPERATOR_FAMILIES) + (u.NEGATIVE_CONTROL_NAME,)
        if shipped != CERT_FAMILIES:
            raise ValueError(
                f"the program ships the families {shipped}; the certify workload runs {CERT_FAMILIES}"
            )
        return self.tasks + (None,)

    @staticmethod
    def run_op(pkg, op):
        if op is None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pkg.cli.main(["check-bound", "--n", str(BOUND_N)])
            return code, buf.getvalue()
        family, n, trials, mode, entropy = op
        rng = np.random.default_rng(entropy)
        rep = pkg.unbiasedness.certify_operator(family, n, trials, rng, mode=mode)
        return family, n, mode, rep.trials, rep.worst_deviation, rep.passed

    @staticmethod
    def assemble(results):
        """The certification reports, and the ``check-bound`` exit code and output."""
        return tuple(results[:-1]), results[-1]

    @staticmethod
    def queries(outcome) -> int:
        # The certifier makes no oracle queries; its unit of work is the trial.
        return sum(rep[3] for rep in outcome[0])

    @staticmethod
    def failed(outcome) -> int:
        return 0

    @staticmethod
    def queries_per_run(outcome) -> float:
        return Certify.queries(outcome) / len(outcome[0])

    def digest(self, pkg, outcome, out_dir) -> str:
        lines = [f"{f},{n},{m},{t},{d!r},{p}" for f, n, m, t, d, p in outcome[0]]
        lines.append(f"check-bound exit={outcome[1][0]}\n{outcome[1][1]}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def check_properties(self, outcome) -> list[str]:
        errors = []
        for family, n, mode, _, dev, passed in outcome[0]:
            if family == NEGATIVE_CONTROL:
                if passed:
                    errors.append(f"negative control not caught ({mode}, n={n})")
            elif not passed:
                errors.append(f"{family} failed {mode} certification at n={n}")
            elif mode == "exact" and dev > 1e-12:
                errors.append(f"{family} exact deviation {dev!r} > 1e-12 at n={n}")
        code, text = outcome[1]
        margins = [line for line in text.splitlines() if line.startswith("min_margin_log2=")]
        if code != 0 or not margins:
            errors.append(f"check-bound exited {code}")
        elif not float(margins[0].split("=")[1].split()[0]) > 0:
            errors.append(f"check-bound margin not positive: {margins[0]}")
        return errors


def build(name: str, seed: int, smoke: bool = False):
    """The workload ``name`` with every input derived from ``seed``."""
    if name == "certify":
        tasks = []
        for n, trials, mode in _CERT[smoke]:
            base = STATISTICAL_SEED if mode == "statistical" else seed
            for i, family in enumerate(CERT_FAMILIES):
                tasks.append((family, n, trials, mode, (base, n, i)))
        return Certify(name, tuple(tasks))
    if name not in _SEARCH:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    configs = tuple(
        dict(
            algorithm=algo, class_name=cls, n_values=ns, trials=trials,
            base_seed=_base_seed(seed, i), k=k, workers=1,
        )
        for i, (algo, cls, ns, k, trials) in enumerate(_SEARCH[name][smoke])
    )
    return Search(name, configs)
