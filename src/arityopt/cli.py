"""Command line interface.

Subcommands: ``run`` (seeded experiment batches), ``verify-unbiased``
(operator certification incl. a negative control), ``check-bound``
(concentration inequality margin), ``fit`` (power-law coefficient with
optional assertion thresholds), ``report`` (re-derive summary and JSON
from an existing runs CSV).

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 a
requested check failed (fit assertion, bound violation, or certification
failure).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algorithms import ALGORITHMS
from .bounds import check_proposition1
from .consistency import ENUMERATION_DIM_LIMIT
from .harness import (
    FIT_MODELS,
    ConfigError,
    ExperimentConfig,
    emit_report,
    fit_curve,
    output_stem,
    read_runs_csv,
    run_experiment,
    seed_trial,
    summarize,
    summary_csv_text,
    write_json,
    write_summaries,
)
from .problems import INSTANCE_CLASSES
from .unbiasedness import (
    NEGATIVE_CONTROL_NAME,
    SHIPPED_OPERATOR_FAMILIES,
    certify_operator,
)

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_CONFIG", "EXIT_RUNTIME", "EXIT_CHECK_FAILED"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # runtime failures, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="arityopt", description="Query-complexity experiments for unbiased variation operators.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run seeded experiment batches")
    run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run.add_argument("--class", dest="class_name", required=True, choices=INSTANCE_CLASSES)
    run.add_argument("--n", dest="n_values", action="append", type=int, required=True,
                     metavar="N", help="problem size; repeat for several sizes")
    run.add_argument("--k", type=int, default=None,
                     help=f"arity for kary_onemax (3..{ENUMERATION_DIM_LIMIT});"
                          " rejected for other algorithms")
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed + i")
    run.add_argument("--budget", type=int, default=None,
                     help="query budget per run (default 100 * n * ceil(log2(n+1)))")
    run.add_argument("--out", default=None,
                     help="runs CSV path; also writes <stem>.summary.csv and <stem>.report.json")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--debug-instances", action="store_true",
                     help="with --out, also write <stem>.instances.json with hidden instance data")

    vu = sub.add_parser("verify-unbiased", help="certify operator families, with a negative control")
    vu.add_argument("--n", type=int, default=8)
    vu.add_argument("--trials", type=int, default=200)
    vu.add_argument("--seed", type=int, default=0)

    cb = sub.add_parser("check-bound", help="evaluate the concentration inequality margin")
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--grid", default=None, help="comma-separated even d values in 2..n")

    fit = sub.add_parser("fit", help="fit mean queries to a scaling model")
    fit.add_argument("--input", required=True, help="runs CSV produced by the run subcommand")
    fit.add_argument("--model", required=True, choices=FIT_MODELS)
    fit.add_argument("--min-a", type=float, default=None)
    fit.add_argument("--max-a", type=float, default=None)
    fit.add_argument("--max-residual", type=float, default=None)

    rep = sub.add_parser("report", help="summarize an existing runs CSV")
    rep.add_argument("--input", required=True)
    rep.add_argument("--out", required=True,
                     help="summary CSV path; also writes <stem or .csv stem>.report.json")
    return p


def _g9(v: float) -> str:
    return format(float(v), ".9g")


def _instances_payload(records) -> list[dict]:
    out = []
    for i, r in enumerate(records):
        inst, _ = seed_trial(r.class_name, r.n, r.seed)
        entry = {"run_id": i, "class": r.class_name, "n": r.n, "seed": r.seed,
                 "z": inst.z.to_string()}
        if r.class_name == "leadingones":
            entry["sigma"] = [m + 1 for m in inst.sigma.mapping]
        elif r.class_name == "monotone":
            entry["weights"] = list(inst.weights)
        out.append(entry)
    return out


def _print_written(paths: dict) -> int:
    for path in paths.values():
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.debug_instances and not args.out:
        raise ConfigError("--debug-instances requires --out")
    cfg = ExperimentConfig(
        algorithm=args.algorithm,
        class_name=args.class_name,
        n_values=tuple(args.n_values),
        trials=args.trials,
        base_seed=args.seed,
        k=args.k,
        budget=args.budget,
        workers=args.workers,
    )
    records = run_experiment(cfg)
    summaries = summarize(records)
    if not args.out:
        print(summary_csv_text(summaries), end="")
        return EXIT_OK
    paths = emit_report(records, summaries, args.out)
    if args.debug_instances:
        paths["instances"] = write_json(
            _instances_payload(records), output_stem(args.out) + ".instances.json"
        )
    return _print_written(paths)


def _cmd_verify_unbiased(args) -> int:
    for flag, value in (("--n", args.n), ("--trials", args.trials)):
        if value < 1:
            raise ConfigError(f"{flag} must be positive, got {value}")
    if args.n > ENUMERATION_DIM_LIMIT:
        raise ConfigError(f"--n must be at most the enumeration limit {ENUMERATION_DIM_LIMIT}, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    names = SHIPPED_OPERATOR_FAMILIES + (NEGATIVE_CONTROL_NAME,)
    reports = [certify_operator(name, args.n, args.trials, rng) for name in names]
    width = max(len(n) for n in names)
    print(f"{'operator':<{width}}  {'mode':<11}  trials  worst_deviation  verdict")
    ok = True
    for rep in reports:
        control = rep.operator == NEGATIVE_CONTROL_NAME
        if control:
            verdict = "fail (negative control)" if not rep.passed else "PASS (control not caught)"
            ok = ok and not rep.passed
        else:
            verdict = "pass" if rep.passed else "FAIL"
            ok = ok and rep.passed
        print(f"{rep.operator:<{width}}  {rep.mode:<11}  {rep.trials:>6}  "
              f"{_g9(rep.worst_deviation):>15}  {verdict}")
    print(f"verify-unbiased: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_check_bound(args) -> int:
    grid = None
    if args.grid is not None:
        try:
            grid = tuple(int(s) for s in args.grid.split(","))
        except ValueError as e:
            raise ConfigError(
                f"--grid must be comma-separated integers, got {args.grid!r}"
            ) from e
    try:
        res = check_proposition1(args.n, grid)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    worst = max(range(len(res.d_grid)), key=lambda i: res.lhs_log2[i])
    print(f"n={res.n} t={res.t} grid_points={len(res.d_grid)}")
    print(f"rhs_log2={_g9(res.rhs_log2)}")
    print(f"min_margin_log2={_g9(res.margin)} at d={res.d_grid[worst]}")
    print(f"bound: {'holds' if res.passed else 'VIOLATED'}")
    return EXIT_OK if res.passed else EXIT_CHECK_FAILED


def _cmd_fit(args) -> int:
    records = read_runs_csv(args.input)
    try:
        a, residual = fit_curve(records, args.model)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"model={args.model} a={_g9(a)} max_relative_residual={_g9(residual)}")
    failures = []
    if args.min_a is not None and a < args.min_a:
        failures.append(f"a={_g9(a)} < --min-a {_g9(args.min_a)}")
    if args.max_a is not None and a > args.max_a:
        failures.append(f"a={_g9(a)} > --max-a {_g9(args.max_a)}")
    if args.max_residual is not None and residual > args.max_residual:
        failures.append(
            f"residual={_g9(residual)} > --max-residual {_g9(args.max_residual)}"
        )
    for f in failures:
        print(f"assertion failed: {f}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _cmd_report(args) -> int:
    summaries = summarize(read_runs_csv(args.input))
    return _print_written(
        write_summaries(summaries, args.out, output_stem(args.out) + ".report.json")
    )


_COMMANDS = {
    "run": _cmd_run,
    "verify-unbiased": _cmd_verify_unbiased,
    "check-bound": _cmd_check_bound,
    "fit": _cmd_fit,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"arityopt: configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("arityopt: interrupted", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:
        print(f"arityopt: error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
