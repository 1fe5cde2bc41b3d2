"""Command-line interface: bench, solve, grad-check, and gen subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .bench import (
    BenchConfig,
    Kinds,
    gen_scenes,
    grad_check,
    load_scenes,
    run_bench,
    save_scenes,
    write_records,
)
from .errors import FermatPathError, SceneFileError
from .geometry import MAX_INTERACTIONS
from .objective import embed
from .solver import Precision, SolveOptions, bfgs_solve, init_params

# `BenchConfig`, `SolveOptions` and `gen_scenes` take kinds and precision by value.
KINDS = [k.value for k in Kinds]
PRECISIONS = [p.value for p in Precision]

USAGE_ERROR = 1
SOLVE_ERROR = 2
CHECK_FAILED = 3
FP_ITERS_HELP = (
    "cap on step-size evaluations (1: the paper's fixed-point step; in double "
    "precision each further evaluation is a Newton step, and a call stops once "
    "converged; default %(default)s)"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _int_at_least(value: str, lowest: int) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if count < lowest:
        raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {count}")
    return count


def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _non_negative_int(value: str) -> int:
    return _int_at_least(value, 0)


def _interaction_count(value: str) -> int:
    count = _positive_int(value)
    if count > MAX_INTERACTIONS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_INTERACTIONS}, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fermatpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the error-vs-time benchmark")
    b.add_argument("--seed", type=_non_negative_int, default=0)
    b.add_argument("--batch", type=_positive_int, default=BenchConfig.batch)
    b.add_argument("--n", type=_interaction_count, nargs="+", default=list(BenchConfig.n_range))
    b.add_argument("--kinds", choices=KINDS, default=BenchConfig.kinds.value)
    b.add_argument("--solvers", type=str, nargs="+", default=list(BenchConfig.solvers))
    b.add_argument("--iterations", type=_positive_int, default=BenchConfig.iterations)
    b.add_argument(
        "--fp-iters", type=_positive_int, default=BenchConfig.fixed_point_iters, help=FP_ITERS_HELP
    )
    b.add_argument("--precision", choices=PRECISIONS, default=BenchConfig.precision.value)
    b.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")

    s = sub.add_parser("solve", help="solve scenes from a file and print paths")
    s.add_argument("scene_file", type=str)
    s.add_argument("--iterations", type=_positive_int, default=SolveOptions.iterations)
    s.add_argument(
        "--fp-iters", type=_positive_int, default=SolveOptions.fixed_point_iters, help=FP_ITERS_HELP
    )
    s.add_argument("--precision", choices=PRECISIONS, default=SolveOptions.precision.value)

    g = sub.add_parser("grad-check", help="implicit-differentiation oracle check")
    g.add_argument("--seed", type=_non_negative_int, default=0)
    g.add_argument("--n", type=_interaction_count, default=2)
    g.add_argument("--kinds", choices=KINDS, default=Kinds.MIXED.value)
    g.add_argument("--count", type=_positive_int, default=10)

    w = sub.add_parser("gen", help="write random scenes to a scene file")
    w.add_argument("--seed", type=_non_negative_int, default=0)
    w.add_argument("--n", type=_interaction_count, default=2)
    w.add_argument("--kinds", choices=KINDS, default=Kinds.MIXED.value)
    w.add_argument("--count", type=_positive_int, default=10)
    w.add_argument("--out", type=str, required=True)
    return parser


def _cmd_bench(args) -> int:
    try:
        config = BenchConfig(
            seed=args.seed,
            batch=args.batch,
            n_range=tuple(args.n),
            kinds=args.kinds,
            solvers=tuple(args.solvers),
            iterations=args.iterations,
            fixed_point_iters=args.fp_iters,
            precision=args.precision,
        )
    except ValueError as exc:
        print(f"fermatpath bench: {exc}", file=sys.stderr)
        return USAGE_ERROR
    created = args.out is not None and not os.path.exists(args.out)
    try:
        # Append mode fails at once on an unwritable path without truncating
        # the file; it is overwritten only once the run has succeeded.
        out = open(args.out, "a", newline="") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"fermatpath bench: {exc}", file=sys.stderr)
        return USAGE_ERROR
    with out as fh:
        try:
            records = run_bench(config)
        except FermatPathError as exc:
            print(f"fermatpath bench: {exc}", file=sys.stderr)
            if created:
                os.remove(args.out)
            return SOLVE_ERROR
        if args.out:
            fh.truncate(0)
        write_records(records, fh)
    return 0


def _cmd_solve(args) -> int:
    try:
        with open(args.scene_file) as fh:
            specs = load_scenes(fh)
    except (OSError, SceneFileError) as exc:
        print(f"fermatpath solve: {exc}", file=sys.stderr)
        return USAGE_ERROR
    opts = SolveOptions(
        iterations=args.iterations,
        fixed_point_iters=args.fp_iters,
        precision=args.precision,
    )
    for idx, spec in enumerate(specs):
        try:
            report = bfgs_solve(spec, init_params(spec), opts)
        except FermatPathError as exc:
            print(f"scene {idx}: solver failed: {exc}", file=sys.stderr)
            return SOLVE_ERROR
        pts = embed(spec, report.solution)
        print(f"scene {idx}: length={report.final_length:.9g} "
              f"grad_norm={report.final_grad_norm:.3e}")
        for j, p in enumerate(pts):
            print(f"  x{j} = ({p[0]:.9g}, {p[1]:.9g}, {p[2]:.9g})")
    return 0


def _cmd_grad_check(args) -> int:
    report = grad_check(args.seed, args.n, args.kinds, args.count)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: {report.count} of {args.count} scenes checked, "
        f"max VJP rel error {report.vjp_max_rel_error:.3e} (tol {report.tolerance:g}), "
        f"max envelope rel error {report.envelope_max_rel_error:.3e}"
    )
    return 0 if report.passed else CHECK_FAILED


def _cmd_gen(args) -> int:
    try:
        out = open(args.out, "w")
    except OSError as exc:
        print(f"fermatpath gen: {exc}", file=sys.stderr)
        return USAGE_ERROR
    with out as fh:
        specs = gen_scenes(args.seed, args.n, args.kinds, args.count)
        save_scenes(specs, fh)
    print(f"wrote {len(specs)} scenes to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "grad-check":
        return _cmd_grad_check(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())
