"""Command-line interface: bench, solve, grad-check, and gen subcommands."""

from __future__ import annotations

import argparse
import sys

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

USAGE_ERROR = 1
SOLVE_ERROR = 2
CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _kinds(value: str) -> Kinds:
    try:
        return Kinds(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown kinds {value!r}; choose from "
            + ", ".join(k.value for k in Kinds)
        )


def _precision(value: str) -> Precision:
    try:
        return Precision(value)
    except ValueError:
        raise argparse.ArgumentTypeError("precision must be 'single' or 'double'")


def _positive_int(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _interaction_count(value: str) -> int:
    count = _positive_int(value)
    if count > MAX_INTERACTIONS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_INTERACTIONS}, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fermatpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the error-vs-time benchmark")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--batch", type=_positive_int, default=1000)
    b.add_argument("--n", type=_interaction_count, nargs="+", default=[1, 2, 3, 4, 5])
    b.add_argument("--kinds", type=_kinds, default=Kinds.MIXED)
    b.add_argument(
        "--solvers", type=str, nargs="+", default=["ours", "ours-64", "gd", "newton"]
    )
    b.add_argument("--iterations", type=_positive_int, default=100)
    b.add_argument("--fp-iters", type=_positive_int, default=1)
    b.add_argument("--precision", type=_precision, default=Precision.SINGLE)
    b.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")

    s = sub.add_parser("solve", help="solve scenes from a file and print paths")
    s.add_argument("scene_file", type=str)
    s.add_argument("--iterations", type=_positive_int, default=100)
    s.add_argument("--fp-iters", type=_positive_int, default=64)
    s.add_argument("--precision", type=_precision, default=Precision.DOUBLE)

    g = sub.add_parser("grad-check", help="implicit-differentiation oracle check")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=_interaction_count, default=2)
    g.add_argument("--kinds", type=_kinds, default=Kinds.MIXED)
    g.add_argument("--count", type=_positive_int, default=10)

    w = sub.add_parser("gen", help="write random scenes to a scene file")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--n", type=_interaction_count, default=2)
    w.add_argument("--kinds", type=_kinds, default=Kinds.MIXED)
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
    try:
        records = run_bench(config)
    except FermatPathError as exc:
        print(f"fermatpath bench: {exc}", file=sys.stderr)
        return SOLVE_ERROR
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_records(records, fh)
    else:
        write_records(records, sys.stdout)
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
    specs = gen_scenes(args.seed, args.n, args.kinds, args.count)
    with open(args.out, "w") as fh:
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
