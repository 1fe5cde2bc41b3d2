#!/usr/bin/env python3
"""Show that scene-gradient cost does not grow with solver depth.

Implicit differentiation consumes only the converged solution, so the
gradient phase after a 16-iteration solve costs the same as after a
128-iteration solve. Forward and solve times are printed alongside for
contrast.
"""

import argparse
import time

from fermatpath import Kinds, SolveOptions, batch_solve, gen_scenes, init_params
from fermatpath.implicit_diff import grad_length_wrt_params


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, default=9)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--batch", type=int, default=50)
    # Depths start where the solves are already stationary enough for the
    # implicit-differentiation gate.
    p.add_argument("--depths", type=int, nargs="+", default=[16, 32, 64, 128])
    p.add_argument("--reps", type=int, default=5)
    return p.parse_args()


def main():
    args = parse_args()
    specs = gen_scenes(args.seed, args.n, Kinds.MIXED, args.batch)
    T0s = [init_params(s) for s in specs]

    print(f"{'iterations':>10} {'solve_ms':>10} {'grad_ms':>10}")
    for depth in args.depths:
        opts = SolveOptions(iterations=depth, fixed_point_iters=64)
        t0 = time.perf_counter()
        T = [r.solution for r in batch_solve(specs, T0s, opts)]
        solve_ms = 1e3 * (time.perf_counter() - t0)

        for spec, Tb in zip(specs[:5], T[:5]):  # warm-up
            grad_length_wrt_params(spec, Tb)
        reps = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            for spec, Tb in zip(specs, T):
                grad_length_wrt_params(spec, Tb)
            reps.append(time.perf_counter() - t0)
        grad_ms = 1e3 * min(reps)
        print(f"{depth:>10} {solve_ms:>10.1f} {grad_ms:>10.2f}")


if __name__ == "__main__":
    main()
