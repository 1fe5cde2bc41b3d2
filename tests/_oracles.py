"""Independent numerical oracles used across the test suite.

Everything here is deliberately implemented from first principles (finite
differences, golden-section search, a standalone d=1 solver) rather than
reusing library internals, so tests compare two independent computations.
The one exception is `fixed_schedule_bfgs`, the batch BFGS kernel as a
plain fixed schedule, which must share the library's arithmetic to serve
as a bitwise reference.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from fermatpath import PathSpec, Surface, init_params, path_length
from fermatpath.batching import clamped_segments, gradient_batch, path_length_batch
from fermatpath.objective import gradient


def fd_gradient(spec: PathSpec, T, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of path_length w.r.t. the params."""
    T = np.asarray(T, dtype=float)
    g = np.zeros_like(T)
    for i in range(T.shape[0]):
        for j in range(2):
            Tp, Tm = T.copy(), T.copy()
            Tp[i, j] += h
            Tm[i, j] -= h
            g[i, j] = (path_length(spec, Tp) - path_length(spec, Tm)) / (2 * h)
    return g


def fd_hessian(spec: PathSpec, T, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the analytic gradient."""
    T = np.asarray(T, dtype=float)
    n = T.shape[0]
    H = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(2):
            Tp, Tm = T.copy(), T.copy()
            Tp[i, j] += h
            Tm[i, j] -= h
            col = (gradient(spec, Tp) - gradient(spec, Tm)) / (2 * h)
            H[:, 2 * i + j] = col.ravel()
    return H


def golden_alpha(spec: PathSpec, T, P, bracket=(0.0, 1e-3), xtol=1e-12) -> float:
    """Golden-section minimizer of the path length along direction P."""
    res = minimize_scalar(
        lambda a: path_length(spec, T + a * P),
        bracket=bracket,
        method="golden",
        options={"xtol": xtol},
    )
    return float(res.x)


def perturb_params(spec: PathSpec, rng, scale: float) -> np.ndarray:
    """Initial guess plus active-coordinate noise of the given scale."""
    return init_params(spec) + rng.normal(size=(spec.n, 2)) * scale * spec.active_mask


def perturb_scene(spec: PathSpec, coord, h: float) -> PathSpec:
    """Rebuild the spec with one scene coordinate shifted by h.

    `coord` is ("start", r), ("end", r), ("anchor", i, r) or
    ("basis", i, r, c).
    """
    start = np.array(spec.start)
    end = np.array(spec.end)
    surfaces = list(spec.surfaces)
    if coord[0] == "start":
        start[coord[1]] += h
    elif coord[0] == "end":
        end[coord[1]] += h
    else:
        i = coord[1]
        s = surfaces[i]
        basis = np.array(s.basis)
        anchor = np.array(s.anchor)
        if coord[0] == "anchor":
            anchor[coord[2]] += h
        else:
            basis[coord[2], coord[3]] += h
        surfaces[i] = Surface(basis=basis, anchor=anchor, kind=s.kind)
    return PathSpec(start=start, end=end, surfaces=tuple(surfaces))


def scene_coords(spec: PathSpec):
    """All differentiable scene coordinates (inert basis columns excluded)."""
    coords = []
    for i, s in enumerate(spec.surfaces):
        for c in range(2):
            if s.active[c]:
                coords.extend(("basis", i, r, c) for r in range(3))
        coords.extend(("anchor", i, r) for r in range(3))
    coords.extend(("start", r) for r in range(3))
    coords.extend(("end", r) for r in range(3))
    return coords


def reduced_edge_bfgs(sc, T0r, iters: int, fp_iters: int) -> np.ndarray:
    """Standalone d=1 BFGS for edge-only scenes: one unknown per edge.

    Mirrors the library's update rules on n-dimensional (not 2n) state, so
    agreement with the unified d=2 solver demonstrates the representations
    are interchangeable.
    """
    A = sc.basis[..., 0]  # (B, n, 3) edge directions
    B, n = T0r.shape
    T = T0r.copy()
    eps = sc.seg_epsilon()
    tiny = np.finfo(T.dtype).tiny

    def segs(T):
        mid = np.einsum("bni,bn->bni", A, T) + sc.anchor
        x = np.concatenate([sc.start[:, None], mid, sc.end[:, None]], axis=1)
        s = x[:, 1:] - x[:, :-1]
        norms = np.maximum(np.sqrt(np.einsum("bki,bki->bk", s, s)), eps[:, None])
        return s, norms

    def grad(T):
        s, norms = segs(T)
        u = s / norms[..., None]
        return np.einsum("bni,bni->bn", A, u[:, :-1] - u[:, 1:])

    H = np.broadcast_to(np.eye(n), (B, n, n)).copy()
    g = grad(T)
    for _ in range(iters):
        p = -np.einsum("bij,bj->bi", H, g)
        s_cur, _ = segs(T)
        w = np.einsum("bni,bn->bni", A, p)
        wp = np.concatenate([np.zeros((B, 1, 3)), w, np.zeros((B, 1, 3))], axis=1)
        dAp = wp[:, 1:] - wp[:, :-1]
        a2 = np.einsum("bki,bki->bk", dAp, dAp)
        c = np.einsum("bki,bki->bk", dAp, s_cur)
        zero = np.einsum("bk->b", a2) <= tiny
        alpha = np.zeros(B)
        for _ in range(fp_iters):
            seg = s_cur + alpha[:, None, None] * dAp
            den = np.maximum(
                np.sqrt(np.einsum("bki,bki->bk", seg, seg)), eps[:, None]
            )
            new = -np.einsum("bk->b", c / den) / np.where(
                zero, 1.0, np.einsum("bk->b", a2 / den)
            )
            alpha = np.where(zero | ~np.isfinite(new), alpha, new)
        step = alpha[:, None] * p
        T = T + step
        g_new = grad(T)
        y = g_new - g
        sy = np.einsum("bi,bi->b", step, y)
        sn = np.sqrt(np.einsum("bi,bi->b", step, step))
        yn = np.sqrt(np.einsum("bi,bi->b", y, y))
        ok = sy > 1e-12 * sn * yn
        rho = np.where(ok, 1.0 / np.where(ok, sy, 1.0), 0.0)
        Hy = np.einsum("bij,bj->bi", H, y)
        yHy = np.einsum("bi,bi->b", y, Hy)
        sHy = np.einsum("bi,bj->bij", step, Hy)
        ssT = np.einsum("bi,bj->bij", step, step)
        Hn = (
            H
            - rho[:, None, None] * (sHy + np.swapaxes(sHy, 1, 2))
            + (rho * rho * yHy + rho)[:, None, None] * ssT
        )
        ok = ok & np.all(np.isfinite(Hn), axis=(1, 2))
        H = np.where(ok[:, None, None], Hn, H)
        g = g_new
    return T


def fixed_schedule_bfgs(sc, T0, opts):
    """The batch BFGS kernel with no early exit of any kind.

    Every member runs all opts.iterations iterations and every step size
    all opts.fixed_point_iters fixed-point iterations, with the library's
    update rules. Returns (T, g, traces, still_at): still_at[b] is the
    first iteration whose step left member b's parameters bitwise
    unchanged, or -1 if none did.
    """
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.array(T0, dtype=dtype)
    B, n = T.shape[0], T.shape[1]
    m = 2 * n
    eps = sc.seg_epsilon()
    bits = f"u{T.itemsize}"
    H = np.broadcast_to(np.eye(m, dtype=dtype), (B, m, m)).copy()
    g = gradient_batch(sc, T).reshape(B, m)
    traces = [[] for _ in range(B)]
    still_at = np.full(B, -1)
    for it in range(opts.iterations):
        p = -np.einsum("bij,bj->bi", H, g)
        _, s, _ = clamped_segments(sc, T)
        w = np.einsum("bnij,bnj->bni", sc.basis, p.reshape(B, n, 2))
        pad = np.zeros((B, 1, 3), dtype=dtype)
        wp = np.concatenate([pad, w, pad], axis=1)
        dAp = wp[:, 1:] - wp[:, :-1]
        a2 = np.einsum("bki,bki->bk", dAp, dAp)
        c = np.einsum("bki,bki->bk", dAp, s)
        zero = np.einsum("bk->b", a2) <= np.finfo(dtype).tiny
        alpha = np.zeros(B, dtype=dtype)
        for _ in range(opts.fixed_point_iters):
            seg = s + alpha[:, None, None] * dAp
            den = np.maximum(np.sqrt(np.einsum("bki,bki->bk", seg, seg)), eps[:, None])
            num = np.einsum("bk->b", c / den)
            dsum = np.einsum("bk->b", a2 / den)
            new = -num / np.where(zero, np.ones_like(dsum), dsum)
            alpha = np.where(zero | ~np.isfinite(new), alpha, new)
        step = alpha[:, None] * p
        T_new = T + step.reshape(B, n, 2)
        still = np.all(T_new.view(bits) == T.view(bits), axis=(1, 2))
        still_at = np.where((still_at < 0) & still, it, still_at)
        T = T_new
        g_new = gradient_batch(sc, T).reshape(B, m)
        y = g_new - g
        sy = np.einsum("bi,bi->b", step, y)
        sn = np.sqrt(np.einsum("bi,bi->b", step, step))
        yn = np.sqrt(np.einsum("bi,bi->b", y, y))
        ok = sy > dtype(1e-12) * sn * yn
        rho = np.where(ok, np.ones_like(sy) / np.where(ok, sy, np.ones_like(sy)), 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            Hy = np.einsum("bij,bj->bi", H, y)
            yHy = np.einsum("bi,bi->b", y, Hy)
            sHy = np.einsum("bi,bj->bij", step, Hy)
            ssT = np.einsum("bi,bj->bij", step, step)
            Hn = (
                H
                - rho[:, None, None] * (sHy + np.swapaxes(sHy, 1, 2))
                + (rho * rho * yHy + rho)[:, None, None] * ssT
            )
        ok = ok & np.all(np.isfinite(Hn), axis=(1, 2))
        H = np.where(ok[:, None, None], Hn, H)
        g = g_new
        if opts.record_trace:
            lengths = path_length_batch(sc, T)
            gnorms = np.sqrt(np.einsum("bi,bi->b", g, g))
            for b in range(B):
                traces[b].append((it, float(lengths[b]), float(gnorms[b])))
    return T, g.reshape(B, n, 2), traces if opts.record_trace else None, still_at
