"""Independent numerical oracles used across the test suite.

Everything here is deliberately implemented from first principles (finite
differences, a bisection for the exact step size, a standalone d=1 solver)
rather than reusing library internals, so tests compare two independent
computations. The exceptions, which must share the library's arithmetic to
serve as bitwise references, are `fixed_point_alpha` and
`fixed_schedule_bfgs`, the step-size loop and the batch BFGS kernel as
plain fixed schedules, `stopped_schedule_bfgs`, the fixed schedule run to
each member's exit, `inverse_hessian_update`, the kernel's rank-two update,
and the constructors and the Hessian in their plain numpy or looped form.
`per_surface_params_from_points` is the projection, and so the initial
guess, as one `lstsq` per surface, and `exact_lstsq` is one surface's
projection in exact rational arithmetic. `perturbed_specs` is the
finite-difference oracle's perturbed scenes, rebuilt one spec at a time.

The library works batch last: a `BatchScene`'s arrays, parameters and
directions (2, n, B), segments (3, n+1, B) and per-segment scalars
(n+1, B). The oracles take and return arrays in that layout, but compute
batch first, on C-contiguous copies (`rows`), as plain expressions. Each
sum over the three coordinates is written out in order,
((x0 y0 + x1 y1) + x2 y2) (`dot3`), which is what a contraction over a
leading axis computes; each sum over a member's segments or interactions
is `np.einsum` over a contiguous (B, k) array, the library's algorithm
at every batch size.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from fermatpath import (
    DegenerateBasis,
    PathSpec,
    ShapeMismatch,
    Surface,
    SurfaceKind,
    init_params,
    path_length,
)
from fermatpath.batching import clamped_segments, gradient_batch, path_length_batch
from fermatpath.bench import _scene_vector
from fermatpath.geometry import MAX_INTERACTIONS, MIN_ENDPOINT_SEPARATION, PLANE_DEGENERACY_TOL
from fermatpath.objective import gradient
from fermatpath.solver import NOISE_FLOOR_TOL


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


def bisection_alpha(spec: PathSpec, T, P) -> float:
    """The exact step size along direction P, by bisection on the sign of phi'.

    The path length along P is phi(a) = sum_k |s_k + a d_k|, with s_k the
    segments at T and d_k what P adds to them, so
    phi'(a) = sum_k (s_k + a d_k) . d_k / |s_k + a d_k|. phi is convex, so
    phi' does not decrease; P must be a descent direction (phi'(0) < 0).
    The bracket [0, hi] doubles hi until phi'(hi) > 0, then halves until
    its midpoint rounds to an end.
    """
    T, P = np.asarray(T, dtype=float), np.asarray(P, dtype=float)
    A = spec.basis_tensor
    x = np.concatenate([spec.start[None], np.einsum("nij,nj->ni", A, T) + spec.anchor_tensor,
                        spec.end[None]])
    w = np.concatenate([np.zeros((1, 3)), np.einsum("nij,nj->ni", A, P), np.zeros((1, 3))])
    s, d = np.diff(x, axis=0), np.diff(w, axis=0)

    def slope(a):
        v = s + a * d
        return np.sum(np.sum(v * d, axis=1) / np.linalg.norm(v, axis=1))

    if not slope(0.0) < 0.0:
        raise ValueError("P is not a descent direction")
    lo, hi = 0.0, 1e-3
    while slope(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid


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


def perturbed_specs(specs, h: float) -> list[PathSpec]:
    """Each spec rebuilt once per +h and -h shift of each perturbable scene entry.

    The entries and their order are `bench._scene_vector`'s, spec by spec;
    each shifted vector is split back into bases, anchors and endpoints and
    validated as new `Surface`s and a new `PathSpec`.
    """
    out = []
    for spec in specs:
        n = spec.n
        x, mask = _scene_vector(spec)
        for j in np.flatnonzero(mask):
            for step in (h, -h):
                xj = x.copy()
                xj[j] += step
                basis, anchor, start, end = np.split(xj, [6 * n, 9 * n, 9 * n + 3])
                surfaces = tuple(
                    Surface(basis=b, anchor=a, kind=s.kind)
                    for b, a, s in zip(basis.reshape(n, 3, 2), anchor.reshape(n, 3), spec.surfaces)
                )
                out.append(PathSpec(start=start, end=end, surfaces=surfaces))
    return out


def rows(a) -> np.ndarray:
    """A batch-last array as a C-contiguous batch-first copy: every axis reversed."""
    return np.ascontiguousarray(np.asarray(a).T)


def scene_rows(sc):
    """(basis (B, n, 3, 2), anchor (B, n, 3), start (B, 3), end (B, 3)) of a batch-last scene."""
    basis = np.ascontiguousarray(sc.basis.transpose(3, 2, 0, 1))
    return basis, rows(sc.anchor), rows(sc.start), rows(sc.end)


def dot3(x, y):
    """x . y over a last axis of length 3, summed in order: (x0 y0 + x1 y1) + x2 y2."""
    return (x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]) + x[..., 2] * y[..., 2]


def reduced_edge_bfgs(sc, T0r, iters: int, fp_iters: int) -> np.ndarray:
    """Standalone d=1 BFGS for edge-only scenes: one unknown per edge.

    Mirrors the library's update rules on n-dimensional (not 2n) state, so
    agreement with the unified d=2 solver demonstrates the representations
    are interchangeable. T0r is (B, n).
    """
    basis, anchor, start, end = scene_rows(sc)
    A = basis[..., 0]  # (B, n, 3) edge directions
    B, n = T0r.shape
    T = T0r.copy()
    eps = sc.eps
    tiny = np.finfo(T.dtype).tiny

    def segs(T):
        mid = np.einsum("bni,bn->bni", A, T) + anchor
        x = np.concatenate([start[:, None], mid, end[:, None]], axis=1)
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


def _direction_rows(sc, P):
    """(B, n+1, 3) what the (2, n, B) directions P add to each segment, batch first."""
    B = P.shape[2]
    w = np.einsum("bnij,bnj->bni", scene_rows(sc)[0], rows(P))
    pad = np.zeros((B, 1, 3), dtype=P.dtype)
    wp = np.concatenate([pad, w, pad], axis=1)
    return wp[:, 1:] - wp[:, :-1]


def direction_segments(sc, P):
    """(3, n+1, B) what the (2, n, B) directions P add to each segment."""
    return rows(_direction_rows(sc, P))


def fixed_point_map_alpha(sc, s, P, iters: int, eps):
    """The paper's step-size loop in its plain form, with no early exit of any kind.

    Runs all `iters` fixed-point iterations from alpha = 0 along the (2, n, B)
    directions P from the (3, n+1, B) segments s. Returns (alpha, zero,
    clamped) like `solver._fixed_point_alpha`: zero marks directions that
    move no point, clamped members whose trial segment norm fell to the
    floor `eps`.
    """
    dtype = s.dtype
    s = rows(s)
    dAp = _direction_rows(sc, P)
    a2 = dot3(dAp, dAp)
    c = dot3(dAp, s)
    zero = np.einsum("bk->b", a2) <= np.finfo(dtype).tiny
    alpha = np.zeros(P.shape[2], dtype=dtype)
    clamped = np.zeros(P.shape[2], dtype=bool)
    for _ in range(iters):
        seg = s + alpha[:, None, None] * dAp
        norms = np.sqrt(dot3(seg, seg))
        clamped |= np.any(norms <= eps[:, None], axis=1)
        den = np.maximum(norms, eps[:, None])
        num = np.einsum("bk->b", c / den)
        dsum = np.einsum("bk->b", a2 / den)
        new = -num / np.where(zero, np.ones_like(dsum), dsum)
        alpha = np.where(zero | ~np.isfinite(new), alpha, new)
    return alpha, zero, clamped


def _slope_terms(s, dAp, alpha, eps):
    """Trial norms, floored norms and e_k / den_k at the (B,) step sizes alpha, batch first."""
    seg = s + alpha[:, None, None] * dAp
    norms = np.sqrt(dot3(seg, seg))
    den = np.maximum(norms, eps[:, None])
    return norms, den, dot3(seg, dAp) / den


def step_slope(sc, s, P, alpha, eps):
    """(phi'(alpha), sum_k |d_k|), each (B,), by the arithmetic of `fixed_point_alpha`."""
    dAp = _direction_rows(sc, P)
    scale = np.einsum("bk->b", np.sqrt(dot3(dAp, dAp)))
    return np.einsum("bk->b", _slope_terms(rows(s), dAp, alpha, eps)[2]), scale


def fixed_point_alpha(sc, s, P, iters: int, eps):
    """The library's step size in its plain form: (alpha, zero, clamped, evaluations).

    Single precision, and a cap of one evaluation, run `fixed_point_map_alpha`.
    Otherwise the first evaluation is its first iteration, and each further
    one is a bracketed Newton step on phi'(a) = sum_k e_k / den_k, with
    e_k = (s_k + a d_k) . d_k and den_k the trial norm floored at `eps`:
    Newton's value if it lies in the bracket [lo, hi] that the signs of phi'
    have set, else the bracket's midpoint. A member stops at
    |phi'| <= 8 eps sum_k |d_k| (without the step), at a value that is not
    finite (keeping alpha), as the midpoint of a bracket open on one side
    is, after a step of at most 4 eps |alpha|, or after `iters`
    evaluations; only running members count towards `clamped`.
    `evaluations` (B,) counts the evaluations each member used, so a member
    at `iters` hit the cap. s is (3, n+1, B) and P (2, n, B).
    """
    dtype = s.dtype
    B = P.shape[2]
    first, zero, clamped = fixed_point_map_alpha(sc, s, P, 1, eps)
    if dtype == np.float32 or iters == 1:
        alpha, zero, clamped = fixed_point_map_alpha(sc, s, P, iters, eps)
        return alpha, zero, clamped, np.full(B, iters)
    s = rows(s)
    dAp = _direction_rows(sc, P)
    a2 = dot3(dAp, dAp)
    c = dot3(dAp, s)
    norms0 = np.sqrt(dot3(s, s))
    slope0 = np.einsum("bk->b", c / np.maximum(norms0, eps[:, None]))
    ulp = np.finfo(dtype).eps
    tol = 8 * ulp * np.einsum("bk->b", np.sqrt(a2))
    active = ~zero & np.isfinite(first)
    alpha = first
    lo = np.where(slope0 < 0, 0.0, -np.inf)
    hi = np.where(slope0 > 0, 0.0, np.inf)
    evaluations = np.ones(B, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iters - 1):
            norms, den, ratio = _slope_terms(s, dAp, alpha, eps)
            clamped |= active & np.any(norms <= eps[:, None], axis=1)
            slope = np.einsum("bk->b", ratio)
            d1 = np.einsum("bk->b", a2 / den)
            curvature = d1 - np.einsum("bk->b", ratio * ratio / den)
            newton = alpha - slope / curvature
            lo = np.where(slope < 0, alpha, lo)
            hi = np.where(slope > 0, alpha, hi)
            # alpha is an end of [lo, hi]: Newton's value lies inside it iff
            # this holds (never for phi'' <= 0).
            use_newton = np.abs(slope) <= (hi - lo) * curvature
            mid = lo + 0.5 * (hi - lo)
            new = np.where(use_newton, newton, mid)
            step = np.abs(new - alpha)
            evaluations += active
            moves = active & (np.abs(slope) > tol) & np.isfinite(new)
            alpha = np.where(moves, new, alpha)
            active = moves & (step > 4 * ulp * np.abs(alpha))
    return alpha, zero, clamped, evaluations


def _curvature_gate(step, y):
    """(ok, rho): the BFGS curvature gate and 1 / (s.y) where it passes, else 0."""
    dtype = step.dtype.type
    sy = np.einsum("bi,bi->b", step, y)
    sn = np.sqrt(np.einsum("bi,bi->b", step, step))
    yn = np.sqrt(np.einsum("bi,bi->b", y, y))
    ok = sy > dtype(1e-12) * sn * yn
    return ok, np.where(ok, np.ones_like(sy) / np.where(ok, sy, np.ones_like(sy)), 0.0)


def inverse_hessian_update(H, step, y):
    """The batch BFGS inverse-Hessian update and its acceptance rule, plainly.

    The update is the rank-two product H + U W^T with U = [P, Q] and
    W = sign(t) [P, -Q], where t = 1 + rho yHy, P = sqrt|rho t| (s - Hy / t)
    and Q = sqrt|rho / t| Hy. A member that fails the curvature gate, or
    whose update is not finite, keeps H. Returns (the next H, the update
    before the acceptance rule).
    """
    ok, rho = _curvature_gate(step, y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Hy = np.einsum("bij,bj->bi", H, y)
        t = rho * np.einsum("bi,bi->b", y, Hy) + 1
        P = np.sqrt(np.abs(rho * t))[:, None] * (step - Hy / t[:, None])
        Q = np.sqrt(np.abs(rho / t))[:, None] * Hy
        sign = np.sign(t)[:, None]
        U = np.stack([P, Q], axis=2)
        Wt = np.stack([sign * P, -sign * Q], axis=1)
        Hn = H + np.matmul(U, Wt)
    ok = ok & np.all(np.isfinite(Hn), axis=(1, 2))
    return np.where(ok[:, None, None], Hn, H), Hn


def three_term_inverse_hessian_update(H, step, y):
    """The same update as H - rho (sHy + sHy^T) + c ss^T, before the acceptance rule.

    The textbook three-term form; the rank-two product equals it up to rounding.
    """
    _, rho = _curvature_gate(step, y)
    Hy = np.einsum("bij,bj->bi", H, y)
    yHy = np.einsum("bi,bi->b", y, Hy)
    sHy = np.einsum("bi,bj->bij", step, Hy)
    ssT = np.einsum("bi,bj->bij", step, step)
    return (
        H
        - rho[:, None, None] * (sHy + np.swapaxes(sHy, 1, 2))
        + (rho * rho * yHy + rho)[:, None, None] * ssT
    )


def fixed_schedule_bfgs(sc, T0, opts):
    """The batch BFGS kernel with no early exit of any kind.

    Every member runs all opts.iterations iterations and every step size
    all opts.fixed_point_iters fixed-point iterations, with the library's
    update rules. T0, T and g are (B, n, 2); the library's embedding and
    gradient get them batch last. Returns (T, g, traces, still_at, floor_at): still_at[b]
    is the first iteration whose step left member b's parameters bitwise
    unchanged, and floor_at[b] the first iterate, from T0 (0) to the last
    (opts.iterations), whose |g| < NOISE_FLOOR_TOL (1 + L), L summed from
    the clamped segment norms; each is -1 if there is none.
    """
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.array(T0, dtype=dtype)
    B, n = T.shape[0], T.shape[1]
    m = 2 * n
    eps = sc.eps
    bits = f"u{T.itemsize}"
    H = np.broadcast_to(np.eye(m, dtype=dtype), (B, m, m)).copy()
    g = rows(gradient_batch(sc, T.T)).reshape(B, m)
    traces = [[] for _ in range(B)]
    still_at = np.full(B, -1)
    floor_at = np.full(B, -1)

    def at_floor(g, norms):
        gnorm = np.sqrt(np.einsum("bi,bi->b", g, g))
        return gnorm < NOISE_FLOOR_TOL * (1.0 + np.einsum("bk->b", rows(norms)))

    for it in range(opts.iterations):
        p = -np.einsum("bij,bj->bi", H, g)
        _, s, norms = clamped_segments(sc, T.T)
        floor_at = np.where((floor_at < 0) & at_floor(g, norms), it, floor_at)
        P = p.reshape(B, n, 2).T
        alpha = fixed_point_alpha(sc, s, P, opts.fixed_point_iters, eps)[0]
        step = alpha[:, None] * p
        T_new = T + step.reshape(B, n, 2)
        still = np.all(T_new.view(bits) == T.view(bits), axis=(1, 2))
        still_at = np.where((still_at < 0) & still, it, still_at)
        T = T_new
        g_new = rows(gradient_batch(sc, T.T)).reshape(B, m)
        H, _ = inverse_hessian_update(H, step, g_new - g)
        g = g_new
        if opts.record_trace:
            lengths = path_length_batch(sc, T.T)
            gnorms = np.sqrt(np.einsum("bi,bi->b", g, g))
            for b in range(B):
                traces[b].append((it, float(lengths[b]), float(gnorms[b])))
    last = at_floor(g, clamped_segments(sc, T.T)[2])
    floor_at = np.where((floor_at < 0) & last, opts.iterations, floor_at)
    return T, g.reshape(B, n, 2), traces if opts.record_trace else None, still_at, floor_at


def iterations_to_exit(still_at, floor_at, iterations):
    """(B,) iterations each member runs: to its first floor iterate or still step, at most all."""
    return np.minimum(
        np.where(still_at >= 0, still_at + 1, iterations),
        np.where(floor_at >= 0, floor_at, iterations),
    )


def stopped_schedule_bfgs(sc, T0, opts):
    """The batch BFGS kernel's results, from the fixed schedule run to each exit.

    Member b stops after ran[b] iterations: at floor_at[b], after the step
    still_at[b], or at the end of the schedule, whichever comes first. Its
    T and g are those of `fixed_schedule_bfgs` run for ran[b] iterations
    (T0 and its gradient at 0), and its trace repeats its last (L, |g|)
    to the end of the schedule. Returns (T, g, traces, ran, still_at,
    floor_at), the last two from the whole schedule.
    """
    dtype = opts.precision.dtype
    T, g, traces, still_at, floor_at = fixed_schedule_bfgs(sc, T0, opts)
    full = opts.iterations
    ran = iterations_to_exit(still_at, floor_at, full)
    for k in np.unique(ran[ran < full]).tolist():
        if k:
            T_k, g_k, traces_k, _, _ = fixed_schedule_bfgs(sc, T0, replace(opts, iterations=k))
        else:  # stopped at T0: one trace entry holds T0's (L, |g|)
            sc_k = sc.astype(dtype)
            T_k = np.array(T0, dtype=dtype)
            g_k = rows(gradient_batch(sc_k, T_k.T))
            g_flat = g_k.reshape(len(T_k), -1)
            L = path_length_batch(sc_k, T_k.T)
            gnorms = np.sqrt(np.einsum("bi,bi->b", g_flat, g_flat))
            traces_k = [[(0, float(a), float(b))] for a, b in zip(L, gnorms)]
        for b in np.flatnonzero(ran == k).tolist():
            T[b], g[b] = T_k[b], g_k[b]
            if traces is not None:
                last = traces_k[b][-1][1:]
                traces[b] = traces_k[b][:k] + [(it, *last) for it in range(k, full)]
    return T, g, traces, ran, still_at, floor_at


# A float array cast to each dtype kind that a float cast would silently read
# back: complex (the cast drops the imaginary part), bool and the string kinds.
NON_REAL_CASTS = {
    "complex": lambda a: a * (1.0 + 1e-3j),
    "bool": lambda a: a != 0.0,
    "str": lambda a: a.astype(str),
    "bytes": lambda a: a.astype(bytes),
}


def _real(a, name: str) -> np.ndarray:
    """`a` as a float array. A complex, boolean or string entry raises ShapeMismatch, since
    a float cast would change it, and so does anything the cast cannot make, such as a
    ragged list."""
    try:
        leaves = np.asarray(a, dtype=object).ravel().tolist()
        if any(isinstance(x, (complex, bool, np.bool_, str, bytes)) for x in leaves):
            raise ShapeMismatch(f"{name} must be real numbers")
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{name} must be a float array: {exc}") from exc


def vec3(v, name: str) -> np.ndarray:
    """The 3-vector check in its plain numpy form: a float copy, or the exception."""
    a = _real(v, name)
    if a.shape != (3,):
        raise ShapeMismatch(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeMismatch(f"{name} has non-finite components")
    return a.copy()


def surface(basis, anchor, kind):
    """`Surface` validation in its plain numpy form; returns (basis, anchor)."""
    basis = _real(basis, "basis")
    if basis.shape != (3, 2):
        raise ShapeMismatch(f"basis must have shape (3, 2), got {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise DegenerateBasis("basis has non-finite entries")
    anchor = vec3(anchor, "anchor")
    u, v = basis[:, 0], basis[:, 1]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if kind is SurfaceKind.PLANE:
        if nu == 0.0 or nv == 0.0:
            raise DegenerateBasis("plane basis column is zero")
        if np.linalg.norm(np.cross(u, v)) <= PLANE_DEGENERACY_TOL * nu * nv:
            raise DegenerateBasis("plane basis columns are (near-)parallel")
    else:
        if nu == 0.0:
            raise DegenerateBasis("edge direction is zero")
        if nv != 0.0:
            raise DegenerateBasis("edge second basis column must be exactly zero")
    return basis.copy(), anchor


def make_plane(anchor, u, v):
    basis = np.stack([vec3(u, "u"), vec3(v, "v")], axis=1)
    return surface(basis, anchor, SurfaceKind.PLANE)


def make_edge(anchor, direction):
    basis = np.stack([vec3(direction, "direction"), np.zeros(3)], axis=1)
    return surface(basis, anchor, SurfaceKind.EDGE)


def path_spec(start, end, surfaces):
    """`PathSpec` validation and stacking.

    Returns (start, end, basis, anchor, active, eps), eps the (1,) segment floor.
    """
    start, end = vec3(start, "start"), vec3(end, "end")
    with np.errstate(over="ignore"):
        separation = np.linalg.norm(end - start)
    if not np.isfinite(separation):
        raise ShapeMismatch("start and end points are so far apart that their separation overflows")
    if separation <= MIN_ENDPOINT_SEPARATION:
        raise ShapeMismatch("start and end points (nearly) coincide")
    surfaces = tuple(surfaces)
    if len(surfaces) > MAX_INTERACTIONS:
        raise ShapeMismatch(f"too many interactions: {len(surfaces)}")
    n = len(surfaces)
    basis = np.stack([s.basis for s in surfaces]) if n else np.zeros((0, 3, 2))
    anchor = np.stack([s.anchor for s in surfaces]) if n else np.zeros((0, 3))
    active = np.linalg.norm(basis, axis=1) > 0.0
    return start, end, basis, anchor, active, seg_epsilon(start[None], end[None])


def seg_epsilon(start, end, dtype=np.float64):
    """(B,) segment-norm floor of (B, 3) endpoints, computed in float64."""
    scale = np.linalg.norm(end.astype(np.float64) - start.astype(np.float64), axis=1)
    return (1e-12 * (1.0 + scale)).astype(dtype)


def looped_hessian_from_segments(sc, s, norms):
    """`batching.hessian_from_segments` as a Python loop over the n diagonal blocks.

    s is (3, n+1, B) and norms (n+1, B); the blocks are contracted batch
    last, one block at a time.
    """
    n, B = s.shape[1] - 1, s.shape[2]
    u = s / norms
    eye = np.eye(3, dtype=s.dtype)
    M = (eye[:, :, None, None] - np.einsum("ikb,jkb->ijkb", u, u)) / norms
    A = sc.basis
    H = np.zeros((B, 2 * n, 2 * n), dtype=s.dtype)
    for i in range(n):
        di = np.einsum("rib,rsb,sjb->bij", A[:, :, i], M[:, :, i] + M[:, :, i + 1], A[:, :, i])
        H[:, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = di
        if i + 1 < n:
            off = -np.einsum("rib,rsb,sjb->bij", A[:, :, i], M[:, :, i + 1], A[:, :, i + 1])
            H[:, 2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = off
            H[:, 2 * i + 2 : 2 * i + 4, 2 * i : 2 * i + 2] = np.swapaxes(off, 1, 2)
    return H


def where_pinned(H, active, shift):
    """The matrix `batching.solve_active` solves, built afresh with `np.where`.

    Inert rows and columns of the (B, m, m) H become the identity, with +0.0
    off the diagonal, and `shift` (B,) is added to the active diagonal.
    """
    H = np.where(active[:, :, None] & active[:, None, :], H, 0.0)
    diag = np.arange(H.shape[1])
    H[:, diag, diag] = np.where(active, H[:, diag, diag] + shift[:, None], 1.0)
    return H


def per_surface_params_from_points(spec: PathSpec, points) -> np.ndarray:
    """`geometry.params_from_points` as one `lstsq` per surface."""
    points = np.asarray(points, dtype=float)
    T = np.zeros((spec.n, 2))
    for i, surf in enumerate(spec.surfaces):
        act = surf.active
        A = surf.basis[:, act]
        rhs = points[i] - surf.anchor
        T[i, act] = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return T


def exact_lstsq(A, r) -> list[Fraction]:
    """The exact least-squares solution t of A t = r for a (3, 2) float A of rank 2.

    Every float is read as the rational it is, and the normal equations
    (A^T A) t = A^T r are solved by Cramer's rule in `Fraction`s, so no
    rounding enters.
    """
    A = [[Fraction(float(x)) for x in row] for row in np.asarray(A)]
    r = [Fraction(float(x)) for x in r]
    g = [[sum(A[k][i] * A[k][j] for k in range(3)) for j in range(2)] for i in range(2)]
    h = [sum(A[k][i] * r[k] for k in range(3)) for i in range(2)]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return [(h[0] * g[1][1] - g[0][1] * h[1]) / det, (g[0][0] * h[1] - g[1][0] * h[0]) / det]
