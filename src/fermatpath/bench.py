"""Scene generation, scene/result file I/O, and the benchmark protocol.

Scenes are drawn deterministically from a seed: endpoints in a box of
side 10, one anchor near each of n evenly spaced stations along the
start-end chord with lateral jitter, orthonormal plane bases, and uniform
edge directions. Plane orientations are chosen so the jittered waypoint
polyline is exactly specular at each plane; with unconstrained
orientations most "reflection" scenes would have a straight-through
minimum and the image method would not apply.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence, get_type_hints

import numpy as np
import yaml

from .baselines import (
    image_points_batch,
    reference_solve_batch,
    _gd_kernel,
    _newton_kernel,
)
from .batching import BatchScene, embed_batch, stack_params
from .errors import FermatPathError, NoConvergence, SceneFileError
from .geometry import (
    MAX_INTERACTIONS,
    PathSpec,
    Surface,
    SurfaceKind,
    cross3,
    make_edge,
    make_plane,
    norm3,
    row_norms,
)
from .implicit_diff import vjp_solution
from .objective import gradient, length_param_gradient
from .solver import Precision, SolveOptions, _bfgs_kernel, init_params


class Kinds(Enum):
    REFLECTIONS = "reflections"
    DIFFRACTIONS = "diffractions"
    MIXED = "mixed"


KNOWN_SOLVERS = ("ours", "ours-64", "gd", "newton", "image")

# Generator constants. Each is part of the RNG stream's contract: changing
# one changes every generated scene, and the golden digests in the tests.
BOX_SIDE = 10.0
LATERAL_JITTER = 2.0
ENDPOINT_EXCLUSION = 0.1
_MIN_ENDPOINT_DIST = 1.0
# Conditioning guards: near-grazing mirrors and edges nearly parallel to the
# chord give almost-flat Hessian directions that stall every iterative solver.
_MIN_TURN = 0.5
_MAX_EDGE_CHORD_ALIGN = 0.9


@dataclass(frozen=True)
class BenchConfig:
    seed: int
    batch: int = 1000
    n_range: tuple[int, ...] = (1, 2, 3, 4, 5)
    kinds: Kinds = Kinds.MIXED
    solvers: tuple[str, ...] = ("ours", "ours-64", "gd", "newton")
    iterations: int = 100
    fixed_point_iters: int = 1
    precision: Precision = Precision.SINGLE

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if any(not 1 <= n <= MAX_INTERACTIONS for n in self.n_range):
            raise ValueError(f"interaction counts must be in 1..{MAX_INTERACTIONS}")
        # The solve options' own checks, made before any scene is generated.
        SolveOptions(iterations=self.iterations, fixed_point_iters=self.fixed_point_iters)
        unknown = set(self.solvers) - set(KNOWN_SOLVERS)
        if unknown:
            raise ValueError(f"unknown solvers: {sorted(unknown)}")
        if "image" in self.solvers and self.kinds is not Kinds.REFLECTIONS:
            raise ValueError("the image solver applies to reflection-only scenes")


@dataclass(frozen=True)
class BenchRecord:
    solver: str
    n: int
    kinds: str
    d: int
    iterations: int
    fp_iters: int
    precision: str
    mean_error: float
    wall_time_ms: float


# One CSV column per field, in field order; floats are written by `repr`,
# which round-trips them exactly.
CSV_HEADER = [f.name for f in fields(BenchRecord)]
_COLUMN_TYPES = [get_type_hints(BenchRecord)[name] for name in CSV_HEADER]


def write_records(records: Sequence[BenchRecord], fileobj) -> None:
    w = csv.writer(fileobj)
    w.writerow(CSV_HEADER)
    for r in records:
        values = (getattr(r, name) for name in CSV_HEADER)
        w.writerow([repr(v) if kind is float else v for v, kind in zip(values, _COLUMN_TYPES)])


def read_records(fileobj) -> list[BenchRecord]:
    rows = csv.reader(fileobj)
    header = next(rows)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header}")
    out = []
    for row in rows:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"CSV row has {len(row)} fields, expected {len(CSV_HEADER)}: {row}")
        out.append(BenchRecord(*(kind(v) for kind, v in zip(_COLUMN_TYPES, row))))
    return out


# ---------------------------------------------------------------------------
# Scene files (YAML, one scene per document)


def scene_to_dict(spec: PathSpec) -> dict:
    return {
        "start": [float(v) for v in spec.start],
        "end": [float(v) for v in spec.end],
        "surfaces": [
            {
                "kind": s.kind.value,
                "anchor": [float(v) for v in s.anchor],
                "basis": [[float(v) for v in row] for row in s.basis],
            }
            for s in spec.surfaces
        ],
    }


def scene_from_dict(doc: dict) -> PathSpec:
    surfaces = []
    for s in doc.get("surfaces", []):
        kind = SurfaceKind(s["kind"])
        surfaces.append(
            Surface(basis=np.asarray(s["basis"], dtype=float), anchor=s["anchor"], kind=kind)
        )
    return PathSpec(start=doc["start"], end=doc["end"], surfaces=tuple(surfaces))


def save_scenes(specs: Sequence[PathSpec], fileobj) -> None:
    yaml.safe_dump_all([scene_to_dict(s) for s in specs], fileobj, sort_keys=False)


# libyaml's parser where PyYAML was built with it; the constructor, and so
# every parsed value, is the pure-Python SafeLoader's either way.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenes(fileobj) -> list[PathSpec]:
    """The scenes of a YAML scene file, one per non-empty document.

    Raises SceneFileError, naming the document (counted from 0), when the
    file is not YAML or a document does not describe a valid scene.
    """
    specs = []
    index = 0
    try:
        for doc in yaml.load_all(fileobj, Loader=_SAFE_LOADER):
            if doc:
                if not isinstance(doc, dict):
                    raise TypeError(f"expected a mapping, got {type(doc).__name__}")
                specs.append(scene_from_dict(doc))
            index += 1
    except KeyError as exc:
        raise SceneFileError(f"scene file document {index}: missing key {exc}") from exc
    except (yaml.YAMLError, TypeError, ValueError, FermatPathError) as exc:
        raise SceneFileError(f"scene file document {index}: {exc}") from exc
    return specs


# ---------------------------------------------------------------------------
# Scene generation


def _kind_sequence(rng, n: int, kinds: Kinds) -> list[SurfaceKind]:
    if kinds is Kinds.REFLECTIONS:
        return [SurfaceKind.PLANE] * n
    if kinds is Kinds.DIFFRACTIONS:
        return [SurfaceKind.EDGE] * n
    first = SurfaceKind.PLANE if rng.integers(2) == 0 else SurfaceKind.EDGE
    other = SurfaceKind.EDGE if first is SurfaceKind.PLANE else SurfaceKind.PLANE
    return [first if i % 2 == 0 else other for i in range(n)]


def _unit_orthogonal(rng, q: np.ndarray) -> np.ndarray:
    """A random unit vector orthogonal to the unit vector q (rejection-sampled)."""
    while True:
        r = rng.normal(size=3)
        v = r - r.dot(q) * q
        nv = norm3(v)
        if nv > 1e-6:
            return v / nv


def _gen_one(rng, n: int, kinds: Kinds) -> PathSpec:
    """One random scene; every draw and every rounding fixed by the generator's stream.

    The waypoint checks run on (k, 3) arrays, but each norm is still a BLAS
    dot per vector (`row_norms`, `norm3`): a norm that summed the squares
    any other way would round differently and, near a threshold, accept a
    different scene.
    """
    half = BOX_SIDE / 2.0
    while True:
        start = rng.uniform(-half, half, 3)
        end = rng.uniform(-half, half, 3)
        dist = norm3(end - start)
        if dist > _MIN_ENDPOINT_DIST:
            break
    chord = (end - start) / dist
    kind_seq = _kind_sequence(rng, n, kinds)
    # Planes (and, in mixed scenes, edges) need a genuine turn at their
    # waypoint so the stationarity construction below is well posed.
    turns = kinds is not Kinds.DIFFRACTIONS
    along = start + (np.arange(1, n + 1) / (n + 1))[:, None] * (end - start)

    for _ in range(1000):
        stations = along + rng.uniform(-LATERAL_JITTER, LATERAL_JITTER, (n, 3))
        if not (
            (row_norms(stations - start) > ENDPOINT_EXCLUSION).all()
            and (row_norms(stations - end) > ENDPOINT_EXCLUSION).all()
        ):
            continue
        poly = np.concatenate([start[None], stations, end[None]])
        seg = poly[1:] - poly[:-1]
        seg_len = row_norms(seg)
        if (seg_len < ENDPOINT_EXCLUSION).any():
            continue
        if turns:
            # bend[i] = u_in - u_out at waypoint i, from the unit segments.
            units = seg / seg_len[:, None]
            bend = units[:-1] - units[1:]
            bend_len = row_norms(bend)
            if (bend_len < _MIN_TURN).any():
                continue
            bend /= bend_len[:, None]
        break
    else:
        raise RuntimeError("scene generation failed to place waypoints")

    surfaces = []
    for i, kind in enumerate(kind_seq):
        p = stations[i]
        if kind is SurfaceKind.PLANE:
            # Mirror normal along u_in - u_out: the waypoint is specular.
            e1 = _unit_orthogonal(rng, bend[i])
            surfaces.append(make_plane(p, e1, cross3(bend[i], e1)))
        elif kinds is Kinds.MIXED:
            # Make the waypoint polyline stationary at the edge too:
            # directions orthogonal to u_in - u_out keep the diffraction
            # point at the waypoint, so mixed scenes stay smooth at the
            # optimum (infinite planes would otherwise often drag the
            # solution onto a neighbouring edge, a nonsmooth kink).
            surfaces.append(make_edge(p, _unit_orthogonal(rng, bend[i])))
        else:
            while True:
                d = rng.normal(size=3)
                nd = norm3(d)
                if nd > 1e-12:
                    d = d / nd
                    if abs(d.dot(chord)) < _MAX_EDGE_CHORD_ALIGN:
                        break
            surfaces.append(make_edge(p, d))
    return PathSpec(start=start, end=end, surfaces=tuple(surfaces))


def gen_scenes(seed: int, n: int, kinds: Kinds, batch: int) -> list[PathSpec]:
    """Deterministic batch of random scenes with n interactions each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    kind_code = list(Kinds).index(kinds)
    rng = np.random.default_rng([int(seed), int(n), kind_code])
    return [_gen_one(rng, n, kinds) for _ in range(batch)]


# ---------------------------------------------------------------------------
# Benchmark runs


def _interaction_points(sc: BatchScene, T) -> np.ndarray:
    return embed_batch(sc.astype(np.float64), np.asarray(T, dtype=np.float64))[:, 1:-1]


def _run_solver(solver: str, sc: BatchScene, T0, config: BenchConfig):
    """One timed execution; returns (points, fp_iters_used)."""
    if solver == "image":
        return image_points_batch(sc), 0
    if solver == "gd":
        opts = SolveOptions(iterations=config.iterations, precision=config.precision)
        T, _ = _gd_kernel(sc, T0, opts)
        return _interaction_points(sc, T), 0
    if solver == "newton":
        opts = SolveOptions(iterations=config.iterations, precision=config.precision)
        T, _ = _newton_kernel(sc, T0, opts)
        return _interaction_points(sc, T), 0
    fp = 64 if solver == "ours-64" else config.fixed_point_iters
    opts = SolveOptions(
        iterations=config.iterations, fixed_point_iters=fp, precision=config.precision
    )
    T, _, _ = _bfgs_kernel(sc, T0, opts)
    return _interaction_points(sc, T), fp


def run_bench(config: BenchConfig, timing_reps: int = 5) -> list[BenchRecord]:
    """Run the error-vs-time benchmark and return one record per (solver, n).

    A solver's FermatPathError propagates to the caller.
    """
    cells = {}
    for n in config.n_range:
        specs = gen_scenes(config.seed, n, config.kinds, config.batch)
        sc = BatchScene.from_specs(specs)
        T0 = stack_params(specs, [init_params(s) for s in specs])
        truth_T, converged = reference_solve_batch(specs, list(T0))
        if not np.all(converged):
            raise NoConvergence(
                f"reference solve missed its tolerance on {np.count_nonzero(~converged)}"
                f" of {len(specs)} scenes at n={n}"
            )
        truth_pts = _interaction_points(sc, truth_T)
        cells[n] = (sc, T0, truth_pts)

    records = []
    for solver in config.solvers:
        for n in config.n_range:
            sc, T0, truth_pts = cells[n]
            pts, fp = _run_solver(solver, sc, T0, config)  # warm-up + result
            times = []
            for _ in range(timing_reps):
                t0 = time.perf_counter()
                _run_solver(solver, sc, T0, config)
                times.append(time.perf_counter() - t0)
            err = float(np.mean(np.linalg.norm(pts - truth_pts, axis=2)))
            wall_ms = 1e3 * float(np.median(times))
            records.append(
                BenchRecord(
                    solver=solver,
                    n=n,
                    kinds=config.kinds.value,
                    d=2,
                    iterations=0 if solver == "image" else config.iterations,
                    fp_iters=fp,
                    precision=config.precision.value,
                    mean_error=err,
                    wall_time_ms=wall_ms,
                )
            )
    return records


# ---------------------------------------------------------------------------
# Gradient checks


# Central-difference step of the oracle re-solves, and the largest relative
# error between the implicit VJP and that oracle that `grad_check` passes.
FD_STEP = 1e-5
GRAD_CHECK_TOL = 1e-3


@dataclass(frozen=True)
class GradCheckReport:
    count: int  # instances checked; fewer than requested fails the check
    vjp_max_rel_error: float
    envelope_max_rel_error: float
    tolerance: float
    passed: bool


def _feasible_coords(spec: PathSpec):
    """Perturbable scene coordinates: active basis entries, anchors, endpoints.

    Inert edge basis columns are excluded; perturbing them changes the
    surface class itself, so no derivative is defined there.
    """
    coords = []
    for i, s in enumerate(spec.surfaces):
        for col in range(2):
            if s.active[col]:
                for row in range(3):
                    coords.append(("basis", i, row, col))
        for row in range(3):
            coords.append(("anchor", i, row))
    for row in range(3):
        coords.append(("start", row))
    for row in range(3):
        coords.append(("end", row))
    return coords


def _perturbed_spec(spec: PathSpec, coord, h: float) -> PathSpec:
    start = np.array(spec.start)
    end = np.array(spec.end)
    surfaces = list(spec.surfaces)
    if coord[0] == "start":
        start[coord[1]] += h
    elif coord[0] == "end":
        end[coord[1]] += h
    else:
        _, i, *idx = coord
        s = surfaces[i]
        basis = np.array(s.basis)
        anchor = np.array(s.anchor)
        if coord[0] == "basis":
            basis[idx[0], idx[1]] += h
        else:
            anchor[idx[0]] += h
        surfaces[i] = Surface(basis=basis, anchor=anchor, kind=s.kind)
    return PathSpec(start=start, end=end, surfaces=tuple(surfaces))


def _scene_grad_entry(sg, coord) -> float:
    if coord[0] == "start":
        return float(sg.start[coord[1]])
    if coord[0] == "end":
        return float(sg.end[coord[1]])
    if coord[0] == "anchor":
        return float(sg.anchor[coord[1], coord[2]])
    return float(sg.basis[coord[1], coord[2], coord[3]])


def _fd_resolve_vjps(specs: Sequence[PathSpec], vs) -> list[np.ndarray]:
    """v^T dT*/d(theta) per spec, by central differences of reference re-solves.

    Every perturbed scene of every spec is re-solved in one batch; the
    entries follow `_feasible_coords` of each spec.
    """
    coords = [_feasible_coords(spec) for spec in specs]
    perturbed = [
        _perturbed_spec(spec, c, sign * FD_STEP)
        for spec, cs in zip(specs, coords)
        for c in cs
        for sign in (+1, -1)
    ]
    T, converged = reference_solve_batch(perturbed)
    if not np.all(converged):
        raise NoConvergence(
            f"oracle re-solve missed its tolerance on {np.count_nonzero(~converged)}"
            f" of {len(perturbed)} perturbed scenes"
        )
    out = []
    pos = 0
    for v, cs in zip(vs, coords):
        v = np.asarray(v, dtype=float)
        fd = np.empty(len(cs))
        for j in range(len(cs)):
            dT = (T[pos] - T[pos + 1]) / (2.0 * FD_STEP)
            fd[j] = float(np.sum(v * dT))
            pos += 2
        out.append(fd)
    return out


def fd_resolve_vjp(spec: PathSpec, v) -> np.ndarray:
    """Oracle: v^T dT*/d(theta) by re-solving at theta +/- FD_STEP per coordinate."""
    return _fd_resolve_vjps([spec], [v])[0]


def grad_check(seed: int, n: int, kinds: Kinds, count: int) -> GradCheckReport:
    """Oracle-equivalence suite for implicit differentiation on random scenes.

    All finite-difference re-solves for a batch of instances run as one
    reference solve, which amortizes the per-iteration kernel overhead.
    An instance whose reference solve misses its tolerance cannot be
    checked; the report counts only the instances checked and fails when
    any was left out.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    specs = gen_scenes(seed, n, kinds, count)
    Tstars, converged = reference_solve_batch(specs)
    rng = np.random.default_rng([int(seed), 0xD1FF])

    live = [i for i in range(count) if converged[i]]
    vs = [rng.normal(size=(n, 2)) * specs[i].active_mask for i in live]
    fds = _fd_resolve_vjps([specs[i] for i in live], vs) if live else []

    # With nothing checked there is no error to report.
    vjp_max = env_max = 0.0 if live else float("nan")
    for i, v, fd in zip(live, vs, fds):
        spec, Tstar = specs[i], Tstars[i]
        sg = vjp_solution(spec, Tstar, v)
        analytic = np.array([_scene_grad_entry(sg, c) for c in _feasible_coords(spec)])
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
        vjp_max = max(vjp_max, rel)

        partial = length_param_gradient(spec, Tstar)
        g = gradient(spec, Tstar)
        corr = vjp_solution(spec, Tstar, g)
        gap = np.linalg.norm(corr.flat()) / (1.0 + partial.norm())
        env_max = max(env_max, float(gap))
    return GradCheckReport(
        count=len(live),
        vjp_max_rel_error=vjp_max,
        envelope_max_rel_error=env_max,
        tolerance=GRAD_CHECK_TOL,
        passed=len(live) == count and vjp_max <= GRAD_CHECK_TOL and env_max <= 1e-6,
    )
