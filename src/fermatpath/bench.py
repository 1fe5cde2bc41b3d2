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
import io
import re
import time
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence, get_type_hints

import numpy as np
import yaml

from .baselines import (
    image_points_batch,
    _gd_kernel,
    _newton_kernel,
    _reference_kernel,
)
from .batching import BatchScene, embed_batch
from .errors import FermatPathError, NoConvergence, SceneFileError
from .geometry import (
    MAX_INTERACTIONS,
    PathSpec,
    Surface,
    SurfaceKind,
    cross_rows,
    norm3,
    row_norms,
    segment_floor,
    specs_from_arrays,
)
from .implicit_diff import vjp_solution
from .objective import SceneGradient, gradient, length_param_gradient
from .solver import Precision, SolveOptions, _bfgs_kernel, _check_count, init_params_batch


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
        _check_count("seed", self.seed, 0)
        _check_count("batch", self.batch, 1)
        if not self.n_range:
            raise ValueError("n_range names no interaction count")
        for n in self.n_range:
            _check_count("interaction counts", n, 1, MAX_INTERACTIONS)
        object.__setattr__(self, "kinds", Kinds(self.kinds))
        # The solve options' own checks, made before any scene is generated.
        opts = SolveOptions(self.iterations, self.fixed_point_iters, self.precision)
        object.__setattr__(self, "precision", opts.precision)
        if not self.solvers:
            raise ValueError("solvers names no solver")
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


# One CSV column per field, in field order; floats, numpy's included, are
# written as `repr(float(v))`, which round-trips them exactly.
CSV_HEADER = [f.name for f in fields(BenchRecord)]
_COLUMN_TYPES = [get_type_hints(BenchRecord)[name] for name in CSV_HEADER]


def write_records(records: Sequence[BenchRecord], fileobj) -> None:
    w = csv.writer(fileobj)
    w.writerow(CSV_HEADER)
    for r in records:
        values = (getattr(r, name) for name in CSV_HEADER)
        w.writerow(
            [repr(float(v)) if kind is float else v for v, kind in zip(values, _COLUMN_TYPES)]
        )


def read_records(fileobj) -> list[BenchRecord]:
    rows = csv.reader(fileobj)
    header = next(rows, None)
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
        surfaces.append(Surface(basis=s["basis"], anchor=s["anchor"], kind=kind))
    return PathSpec(start=doc["start"], end=doc["end"], surfaces=tuple(surfaces))


def save_scenes(specs: Sequence[PathSpec], fileobj) -> None:
    yaml.safe_dump_all([scene_to_dict(s) for s in specs], fileobj, sort_keys=False)


# The loader of every file `_written_documents` does not take: libyaml's
# parser where PyYAML was built with it. The constructor, and so every value
# it gives, is the pure-Python SafeLoader's either way.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# `save_scenes`' block layout, one match per document head and per surface.
# Each value is a plain scalar that YAML 1.1's first implicit resolver for "-"
# and the digits tags as a float, for which `SafeConstructor.construct_yaml_float`
# returns sign * float(rest): bitwise float(value), -0.0 included.
_FLOAT = r"(-?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)\n"
_POINT = ("- " + _FLOAT) * 3
_HEAD = re.compile("start:\n" + _POINT + "end:\n" + _POINT + r"surfaces:( \[\])?\n")
_SURFACE = re.compile(
    "- kind: (edge|plane)\n  anchor:\n" + ("  - " + _FLOAT) * 3
    + "  basis:\n" + ("  - - " + _FLOAT + "    - " + _FLOAT) * 3
)


def _written_documents(text: str) -> list[dict] | None:
    """The documents of `text` if the layout matches it from start to end, else None.

    Each is the dict `yaml.load_all` gives: the layout's keys, kinds and
    floats have no other reading. A bare "surfaces:" would be null, so it
    must open at least one surface.
    """
    docs, pos = [], 0
    while head := _HEAD.match(text, pos):
        *ends, empty = head.groups()
        ends = list(map(float, ends))
        surfaces = []
        pos = head.end()
        while empty is None and (surface := _SURFACE.match(text, pos)):
            kind, *values = surface.groups()
            v = list(map(float, values))
            surfaces.append({"kind": kind, "anchor": v[:3], "basis": [v[3:5], v[5:7], v[7:]]})
            pos = surface.end()
        if empty is None and not surfaces:
            return None
        docs.append({"start": ends[:3], "end": ends[3:], "surfaces": surfaces})
        if pos == len(text):
            return docs
        if not text.startswith("---\n", pos):
            return None
        pos += 4
    return None


def _scene_documents(fileobj):
    """The documents of a scene file, as `yaml.load_all(fileobj, yaml.SafeLoader)` gives them.

    Reads the whole file. Text that `_written_documents` takes needs no
    parser, and its documents come back as a list; anything else, bytes
    among it, goes whole to `yaml.load_all` under the file's name, so its
    values, errors and error marks are PyYAML's.
    """
    data = fileobj.read()
    docs = _written_documents(data) if isinstance(data, str) else None
    if docs is None:
        stream = (io.StringIO if isinstance(data, str) else io.BytesIO)(data)
        stream.name = getattr(fileobj, "name", "<file>")
        docs = yaml.load_all(stream, Loader=_SAFE_LOADER)
    return docs


def _written_scenes(docs: list[dict]) -> list[PathSpec]:
    """The scenes of `_written_documents`' documents, in order: one `specs_from_arrays`
    call per interaction count."""
    groups = {}
    for i, doc in enumerate(docs):
        groups.setdefault(len(doc["surfaces"]), []).append(i)
    specs = [None] * len(docs)
    for n, members in groups.items():
        surfaces = [s for i in members for s in docs[i]["surfaces"]]
        B = len(members)
        built = specs_from_arrays(
            [docs[i]["start"] for i in members],
            [docs[i]["end"] for i in members],
            np.reshape([v for s in surfaces for row in s["basis"] for v in row], (B, n, 3, 2)),
            np.reshape([s["anchor"] for s in surfaces], (B, n, 3)),
            np.reshape([s["kind"] == "plane" for s in surfaces], (B, n)),
        )
        for i, spec in zip(members, built):
            specs[i] = spec
    return specs


def load_scenes(fileobj) -> list[PathSpec]:
    """The scenes of a YAML scene file, one per non-empty document.

    A file in `save_scenes`' own layout is read without a YAML parser, any
    other by `yaml.load_all`; both give the documents PyYAML's SafeLoader
    gives (`_scene_documents`). The documents of the layout hold Python
    floats only, and their scenes are built from stacked arrays
    (`_written_scenes`). Every other document, and every document of a
    layout file that any check refuses, is built by `scene_from_dict`, so its
    errors are the scalar constructors'. Raises SceneFileError, naming the
    document (counted from 0), when the file is not YAML or a document does
    not describe a valid scene. The file is read whole first, so a text file
    that does not decode fails at document 0.
    """
    specs = []
    index = 0
    try:
        docs = _scene_documents(fileobj)
        if isinstance(docs, list):
            try:
                return _written_scenes(docs)
            except FermatPathError:
                pass  # the loop below raises the first refused document's error
        for doc in docs:
            if doc is not None:
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


def _gen_one(rng, n: int, kinds: Kinds):
    """One random scene's draws: (start, end, anchor, normal, direction, plane).

    start and end are 3-vectors; anchor, normal and direction are (n, 3), and
    plane holds n bools. A plane spans its direction and normal x direction
    (`gen_scenes`); an edge runs along its direction, and in a
    diffraction-only scene the normals are zero. Every draw and every
    rounding is fixed by the generator's stream. The waypoint checks run on
    (k, 3) arrays, but each norm is still a BLAS dot per vector (`row_norms`,
    `norm3`): a norm that summed the squares any other way would round
    differently and, near a threshold, accept a different scene.
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
    normal = bend if turns else np.zeros((n, 3))

    direction = np.empty((n, 3))
    for i, kind in enumerate(kind_seq):
        if kind is SurfaceKind.PLANE or kinds is Kinds.MIXED:
            # A plane's normal is u_in - u_out, so the waypoint is specular.
            # A mixed scene's edge runs orthogonal to u_in - u_out, which
            # keeps the diffraction point at the waypoint: mixed scenes stay
            # smooth at the optimum (infinite planes would otherwise often
            # drag the solution onto a neighbouring edge, a nonsmooth kink).
            direction[i] = _unit_orthogonal(rng, normal[i])
        else:
            while True:
                d = rng.normal(size=3)
                nd = norm3(d)
                if nd > 1e-12:
                    d = d / nd
                    if abs(d.dot(chord)) < _MAX_EDGE_CHORD_ALIGN:
                        break
            direction[i] = d
    plane = [kind is SurfaceKind.PLANE for kind in kind_seq]
    return start, end, stations, normal, direction, plane


def gen_scenes(seed: int, n: int, kinds: Kinds, batch: int) -> list[PathSpec]:
    """Deterministic batch of random scenes with n interactions each.

    Each member's draws come from `_gen_one`, in turn from one stream, so the
    first k members are the same whatever the batch size. Their stacked
    arrays are checked and built by one `specs_from_arrays` call.
    """
    _check_count("n", n, 1, MAX_INTERACTIONS)
    _check_count("batch", batch, 1)
    kinds = Kinds(kinds)
    kind_code = list(Kinds).index(kinds)
    rng = np.random.default_rng([int(seed), int(n), kind_code])
    # Stacked as drawn, so that no member's draws outlive it.
    start, end = np.empty((batch, 3)), np.empty((batch, 3))
    anchor, normal, direction = np.empty((3, batch, n, 3))
    plane = np.empty((batch, n), dtype=bool)
    for b in range(batch):
        start[b], end[b], anchor[b], normal[b], direction[b], plane[b] = _gen_one(rng, n, kinds)
    basis = np.zeros((batch, n, 3, 2))
    basis[..., 0] = direction
    basis[..., 1] = np.where(plane[..., None], cross_rows(normal, direction), 0.0)
    return specs_from_arrays(start, end, basis, anchor, plane)


# ---------------------------------------------------------------------------
# Benchmark runs


def _interaction_points(sc: BatchScene, T) -> np.ndarray:
    """(3, n, B) interaction points of a (B, n, 2) solution."""
    return embed_batch(sc.astype(np.float64), np.asarray(T, dtype=np.float64).T)[:, 1:-1]


def _run_solver(solver: str, sc: BatchScene, T0, config: BenchConfig):
    """One timed execution; returns (points, fp_iters_used)."""
    if solver == "image":
        return image_points_batch(sc), 0
    if solver == "gd":
        opts = SolveOptions(iterations=config.iterations, precision=config.precision)
        T = _gd_kernel(sc, T0, opts)[0]
        return _interaction_points(sc, T), 0
    if solver == "newton":
        opts = SolveOptions(iterations=config.iterations, precision=config.precision)
        T = _newton_kernel(sc, T0, opts)[0]
        return _interaction_points(sc, T), 0
    fp = 64 if solver == "ours-64" else config.fixed_point_iters
    opts = SolveOptions(
        iterations=config.iterations, fixed_point_iters=fp, precision=config.precision
    )
    T = _bfgs_kernel(sc, T0, opts)[0]
    return _interaction_points(sc, T), fp


def run_bench(config: BenchConfig, timing_reps: int = 5) -> list[BenchRecord]:
    """Run the error-vs-time benchmark and return one record per (solver, n).

    A solver's FermatPathError propagates to the caller.
    """
    _check_count("timing_reps", timing_reps, 1)
    cells = {}
    for n in config.n_range:
        specs = gen_scenes(config.seed, n, config.kinds, config.batch)
        sc = BatchScene.from_specs(specs)
        T0 = init_params_batch(sc)
        truth_T, converged = _reference_kernel(sc, T0)
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
            err = float(np.mean(np.linalg.norm(pts - truth_pts, axis=0)))
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


def _scene_vector(spec: PathSpec):
    """(x, mask): the spec's scene in `SceneGradient.flat()` order, and its perturbable entries.

    Inert edge basis columns are masked out; perturbing them changes the
    surface class itself, so no derivative is defined there.
    """
    x = SceneGradient(spec.basis_tensor, spec.anchor_tensor, spec.start, spec.end).flat()
    active = np.broadcast_to(spec.active_mask[:, None, :], spec.basis_tensor.shape)
    free = np.ones_like(spec.anchor_tensor, dtype=bool), np.ones(3, bool), np.ones(3, bool)
    return x, SceneGradient(active, *free).flat()


def _perturbed_batch(specs: Sequence[PathSpec]) -> tuple[BatchScene, np.ndarray]:
    """Each +-FD_STEP shift of each entry `_scene_vector` selects, in one batch: (sc, owner).

    Rows 2r and 2r + 1 shift entry r, of spec `owner[r]`, by +FD_STEP and
    -FD_STEP; each row keeps its spec's active mask and gets its own floor.
    """
    n = specs[0].n
    xs, masks = zip(*map(_scene_vector, specs))
    owner, entry = np.nonzero(np.array(masks))
    rows = np.repeat(owner, 2)
    x = np.array(xs)[rows]
    x[np.arange(rows.size), np.repeat(entry, 2)] += np.tile([FD_STEP, -FD_STEP], owner.size)
    b, a, s, e = np.split(x, [6 * n, 9 * n, 9 * n + 3], axis=1)
    basis = np.ascontiguousarray(b.reshape(-1, n, 3, 2).transpose(2, 3, 1, 0))
    anchor = np.ascontiguousarray(a.reshape(-1, n, 3).T)
    start, end = np.ascontiguousarray(s.T), np.ascontiguousarray(e.T)
    active = np.take(np.concatenate([spec.batch.active for spec in specs], axis=-1), rows, axis=-1)
    return BatchScene(basis, anchor, start, end, segment_floor(start, end), active), owner


def _fd_resolve_vjps(specs: Sequence[PathSpec], vs) -> list[np.ndarray | None]:
    """v^T dT*/d(theta) per spec, by central differences of reference re-solves.

    Every perturbed scene of every spec (the specs share n) is a row of one
    batch (`_perturbed_batch`) and of one reference solve; the entries are
    those `_scene_vector`'s mask selects. A spec any of whose re-solves
    missed its tolerance gets None.
    """
    sc, owner = _perturbed_batch(specs)
    T, converged = _reference_kernel(sc, init_params_batch(sc))
    dT = (T[0::2] - T[1::2]) / (2.0 * FD_STEP)
    v = np.array(vs, dtype=float)[owner]
    fd = (v * dT).reshape(owner.size, -1).sum(axis=1)
    ok = converged.reshape(-1, 2).all(axis=1)
    bounds = np.cumsum(np.bincount(owner, minlength=len(specs)))[:-1]
    return [f if c.all() else None for f, c in zip(np.split(fd, bounds), np.split(ok, bounds))]


def fd_resolve_vjp(spec: PathSpec, v) -> np.ndarray:
    """Oracle: v^T dT*/d(theta) by re-solving at theta +/- FD_STEP per coordinate.

    The entries are `SceneGradient.flat()`'s, less the inert basis columns.
    Raises NoConvergence when a re-solve misses its tolerance.
    """
    fd = _fd_resolve_vjps([spec], [v])[0]
    if fd is None:
        raise NoConvergence("oracle re-solve missed its tolerance on a perturbed scene")
    return fd


def grad_check(seed: int, n: int, kinds: Kinds, count: int) -> GradCheckReport:
    """Oracle-equivalence suite for implicit differentiation on random scenes.

    The instances' solutions come from one reference solve, and all their
    finite-difference re-solves from a second, on one batch built from the
    scene arrays (`_fd_resolve_vjps`); batching amortizes the per-iteration
    kernel overhead. An instance whose reference solve, or any of whose
    re-solves, misses its tolerance cannot be checked; the report counts
    only the instances checked and fails when any was left out.
    """
    _check_count("count", count, 1)
    specs = gen_scenes(seed, n, kinds, count)
    sc = BatchScene.from_specs(specs)
    Tstars, converged = _reference_kernel(sc, init_params_batch(sc))
    rng = np.random.default_rng([int(seed), 0xD1FF])

    live = [i for i in range(count) if converged[i]]
    vs = [rng.normal(size=(n, 2)) * specs[i].active_mask for i in live]
    fds = _fd_resolve_vjps([specs[i] for i in live], vs) if live else []
    checked = [(i, v, fd) for i, v, fd in zip(live, vs, fds) if fd is not None]

    # With nothing checked there is no error to report.
    vjp_max = env_max = 0.0 if checked else float("nan")
    for i, v, fd in checked:
        spec, Tstar = specs[i], Tstars[i]
        sg = vjp_solution(spec, Tstar, v)
        analytic = sg.flat()[_scene_vector(spec)[1]]
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
        vjp_max = max(vjp_max, rel)

        partial = length_param_gradient(spec, Tstar)
        g = gradient(spec, Tstar)
        corr = vjp_solution(spec, Tstar, g)
        gap = np.linalg.norm(corr.flat()) / (1.0 + partial.norm())
        env_max = max(env_max, float(gap))
    return GradCheckReport(
        count=len(checked),
        vjp_max_rel_error=vjp_max,
        envelope_max_rel_error=env_max,
        tolerance=GRAD_CHECK_TOL,
        passed=len(checked) == count and vjp_max <= GRAD_CHECK_TOL and env_max <= 1e-6,
    )
