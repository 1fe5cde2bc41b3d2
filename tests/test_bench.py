"""Scene generation, file formats, benchmark harness, and the CLI."""

import hashlib
import io
import math
import os
import re
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from fermatpath import (
    BenchConfig,
    Kinds,
    FermatPathError,
    NoConvergence,
    PathSpec,
    Precision,
    SceneFileError,
    ShapeMismatch,
    SingularHessian,
    SolveOptions,
    Surface,
    SurfaceKind,
    bfgs_solve,
    gen_scenes,
    grad_check,
    init_params,
    load_scenes,
    read_records,
    run_bench,
    save_scenes,
    write_records,
)
from fermatpath import bench, cli, implicit_diff, solver
from fermatpath.batching import BatchScene, path_length_batch
from fermatpath.bench import BenchRecord, CSV_HEADER, GradCheckReport
from fermatpath.cli import main
from fermatpath.geometry import MAX_INTERACTIONS

from _oracles import perturbed_specs, stopped_schedule_bfgs


def _reference_missing(monkeypatch, members, call=0):
    """Make reference solve number `call` (the first by default) report `members` as unconverged."""
    real = bench._reference_kernel
    calls = []

    def _reference_kernel(sc, T0):
        T, converged = real(sc, T0)
        if len(calls) == call:
            converged = converged.copy()
            converged[members] = False
        calls.append(sc.size)
        return T, converged

    monkeypatch.setattr(bench, "_reference_kernel", _reference_kernel)
    return calls


class TestGenScenes:
    def test_deterministic(self):
        a = gen_scenes(7, 3, Kinds.MIXED, 5)
        b = gen_scenes(7, 3, Kinds.MIXED, 5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.start, sb.start)
            assert np.array_equal(sa.basis_tensor, sb.basis_tensor)
            assert np.array_equal(sa.anchor_tensor, sb.anchor_tensor)

    def test_seed_changes_scenes(self):
        a = gen_scenes(7, 3, Kinds.MIXED, 1)[0]
        b = gen_scenes(8, 3, Kinds.MIXED, 1)[0]
        assert not np.array_equal(a.start, b.start)

    def test_kind_composition(self):
        for spec in gen_scenes(9, 4, Kinds.REFLECTIONS, 3):
            assert all(s.kind is SurfaceKind.PLANE for s in spec.surfaces)
        for spec in gen_scenes(9, 4, Kinds.DIFFRACTIONS, 3):
            assert all(s.kind is SurfaceKind.EDGE for s in spec.surfaces)
        for spec in gen_scenes(9, 4, Kinds.MIXED, 3):
            kinds = [s.kind for s in spec.surfaces]
            assert all(a is not b for a, b in zip(kinds, kinds[1:]))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            gen_scenes(0, 0, Kinds.MIXED, 1)
        with pytest.raises(ValueError):
            gen_scenes(0, 2.5, Kinds.MIXED, 1)
        with pytest.raises(ValueError):
            gen_scenes(0, True, Kinds.MIXED, 1)

    @pytest.mark.parametrize("batch", [0, -3, 2.5, True])
    def test_bad_batch(self, batch):
        with pytest.raises(ValueError):
            gen_scenes(0, 2, Kinds.MIXED, batch)

    @pytest.mark.parametrize("n", [0, MAX_INTERACTIONS + 1])
    def test_n_out_of_range_is_refused_before_any_draw(self, monkeypatch, n):
        # Beyond MAX_INTERACTIONS the surfaces were all drawn, and PathSpec refused them.
        monkeypatch.setattr(bench, "_gen_one", lambda *args: pytest.fail("a scene was drawn"))
        with pytest.raises(ValueError, match=rf"^n must be an integer in 1\.\.{MAX_INTERACTIONS}$"):
            gen_scenes(0, n, Kinds.MIXED, 1)

    def test_kinds_from_their_value(self):
        for kinds in Kinds:
            assert _scene_digest(gen_scenes(7, 3, kinds.value, 2)) == _scene_digest(
                gen_scenes(7, 3, kinds, 2)
            )
        with pytest.raises(ValueError):
            gen_scenes(7, 3, "bogus", 2)


def _scene_digest(specs) -> str:
    h = hashlib.sha256()
    for s in specs:
        for a in (s.start, s.end, s.basis_tensor, s.anchor_tensor):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        h.update(",".join(x.kind.value for x in s.surfaces).encode())
    return h.hexdigest()


class TestGeneratorStream:
    """The generated scenes are pinned bit for bit across versions.

    The benchmark compares runs on the digests of their inputs, so every
    draw and every rounding of `gen_scenes` is part of its contract. The
    digests were recorded when the generator still called `np.linalg.norm`
    and `np.cross`, so they also show that its 3-vector helpers changed no
    bit.
    """

    @pytest.mark.parametrize(
        "seed, n, kinds, batch, digest",
        [
            (0, 1, Kinds.REFLECTIONS, 40, "3e449e17174b19ca4cd2bd50691fbb1abef46f10baf1bf1459f99cd773cc213a"),
            (7, 5, Kinds.MIXED, 40, "0843cb6deeb44135957fe6329430817ab17c5e0316efe44fa9105f5a0e60b0d9"),
            (201, 5, Kinds.MIXED, 1000, "3a343ddf41543b3caf20e536d77b74c1a7ef58c6c4d0eeeec2eafafe4c6d189d"),
            (3, 64, Kinds.DIFFRACTIONS, 10, "71e4b77095220d44e617f259cc6cb0642ff35d82e756fa8a5fd79ddedecadc9c"),
        ],
    )
    def test_scene_arrays(self, seed, n, kinds, batch, digest):
        assert _scene_digest(gen_scenes(seed, n, kinds, batch)) == digest

    @pytest.mark.parametrize("n", [1, 5, MAX_INTERACTIONS])
    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_a_member_does_not_depend_on_its_batch(self, kinds, n):
        # gen_scenes checks and builds the whole stack at once.
        few, many = gen_scenes(11, n, kinds, 3), gen_scenes(11, n, kinds, 50)[:3]
        assert _scene_digest(few) == _scene_digest(many)
        for a, b in zip(few, many):
            for f in fields(BatchScene):
                assert getattr(a.batch, f.name).tobytes() == getattr(b.batch, f.name).tobytes()

    def test_scene_file_text(self):
        buf = io.StringIO()
        save_scenes(gen_scenes(7, 5, Kinds.MIXED, 40), buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == "afc99188ff2c1789cfa841d73be1a5578f882a23b7e1288b9ebbf8216524c8d8"


class TestSceneFiles:
    def test_yaml_roundtrip_exact(self):
        specs = gen_scenes(10, 2, Kinds.MIXED, 4)
        buf = io.StringIO()
        save_scenes(specs, buf)
        buf.seek(0)
        back = load_scenes(buf)
        assert len(back) == len(specs)
        for a, b in zip(specs, back):
            assert np.array_equal(a.start, b.start)
            assert np.array_equal(a.end, b.end)
            assert np.array_equal(a.basis_tensor, b.basis_tensor)
            assert np.array_equal(a.anchor_tensor, b.anchor_tensor)
            assert [s.kind for s in a.surfaces] == [s.kind for s in b.surfaces]

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_load_equals_pure_python_loader_bitwise(self, n):
        buf = io.StringIO()
        save_scenes(gen_scenes(12, n, Kinds.MIXED, 3), buf)
        text = buf.getvalue()
        got = load_scenes(io.StringIO(text))
        want = [bench.scene_from_dict(d) for d in yaml.load_all(text, Loader=yaml.SafeLoader)]
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            for x, y in [(a.start, b.start), (a.end, b.end), (a.basis_tensor, b.basis_tensor),
                         (a.anchor_tensor, b.anchor_tensor)]:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert [s.kind for s in a.surfaces] == [s.kind for s in b.surfaces]


_PLANE = "- kind: plane\n  anchor: [0.0, 0.0, 0.0]\n  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n"
_SCENE = "start: [0.0, 0.0, 1.0]\nend: [1.0, 0.0, 1.0]\nsurfaces:\n" + _PLANE
_ENDS = "start: [0.0, 0.0, 1.0]\nend: [1.0, 0.0, 1.0]\n"

# Scene files that each use one YAML feature. Some are valid scenes, some are
# refused by the scene checks, and some are not YAML a safe loader takes.
YAML_FEATURES = {
    "flow": "{start: [0.0, -0.0, 1.0], end: [1.0, 0.0, 1.0], surfaces: [{kind: edge,"
            " anchor: [0.5, 0.0, 0.0], basis: [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}]}\n",
    "block": "start:\n- 0.0\n- -0.0\n- 1.0\nend:\n- 1.0\n- 0.0\n- 1.0\nsurfaces:\n- kind: edge\n"
             "  anchor:\n  - 0.5\n  - 0.0\n  - 0.0\n  basis:\n  - - 0.0\n    - 0.0\n"
             "  - [1.0, 0.0]\n  - [0.0, 0.0]\n",
    "comments": "# a scene\nstart: [0.0, 0.0, 1.0]  # start\n# between\nend: [1.0, 0.0, 1.0]\n"
                "surfaces:  # one\n" + _PLANE + "# end\n",
    "markers": "%YAML 1.1\n---\n" + _SCENE
               + "...\n--- {start: [0.0, 0.0, 2.0], end: [1.0, 0.0, 2.0]}\n...\n",
    "empty-documents": "---\n---\n" + _SCENE + "---\n...\n--- ~\n--- null\n",
    "anchors-and-aliases": "start: &s [0.0, 0.0, 1.0]\nend: [1.0, 0.0, &z 1.0]\nsurfaces:\n- &p\n"
                           "  kind: plane\n  anchor: &a [0.0, 0.0, 0.0]\n"
                           "  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n- *p\n",
    "scalar-alias": "start: [0.0, &z 0.0, 1.0]\nend: [1.0, *z, 1.0]\n",
    "alias-to-an-earlier-document": _SCENE + "---\nstart: *s\nend: [1.0, 0.0, 1.0]\n",
    "duplicate-anchor": "a: &x 1.0\nb: &x 2.0\n" + _SCENE,
    "explicit-tags": "start: [!!float 0, !!float '0.5', 1.0]\n"
                     "end: [!!int 1, !!float 0.0, !!float 1]\n"
                     "surfaces: !!seq\n- !!map {kind: !!str plane, anchor: [0.0, 0.0, 0.0],"
                     " basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}\n",
    "non-specific-tags": "start: [! 0.5, ! 0.0, 1.0]\nend: ! [1.0, 0.0, 1.0]\n",
    "quoted-numbers": "start: ['0.5', \"0.0\", 1.0]\nend: [1.0, 0.0, 1.0]\n",
    "1e5-is-a-string": "start: [1e5, 0.0, 0.0]\nend: [1.0, 0.0, 1.0]\n",
    "unsigned-exponent-is-a-string": "start: [1.0e5, 0.0, 0.0]\nend: [1.0, 0.0, 1.0]\n",
    "float-forms": "start: [+1.5, .5, -1.e-3]\nend: [1.0E+5, 1_000.5, 1:30.5]\n"
                   "x: [10., -0.0e+0, 190:20:30.15, 1.0e-400, 1.0e+400]\n",
    "octal-hex-underscore-sexagesimal-ints": "start: [017, 0x1F, 1_000]\nend: [1:30, 0b101, -0]\n",
    "ints-and-floats": "start: [0, 0, 1]\nend: [1, 0, 1.5]\n",
    "inf": "start: [.inf, 0.0, 0.0]\nend: [1.0, 0.0, 1.0]\n",
    "nan": "start: [.nan, -.inf, .NaN]\nend: [1.0, 0.0, 1.0]\n",
    "duplicate-keys": "start: [9.0, 9.0, 9.0]\nend: [1.0, 0.0, 1.0]\nstart: [0.0, 0.0, 1.0]\n",
    "merge-key": "base: &b {kind: plane, anchor: [0.0, 0.0, 0.0]}\n" + _ENDS
                 + "surfaces:\n- <<: *b\n  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n",
    "merge-as-a-value": "x: <<\n" + _ENDS,
    "value-key": "=: 1.0\n" + _ENDS,
    "value-as-a-value": "x: =\n" + _ENDS,
    "complex-key": "? [1.0, 2.0]\n: x\n" + _ENDS,
    "mapping-key": "? {a: 1}\n: x\n" + _SCENE,
    "scalar-keys": "1: a\n1.5: b\ntrue: c\n~: d\n2001-12-14: e\n" + _SCENE,
    "other-scalars": "a: [yes, no, on, off, ~, null, '', 2001-12-14,"
                     " 2001-12-14t21:59:43.10-05:00]\n"
                     "b: !!binary aGVsbG8=\n" + _SCENE,
    "other-collections": "a: !!set {x, y}\nb: !!omap [{x: 1}, {y: 2}]\nc: !!pairs [{x: 1}]\n"
                         + _SCENE,
    "bools": "start: [true, 0, 0]\nend: [1.0, 0.0, 1.0]\n",
    "bad-int": "start: [!!int abc, 0.0, 0.0]\nend: [1.0, 0.0, 1.0]\n",
    "bad-bool": "start: [!!bool abc, 0.0, 0.0]\nend: [1.0, 0.0, 1.0]\n",
    "bad-scalar-then-parse-error": "start: [!!int abc, 0.0, 0.0]\nend: [1.0, 0.0, 1.0\n",
    "unknown-tag": "start: !point [0.0, 0.0, 1.0]\nend: [1.0, 0.0, 1.0]\n",
    "unknown-scalar-tag": "start: [!x 0.0, 0.0, 1.0]\nend: [1.0, 0.0, 1.0]\n",
    "sequence-tag-on-a-scalar": "start: !!seq 0.0\nend: [1.0, 0.0, 1.0]\n",
    "sequence-tag-on-a-mapping": "start: !!seq {a: 1}\nend: [1.0, 0.0, 1.0]\n",
    "parse-error-in-document-2": _SCENE + "---\n" + _SCENE + "---\nstart: [0.0, 0.0, 1.0\n",
    "scanner-error": _SCENE + "---\nstart: [0.0, 0.0, 1.0]\n\tend: x\n",
    "scalar-and-list-documents": "0\n--- []\n--- hello\n",
    "empty-mapping": _SCENE + "---\n{}\n",
    "unknown-kind": _SCENE.replace("plane", "mirror"),
    "undecodable-bytes": (_SCENE + "---\n" + _ENDS).encode() + b"x: \xff\xfe\n",
}


def _loaded(load):
    """What a scene-file load gives: every array's bytes and the kinds, or the error's
    document index and cause type."""
    try:
        specs = load()
    except SceneFileError as exc:
        return int(str(exc).split(":")[0].split()[-1]), type(exc.__cause__)
    return [
        [(a.dtype, a.shape, a.tobytes()) for a in (s.start, s.end, s.basis_tensor, s.anchor_tensor)]
        + [s.kind for s in s.surfaces]
        for s in specs
    ]


def _safe_loader_scenes(stream, loader=yaml.SafeLoader):
    """The scenes `yaml.load_all` with PyYAML's pure-Python SafeLoader (or `loader`)
    gives, with the errors `load_scenes` raises."""
    specs, index = [], 0
    try:
        for doc in yaml.load_all(stream, Loader=loader):
            if doc is not None:
                if not isinstance(doc, dict):
                    raise TypeError(f"expected a mapping, got {type(doc).__name__}")
                specs.append(bench.scene_from_dict(doc))
            index += 1
    except (KeyError, yaml.YAMLError, TypeError, ValueError, FermatPathError) as exc:
        raise SceneFileError(f"scene file document {index}: {exc}") from exc
    return specs


def _stream(data):
    return io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)


class TestSceneEvents:
    """Each file loads as PyYAML's SafeLoader, composer and constructor would load it."""

    @pytest.mark.parametrize("events", ["default", "pure-python"])
    @pytest.mark.parametrize("data", YAML_FEATURES.values(), ids=YAML_FEATURES.keys())
    def test_feature_loads_as_the_safe_loader_loads_it(self, monkeypatch, data, events):
        if events == "pure-python":
            # Its plain scalars have style None where libyaml's have ''.
            monkeypatch.setattr(bench, "_SAFE_LOADER", yaml.SafeLoader)
        want = _loaded(lambda: _safe_loader_scenes(_stream(data)))
        assert _loaded(lambda: load_scenes(_stream(data))) == want

        def documents(load):
            try:
                return repr(list(load()))
            except Exception as exc:  # compared by type only
                return type(exc)

        assert documents(lambda: bench._scene_documents(_stream(data))) == documents(
            lambda: yaml.load_all(_stream(data), Loader=yaml.SafeLoader)
        )

    def test_undecodable_text_file(self, tmp_path):
        path = tmp_path / "scenes.yaml"
        path.write_bytes(YAML_FEATURES["undecodable-bytes"])
        with open(path, encoding="utf-8") as fh:
            got = _loaded(lambda: load_scenes(fh))
        with open(path, encoding="utf-8") as fh:
            assert got == _loaded(lambda: _safe_loader_scenes(fh)) == (0, UnicodeDecodeError)

    def test_a_written_scene_file_calls_no_constructor(self, tmp_path, monkeypatch):
        # `yaml.load_all` constructs each of the `deep-file` file's 2,332 nodes.
        text = Path(_deep_scene_file(tmp_path)).read_text()
        calls = []
        real = yaml.constructor.SafeConstructor.construct_object

        def construct_object(self, node, deep=False):
            calls.append(node)
            return real(self, node, deep)

        monkeypatch.setattr(yaml.constructor.SafeConstructor, "construct_object", construct_object)
        list(yaml.load_all(text, Loader=bench._SAFE_LOADER))
        assert len(calls) == 2332
        calls.clear()
        assert len(load_scenes(io.StringIO(text))) == 4
        assert calls == []

    @pytest.mark.parametrize("seed", [None, *range(1, 11)], ids=["golden", *map(str, range(1, 11))])
    def test_golden_and_deep_files_equal_the_safe_loader_bitwise(self, tmp_path, seed):
        # The golden file is `TestGeneratorStream.test_scene_file_text`'s; the
        # others are the `deep-file` benchmark's at seeds 1-10.
        if seed is None:
            buf = io.StringIO()
            save_scenes(gen_scenes(7, 5, Kinds.MIXED, 40), buf)
            text = buf.getvalue()
        else:
            text = Path(_deep_scene_file(tmp_path, seed)).read_text()
        got = _loaded(lambda: load_scenes(io.StringIO(text)))
        assert len(got) == (40 if seed is None else 4)
        assert got == _loaded(lambda: _safe_loader_scenes(io.StringIO(text)))


# Values whose written form is each shape of `repr`: a signed zero, and a
# small, a tiny and a large exponent, which the dumper writes as 1.0e-05,
# -2.5e-300 and 1.0e+16.
_SPECIAL_VALUES = [-0.0, 0.0, 1e-05, -2.5e-300, 1e16, -1.5]


@st.composite
def _hand_built_specs(draw):
    """A PathSpec of up to 3 surfaces, every coordinate drawn from `_SPECIAL_VALUES`."""
    value = st.sampled_from(_SPECIAL_VALUES)
    triple = st.lists(value, min_size=3, max_size=3)
    surfaces = []
    for kind in draw(st.lists(st.sampled_from(list(SurfaceKind)), max_size=3)):
        u = draw(triple)
        v = [0.0, 0.0, 0.0] if kind is SurfaceKind.EDGE else draw(triple)
        try:
            surfaces.append(Surface(basis=np.array([u, v]).T, anchor=draw(triple), kind=kind))
        except FermatPathError:
            pass
    try:
        return PathSpec(start=draw(triple), end=draw(triple), surfaces=tuple(surfaces))
    except FermatPathError:
        assume(False)


def _written_text(specs):
    buf = io.StringIO()
    save_scenes(specs, buf)
    return buf.getvalue()


class TestWrittenSceneFiles:
    """A file in `save_scenes`' layout is read without a YAML parser; every change to
    one, or any other encoding of it, is read by `yaml.load_all`."""

    # Writing a file of 64 surfaces takes about 30 ms, so shrinking a failure
    # would take minutes: a failing example is reported as drawn.
    @settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        generated=st.tuples(
            st.integers(0, 2**16), st.integers(1, MAX_INTERACTIONS), st.sampled_from(list(Kinds)),
            st.integers(0, 2),
        ),
        hand_built=st.lists(_hand_built_specs(), max_size=3),
    )
    def test_takes_the_strict_path_and_equals_the_safe_loader_bitwise(self, generated, hand_built):
        seed, n, kinds, batch = generated
        specs = (gen_scenes(seed, n, kinds, batch) if batch else []) + hand_built
        assume(specs)
        text = _written_text(specs)
        documents = list(yaml.load_all(text, Loader=bench._SAFE_LOADER))
        want = _loaded(lambda: [bench.scene_from_dict(doc) for doc in documents])
        with mock.patch.object(yaml, "load_all", side_effect=AssertionError("parsed")):
            assert repr(bench._scene_documents(io.StringIO(text))) == repr(documents)
            assert _loaded(lambda: load_scenes(io.StringIO(text))) == want
        assert len(want) == len(specs)

    def test_single_character_mutants_load_as_the_safe_loader_loads_them(self):
        spec = gen_scenes(3, 1, Kinds.MIXED, 1)[0]
        text = _written_text([spec, PathSpec(start=[1e-05, -0.0, 1e16], end=spec.end, surfaces=())])
        assert bench._written_documents(text) is not None
        lines = text.splitlines(keepends=True)
        mutants = {
            text[:i] + c + text[i + j:]
            for i in range(len(text) + 1)
            for c in ["", " ", "\n", "-", "0", "7", ".", "e", "+", ":", "x", "[", "#", "\t"]
            for j in (0, 1)
        }
        # Each line dropped; the surface dropped from under its "surfaces:", or
        # left under a "surfaces: []".
        mutants |= {"".join(lines[:i] + lines[i + 1:]) for i in range(len(lines))}
        mutants.add(re.sub(r"(?m)^(surfaces:\n)(?:[- ] .*\n)+", r"\1", text))
        mutants.add(text.replace("surfaces:\n", "surfaces: []\n", 1))
        strict = 0
        for mutant in mutants - {text}:
            got = _loaded(lambda: load_scenes(io.StringIO(mutant)))
            want = _loaded(lambda: _safe_loader_scenes(io.StringIO(mutant), bench._SAFE_LOADER))
            assert got == want, repr(mutant)
            strict += bench._written_documents(mutant) is not None
        # Digit, sign and exponent changes keep the layout; the rest leave it.
        assert strict > 0

    @pytest.mark.parametrize(
        "case", ["start", "anchor", "basis", "no-surfaces", "65-surfaces", "bad-plane"]
    )
    def test_overflow_and_extreme_counts_load_as_the_safe_loader_loads_them(self, case):
        # `_FLOAT` matches 1.0e+400, which float() reads as inf, as YAML does.
        first = gen_scenes(3, 2, Kinds.MIXED, 1)[0]
        if case == "no-surfaces":
            second = PathSpec(start=first.start, end=first.end, surfaces=())
        else:
            second = gen_scenes(4, MAX_INTERACTIONS, Kinds.MIXED, 1)[0]
        head, tail = _written_text([first]), _written_text([second, first])
        if case in ("start", "anchor", "basis"):
            line = {"start": "start:\n- ", "anchor": "  anchor:\n  - ",
                    "basis": "  basis:\n  - - "}[case]
            tail = re.sub(f"(?<={re.escape(line)})[^\n]+", "1.0e+400", tail, count=1)
        elif case == "65-surfaces":
            surface = re.search(r"(?m)^- kind: [^\0]*?(?=^- kind: )", tail).group()
            tail = tail.replace(surface, surface * 2, 1)
        elif case == "bad-plane":
            tail = tail.replace("- kind: edge", "- kind: plane", 1)
        text = head + "---\n" + tail
        assert bench._written_documents(text) is not None
        safe_loader = lambda stream: _safe_loader_scenes(stream, bench._SAFE_LOADER)
        with mock.patch.object(yaml, "load_all", side_effect=AssertionError("parsed")):
            got = _loaded(lambda: load_scenes(io.StringIO(text)))
        assert got == _loaded(lambda: safe_loader(io.StringIO(text)))
        if case == "no-surfaces":
            assert len(got) == 3 and got[1][2] == (np.dtype(float), (0, 3, 2), b"")
            return
        assert got[0] == 1
        messages = []
        for load in (load_scenes, safe_loader):
            with pytest.raises(SceneFileError) as info:
                load(io.StringIO(text))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("encoding", ["bom", "bytes", "bytes-with-bom"])
    def test_other_encodings_load_as_the_safe_loader_loads_them(self, monkeypatch, encoding):
        text = _written_text(gen_scenes(5, 3, Kinds.MIXED, 2))
        data = {"bom": "\ufeff" + text, "bytes": text.encode(),
                "bytes-with-bom": b"\xef\xbb\xbf" + text.encode()}[encoding]
        want = _loaded(lambda: _safe_loader_scenes(_stream(data)))
        assert len(want) == 2
        real, taken = bench._written_documents, []
        monkeypatch.setattr(bench, "_written_documents", lambda t: taken.append(real(t)) or taken[-1])
        assert _loaded(lambda: load_scenes(_stream(data))) == want
        # Only text is offered to the strict reader, and a BOM is not its layout.
        assert taken == ([None] if isinstance(data, str) else [])

    def test_a_parse_error_names_the_file(self, tmp_path):
        scene_file = tmp_path / "scenes.yaml"
        scene_file.write_text(_written_text(gen_scenes(5, 1, Kinds.MIXED, 1)) + "---\nstart: [\n")
        with open(scene_file) as fh, pytest.raises(SceneFileError) as info:
            load_scenes(fh)
        assert str(info.value).startswith("scene file document 1: ")
        assert f'in "{scene_file}", line ' in str(info.value)


class TestResultFiles:
    def test_csv_roundtrip_exact(self):
        records = [
            BenchRecord("ours", 3, "mixed", 2, 100, 1, "single", 1.25e-4, 17.125),
            BenchRecord("image", 1, "reflections", 2, 0, 0, "double", float("nan"), 0.5),
        ]
        buf = io.StringIO()
        write_records(records, buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_HEADER)
        buf.seek(0)
        back = read_records(buf)
        assert back[0] == records[0]
        assert math.isnan(back[1].mean_error)

    def test_csv_roundtrip_of_numpy_floats(self):
        # numpy scalars' repr is "np.float64(0.1)"; the file holds plain floats.
        record = BenchRecord(
            "ours", 3, "mixed", 2, 100, 1, "double", np.float64(0.1), np.float32(17.3)
        )
        buf = io.StringIO()
        write_records([record], buf)
        buf.seek(0)
        (back,) = read_records(buf)
        assert back == record
        assert back.wall_time_ms == float(np.float32(17.3)) != 17.3

    def test_header_is_the_documented_layout(self):
        header = "solver,n,kinds,d,iterations,fp_iters,precision,mean_error,wall_time_ms"
        buf = io.StringIO()
        write_records([], buf)
        assert buf.getvalue().splitlines() == [header]

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_records(io.StringIO("a,b,c\n1,2,3\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_records(io.StringIO(""))

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_row_of_wrong_length_rejected(self, extra):
        row = ["ours", "3", "mixed", "2", "100", "1", "single", "0.5", "1.0"]
        row = row[:extra] if extra < 0 else row + ["2.0"]
        text = ",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n"
        with pytest.raises(ValueError, match="fields"):
            read_records(io.StringIO(text))


class TestBenchConfig:
    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=0, solvers=("warp",))

    def test_image_requires_reflections(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=0, kinds=Kinds.MIXED, solvers=("image",))

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=0, batch=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=-1)
        with pytest.raises(ValueError):
            BenchConfig(seed=1.5)

    def test_kinds_and_precision_from_their_values(self):
        config = BenchConfig(
            seed=1, batch=2, n_range=(1,), kinds="mixed", solvers=("ours",), iterations=5,
            precision="double",
        )
        assert config.kinds is Kinds.MIXED
        assert config.precision is Precision.DOUBLE
        (record,) = run_bench(config, timing_reps=1)
        assert (record.kinds, record.precision) == ("mixed", "double")

    @pytest.mark.parametrize(
        "bad",
        [
            {"iterations": 0}, {"fixed_point_iters": 0}, {"n_range": (0,)}, {"n_range": (3, 65)},
            {"iterations": 2.5}, {"batch": 2.5}, {"n_range": (2.0,)}, {"kinds": "bogus"},
            {"precision": "half"}, {"n_range": ()}, {"solvers": ()}, {"iterations": True},
            {"batch": True}, {"n_range": (True,)},
        ],
        ids=[
            "iterations", "fp-iters", "n-zero", "n-too-large", "float-iterations",
            "float-batch", "float-n", "unknown-kinds", "unknown-precision", "no-n", "no-solvers",
            "bool-iterations", "bool-batch", "bool-n",
        ],
    )
    def test_bad_counts_rejected_before_any_solve(self, monkeypatch, bad):
        calls = _reference_missing(monkeypatch, [])
        with pytest.raises(ValueError):
            run_bench(BenchConfig(**{"seed": 0, "batch": 2, **bad}), timing_reps=1)
        assert calls == []

    def test_no_timing_reps_rejected_before_any_solve(self, monkeypatch):
        calls = _reference_missing(monkeypatch, [])
        generated = []
        monkeypatch.setattr(bench, "gen_scenes", lambda *args: generated.append(args))
        with pytest.raises(ValueError):
            run_bench(BenchConfig(seed=0, batch=2), timing_reps=0)
        assert calls == [] and generated == []


def _newton_fails(monkeypatch):
    def _newton_kernel(*args, **kwargs):
        raise SingularHessian("regularized Newton solve failed")

    monkeypatch.setattr(bench, "_newton_kernel", _newton_kernel)


class TestRunBench:
    def test_smoke(self):
        config = BenchConfig(
            seed=1, batch=5, n_range=(1, 2), kinds=Kinds.MIXED,
            solvers=("ours", "gd"), iterations=20,
        )
        records = run_bench(config, timing_reps=1)
        assert len(records) == 4
        for r in records:
            assert r.kinds == "mixed"
            assert r.precision == "single"
            assert r.wall_time_ms > 0.0
            assert r.mean_error >= 0.0

    def test_unconverged_reference_raises(self, monkeypatch):
        _reference_missing(monkeypatch, [1])
        config = BenchConfig(
            seed=1, batch=3, n_range=(1,), kinds=Kinds.MIXED, solvers=("ours",), iterations=5
        )
        with pytest.raises(NoConvergence):
            run_bench(config, timing_reps=1)

    def test_solver_error_propagates(self, monkeypatch):
        _newton_fails(monkeypatch)
        config = BenchConfig(
            seed=1, batch=2, n_range=(1,), kinds=Kinds.MIXED,
            solvers=("ours", "newton"), iterations=5,
        )
        with pytest.raises(SingularHessian):
            run_bench(config, timing_reps=1)


class TestGradCheck:
    def test_smoke(self):
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 2
        assert report.passed
        assert report.vjp_max_rel_error <= report.tolerance

    def test_dropped_instance_fails(self, monkeypatch):
        _reference_missing(monkeypatch, [0])
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 1
        assert report.vjp_max_rel_error <= report.tolerance
        assert not report.passed

    def test_nothing_checked_fails(self, monkeypatch):
        calls = _reference_missing(monkeypatch, slice(None))
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 0
        assert not report.passed
        assert calls == [2]  # no re-solve of an empty batch

    def test_unconverged_re_solve_leaves_its_instance_unchecked(self, monkeypatch):
        # The second reference solve is the finite-difference re-solve of
        # both instances; its first member is a perturbation of instance 0.
        calls = _reference_missing(monkeypatch, [0], call=1)
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert calls[0] == 2 and len(calls) == 2
        assert report.count == 1
        assert report.vjp_max_rel_error <= report.tolerance
        assert not report.passed

    def test_bad_count(self):
        with pytest.raises(ValueError):
            grad_check(2, 1, Kinds.MIXED, 0)


class TestPerturbedBatch:
    """The finite-difference re-solves' batch, built from the scene arrays,
    equals the batch of the perturbed scenes rebuilt one spec at a time."""

    @pytest.mark.parametrize("n", [1, 4, 64])
    @pytest.mark.parametrize("kinds", list(Kinds), ids=lambda k: k.value)
    def test_equals_the_rebuilt_specs_bitwise(self, kinds, n):
        specs = gen_scenes(5, n, kinds, 2)
        sc, owner = bench._perturbed_batch(specs)
        expected = BatchScene.from_specs(perturbed_specs(specs, bench.FD_STEP))
        for f in fields(BatchScene):
            got, want = getattr(sc, f.name), getattr(expected, f.name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
            assert got.tobytes() == want.tobytes(), f.name
        counts = [np.count_nonzero(bench._scene_vector(spec)[1]) for spec in specs]
        assert np.bincount(owner).tolist() == counts


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Command, option, values: each value out of range for that option.
_OUT_OF_RANGE = [
    ["gen", "--n", "0"],
    ["gen", "--n", "65"],
    ["gen", "--count", "0"],
    ["grad-check", "--n", "0"],
    ["grad-check", "--count", "0"],
    ["bench", "--iterations", "0"],
    ["bench", "--fp-iters", "0"],
    ["bench", "--n", "2", "65"],
    ["bench", "--batch", "0"],
    ["solve", "--iterations", "0"],
    ["solve", "--fp-iters", "0"],
    ["gen", "--seed", "-1"],
    ["grad-check", "--seed", "-1"],
    ["bench", "--seed", "-1"],
]


def _deep_scene_file(tmp_path, seed=1):
    """The `deep-file` benchmark's scene file: one MIXED scene per n in 8, 16, 32, 64."""
    path = tmp_path / "deep.yaml"
    with open(path, "w") as fh:
        save_scenes([s for n in (8, 16, 32, 64) for s in gen_scenes(seed, n, Kinds.MIXED, 1)], fh)
    return str(path)


def _benchmark_scene_line():
    """The pattern perfbench's `deep-file` check parses `fermatpath solve` output with."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    return runpy.run_path(str(path), run_name="perfbench_workloads")["_SCENE_LINE"]


class TestCli:
    def test_gen_then_solve(self, tmp_path):
        scene_file = str(tmp_path / "scenes.yaml")
        code, out, _ = _run_cli(
            ["gen", "--seed", "4", "--n", "2", "--kinds", "mixed",
             "--count", "3", "--out", scene_file]
        )
        assert code == 0
        assert "3 scenes" in out

        code, out, _ = _run_cli(["solve", scene_file, "--iterations", "60"])
        assert code == 0
        assert out.count("length=") == 3

    def test_bench_csv(self, tmp_path):
        out_file = str(tmp_path / "results.csv")
        code, _, _ = _run_cli(
            ["bench", "--seed", "1", "--batch", "3", "--n", "1",
             "--kinds", "mixed", "--solvers", "ours", "gd",
             "--iterations", "10", "--out", out_file]
        )
        assert code == 0
        with open(out_file) as fh:
            records = read_records(fh)
        assert {r.solver for r in records} == {"ours", "gd"}

    def test_grad_check_command(self):
        code, out, _ = _run_cli(
            ["grad-check", "--seed", "2", "--n", "1", "--count", "2"]
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_grad_check_failure_exit_code(self, monkeypatch):
        report = GradCheckReport(
            count=1, vjp_max_rel_error=0.0, envelope_max_rel_error=0.0,
            tolerance=1e-3, passed=False,
        )
        monkeypatch.setattr(cli, "grad_check", lambda *args: report)
        code, out, _ = _run_cli(["grad-check", "--n", "1", "--count", "2"])
        assert code == 3
        assert out.startswith("FAIL: 1 of 2 scenes checked")

    def test_grad_check_envelope_gap_fails_with_exit_code(self, monkeypatch):
        # A VJP off by 1e-3 in `start` opens an envelope gap far above 1e-6;
        # grad-check must report FAIL, not raise.
        real = implicit_diff.vjp_solution

        def skewed(spec, Tstar, v):
            sg = real(spec, Tstar, v)
            return replace(sg, start=sg.start + 1e-3)

        monkeypatch.setattr(bench, "vjp_solution", skewed)
        monkeypatch.setattr(implicit_diff, "vjp_solution", skewed)
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 2
        assert report.envelope_max_rel_error > 1e-6
        assert not report.passed
        code, out, _ = _run_cli(["grad-check", "--seed", "2", "--n", "1", "--count", "2"])
        assert code == 3
        assert out.startswith("FAIL: 2 of 2 scenes checked")

    def test_grad_check_unconverged_re_solve_exit_code(self, monkeypatch):
        _reference_missing(monkeypatch, [0], call=1)
        code, out, err = _run_cli(["grad-check", "--seed", "2", "--n", "1", "--count", "2"])
        assert code == 3
        assert out.startswith("FAIL: 1 of 2 scenes checked")
        assert "Traceback" not in err

    def test_bench_reference_failure_exit_code(self, monkeypatch):
        _reference_missing(monkeypatch, [0])
        code, _, err = _run_cli(
            ["bench", "--seed", "1", "--batch", "2", "--n", "1", "--solvers", "ours",
             "--iterations", "5"]
        )
        assert code == 2
        assert "reference solve missed its tolerance" in err

    def test_bench_solver_failure_exit_code(self, monkeypatch):
        _newton_fails(monkeypatch)
        code, out, err = _run_cli(
            ["bench", "--seed", "1", "--batch", "2", "--n", "1", "--solvers", "newton",
             "--iterations", "5"]
        )
        assert code == 2
        assert "regularized Newton solve failed" in err
        assert out == ""

    def test_failed_bench_leaves_its_out_file_unchanged(self, tmp_path, monkeypatch):
        _newton_fails(monkeypatch)
        out_file = tmp_path / "results.csv"
        out_file.write_text("kept\n")
        argv = ["bench", "--seed", "1", "--batch", "2", "--n", "1", "--solvers", "newton",
                "--iterations", "5"]
        code, _, err = _run_cli(argv + ["--out", str(out_file)])
        assert code == 2
        assert "regularized Newton solve failed" in err
        assert out_file.read_text() == "kept\n"
        code, _, _ = _run_cli(argv + ["--out", str(tmp_path / "new.csv")])
        assert code == 2
        assert not (tmp_path / "new.csv").exists()

    def test_usage_error_exit_code(self):
        code, _, _ = _run_cli(["bench", "--precision", "half"])
        assert code == 1

    @pytest.mark.parametrize("argv", _OUT_OF_RANGE, ids=" ".join)
    def test_out_of_range_integer_is_a_usage_error(self, tmp_path, monkeypatch, argv):
        name = argv[1]
        calls = _reference_missing(monkeypatch, [])
        scene_file = tmp_path / "scenes.yaml"
        with open(scene_file, "w") as fh:
            save_scenes(gen_scenes(4, 2, Kinds.MIXED, 1), fh)
        if argv[0] == "gen":
            argv = argv + ["--out", str(tmp_path / "out.yaml")]
        elif argv[0] == "solve":
            argv = ["solve", str(scene_file)] + argv[1:]
        code, out, err = _run_cli(argv)
        assert code == 1
        assert f"argument {name}: " in err
        assert "Traceback" not in err
        assert out == ""
        assert calls == []  # no reference solve started
        assert not (tmp_path / "out.yaml").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--count", "2", "--out"],
            ["bench", "--batch", "2", "--n", "1", "--solvers", "ours", "--iterations", "5",
             "--out"],
        ],
        ids=["gen", "bench"],
    )
    def test_unwritable_out_fails_before_any_work(self, tmp_path, monkeypatch, argv):
        calls = _reference_missing(monkeypatch, [])
        code, out, err = _run_cli(argv + [str(tmp_path / "missing" / "out")])
        assert code == 1
        assert err.startswith(f"fermatpath {argv[0]}: ")
        assert "No such file or directory" in err
        assert "Traceback" not in err
        assert out == ""
        assert calls == []  # no reference solve started

    def test_unknown_command_exit_code(self):
        code, _, _ = _run_cli(["warp"])
        assert code == 1

    def test_missing_scene_file(self, tmp_path):
        code, _, err = _run_cli(["solve", str(tmp_path / "missing.yaml")])
        assert code == 1

    @pytest.mark.parametrize(
        "text, index, cause",
        [
            ("start: [0.0, 0.0, 0.0]\nend: [1.0, 0.0, 0.0\n", 0, yaml.YAMLError),
            (
                "start: [0.0, 0.0, 0.0]\nend: [0.0, 0.0, 2.0]\nsurfaces:\n- kind: mirror\n"
                "  anchor: [0.0, 0.0, 1.0]\n  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n",
                0,
                ValueError,
            ),
            ("start: [0.0, 0.0, 0.0]\nend: [1.0, 0.0, 0.0]\n---\nstart: [0.0, 0.0, 0.0]\n", 1, KeyError),
            ("start: [1.0, 2.0, 3.0]\nend: [1.0, 2.0, 3.0]\n", 0, ShapeMismatch),
            ("0\n", 0, TypeError),
            ("[]\n", 0, TypeError),
            ("start: [0.0, 0.0, 0.0]\nend: [1.0, 0.0, 0.0]\n---\n{}\n", 1, KeyError),
            ("start: [0.0, 0.0, 0.0]\nend: [1.0, 0.0, 0.0]\n---\nstart: [true, 0, 0]\n"
             "end: [1.0, 0.0, 0.0]\n", 1, ShapeMismatch),
            ("start: ['1.5', '0', '0']\nend: [1.0, 0.0, 0.0]\n", 0, ShapeMismatch),
            ("start: [0.0, 0.0, 1.0]\nend: [1.0, 0.0, 1.0]\nsurfaces:\n- kind: plane\n"
             "  anchor: [0.0, 0.0, 0.0]\n  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, no]]\n",
             0, ShapeMismatch),
        ],
        ids=[
            "bad-yaml", "unknown-kind", "missing-end", "coincident-endpoints", "zero",
            "empty-list", "empty-mapping", "bool-coordinate", "string-coordinates", "bool-basis",
        ],
    )
    def test_malformed_scene_file(self, tmp_path, text, index, cause):
        scene_file = tmp_path / "scenes.yaml"
        scene_file.write_text(text)
        with open(scene_file) as fh, pytest.raises(SceneFileError) as info:
            load_scenes(fh)
        assert isinstance(info.value.__cause__, cause)
        code, out, err = _run_cli(["solve", str(scene_file)])
        assert code == 1
        assert err.startswith(f"fermatpath solve: scene file document {index}: ")
        assert "Traceback" not in err
        assert out == ""

    def test_solve_plane_with_singular_gram_matrix(self, tmp_path):
        # A valid plane whose Gram matrix rounds to singular gets its initial
        # guess from the pseudo-inverse projection instead of a traceback.
        scene_file = tmp_path / "near_parallel.yaml"
        scene_file.write_text(
            "start: [0.0, 0.0, 1.0]\n"
            "end: [1.0, 0.0, 1.0]\n"
            "surfaces:\n"
            "- kind: plane\n"
            "  anchor: [0.0, 0.0, 0.0]\n"
            "  basis: [[1.0, 1.0], [0.0, 2.0e-9], [0.0, 0.0]]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fermatpath", "solve", str(scene_file)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(bench.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "scene 0: length=" in proc.stdout

    def test_solver_failure_exit_code(self, tmp_path):
        # A plane through the start point: the midpoint projects onto the
        # start itself, so the initial path has a zero-length first segment.
        scene_file = tmp_path / "degenerate.yaml"
        scene_file.write_text(
            "start: [0.0, 0.0, 0.0]\n"
            "end: [0.0, 0.0, 2.0]\n"
            "surfaces:\n"
            "- kind: plane\n"
            "  anchor: [0.0, 0.0, 0.0]\n"
            "  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n"
        )
        code, _, err = _run_cli(["solve", str(scene_file)])
        assert code == 2
        assert "solver failed" in err

    @staticmethod
    def _solve_options(scene_file):
        """The `SolveOptions` that `fermatpath solve` runs on `scene_file` with."""
        args = cli.build_parser().parse_args(["solve", scene_file])
        return SolveOptions(
            iterations=args.iterations, fixed_point_iters=args.fp_iters, precision=args.precision
        )

    def test_solve_defaults_are_the_solve_options_defaults(self):
        # `fermatpath solve` runs `SolveOptions()`; `bench` keeps the paper's
        # step (fp=1), which its `ours` column and criterion 8 measure.
        assert self._solve_options("scenes.yaml") == SolveOptions()
        args = cli.build_parser().parse_args(["bench"])
        assert args.fp_iters == 1
        assert BenchConfig(seed=0).fixed_point_iters == 1
        config = BenchConfig(
            seed=args.seed, batch=args.batch, n_range=tuple(args.n), kinds=args.kinds,
            solvers=tuple(args.solvers), iterations=args.iterations,
            fixed_point_iters=args.fp_iters, precision=args.precision,
        )
        assert config == BenchConfig(seed=0)

    def test_solve_scene_lines_equal_the_fixed_schedule(self, tmp_path):
        # Each line is the fixed schedule's, run to that path's exit.
        scene_file = _deep_scene_file(tmp_path)
        code, out, _ = _run_cli(["solve", scene_file])
        assert code == 0
        opts = self._solve_options(scene_file)
        with open(scene_file) as fh:
            specs = load_scenes(fh)
        lines = [line for line in out.splitlines() if line.startswith("scene ")]
        assert len(lines) == len(specs) == 4
        scene_line = _benchmark_scene_line()
        for idx, (line, spec) in enumerate(zip(lines, specs)):
            assert scene_line.match(line)
            sc = spec.batch
            T, g = stopped_schedule_bfgs(sc, init_params(spec)[None], opts)[:2]
            length = path_length_batch(sc, T.T)[0]
            gnorm = np.linalg.norm(g.reshape(-1))
            assert line == f"scene {idx}: length={length:.9g} grad_norm={gnorm:.3e}"

    def _solve_counting_embeddings(self, monkeypatch, scene_file):
        """(embeddings `fermatpath solve` makes, iterations `bfgs_solve` reports per scene)."""
        opts = self._solve_options(scene_file)
        with open(scene_file) as fh:
            ran = [bfgs_solve(spec, init_params(spec), opts).iterations for spec in load_scenes(fh)]
        calls = []
        for name in ("checked_segments", "clamped_segments"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *a, _real=real: calls.append(1) or _real(*a))
        code, _, _ = _run_cli(["solve", scene_file])
        assert code == 0
        return len(calls), ran

    def test_solve_stops_each_path_at_its_fixed_point(self, tmp_path, monkeypatch):
        calls, ran = self._solve_counting_embeddings(monkeypatch, _deep_scene_file(tmp_path))
        # Each path is embedded at its start and after each update it ran.
        assert calls == sum(k + 1 for k in ran)

    def test_solve_stops_a_path_that_starts_at_its_optimum(self, tmp_path, monkeypatch):
        # A mirror through the origin spanned by x and z, under a symmetric
        # start/end pair: the midpoint projects onto the reflection point,
        # where g is exactly 0, so the path stops at its start, before any update.
        scene_file = tmp_path / "optimum.yaml"
        scene_file.write_text(
            "start: [-1.0, 1.0, 0.0]\n"
            "end: [1.0, 1.0, 0.0]\n"
            "surfaces:\n"
            "- kind: plane\n"
            "  anchor: [0.0, 0.0, 0.0]\n"
            "  basis: [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]\n"
        )
        calls, ran = self._solve_counting_embeddings(monkeypatch, str(scene_file))
        with open(scene_file) as fh:
            (spec,) = load_scenes(fh)
        oracle = stopped_schedule_bfgs(
            spec.batch, init_params(spec)[None], self._solve_options(str(scene_file))
        )
        ran_ref, floor_at = oracle[3], oracle[5]
        assert ran == ran_ref.tolist() == [0] and floor_at.tolist() == [0]
        assert calls == 1
