"""Every module of the package uses each name it imports, none calls `np.einsum`,
and every private function or class and every constant is used.

Every runtime dependency in `pyproject.toml` is imported by the package;
a library only the tests use belongs in the `test` extra.

No linter is a dependency, so these are plain `ast` scans. `__init__.py`
re-exports what it imports and is skipped; an import line marked
`# noqa: F401` is kept on purpose and is skipped too. The package takes
`einsum`, numpy's C kernel without the dispatch layer, from `batching`
(`geometry`, below it, imports the kernel itself);
`tests/_oracles.py` keeps `np.einsum` as the independent reference. A
module-level `_name` function or class that nothing in the package
references outside its own definition is dead code, whatever the tests
call, and so is a module-level UPPER_CASE constant that nothing in the
package reads outside its own assignment. Scene objects (`PathSpec`,
`Surface`) are built only where a scene enters the package: the surface
constructors, the array constructor `specs_from_arrays` (which the
generator and the reader of written scene files call) and the reader of
every other scene file. A call that hands either class to another, such
as `object.__new__(Surface)`, builds one too. Past that boundary every
scene is a `BatchScene`.
"""

import ast
import re
import tomllib
from pathlib import Path

import pytest

import fermatpath

PACKAGE = Path(fermatpath.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["math (line 1)", "dumps (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def numpy_einsum_uses(source: str) -> list[int]:
    """Lines that reference `np.einsum` or `numpy.einsum`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "einsum"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]


def test_scan_finds_numpy_einsum():
    source = (
        "import numpy as np\nx = np.einsum('i->', a)\n"
        "np.einsum('ii->i', b)[...] = 0\neinsum('i', a)\n"
    )
    assert numpy_einsum_uses(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_takes_einsum_from_batching(path):
    assert numpy_einsum_uses(path.read_text()) == []


def _read_outside(name: str, node: ast.AST, trees) -> bool:
    """Whether any code outside `node` reads `name` as a name or an attribute."""
    inside = {id(n) for n in ast.walk(node)}
    return any(
        id(n) not in inside
        and isinstance(getattr(n, "ctx", None), ast.Load)
        and name in (getattr(n, "id", None), getattr(n, "attr", None))
        for tree in trees
        for n in ast.walk(tree)
    )


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """`module.name` of each module-level private def that no code outside it references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            if not _read_outside(node.name, node, trees.values()):
                dead.append(f"{module}.{node.name}")
    return dead


def test_scan_finds_a_dead_private_def():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\n"
        "class _Kept:\n    pass\n",
        "b": "import a\n\ndef public():\n    return a._used(), _Kept\n\n"
        "def __dunder__():\n    pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a._dead"]


def test_package_has_no_dead_private_defs():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unreferenced_constants(sources: dict[str, str]) -> list[str]:
    """`module.NAME` of each module-level constant that no code outside its assignments reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        assigns = {}
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                    assigns.setdefault(target.id, []).append(node)
        for name, nodes in assigns.items():
            if not any(_read_outside(name, node, trees.values()) for node in nodes):
                dead.append(f"{module}.{name}")
    return dead


def test_scan_finds_a_dead_constant():
    sources = {
        "a": "LIMIT = 3\nDEAD = 4\nDEAD = 5\nSELF = SELF_SEED = 1\n_HIDDEN: int = 2\n"
        "lower = 1\n\ndef f():\n    return LIMIT\n",
        "b": "import a\n\nx = a._HIDDEN\n",
    }
    assert unreferenced_constants(sources) == ["a.DEAD", "a.SELF", "a.SELF_SEED"]


def test_package_has_no_dead_constants():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_constants(sources) == []


SCENE_OBJECTS = ("PathSpec", "Surface")
SCENE_BOUNDARY = {
    "geometry.make_plane", "geometry.make_edge", "geometry.specs_from_arrays",
    "bench.scene_from_dict",
}


def _names(node: ast.AST) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _builds_a_scene_object(call: ast.Call) -> bool:
    """Whether a call is `PathSpec(...)` or `Surface(...)`, or hands either class to a call
    such as `object.__new__` (`isinstance` and `issubclass` only test)."""
    if _names(call.func) in SCENE_OBJECTS:
        return True
    return _names(call.func) not in ("isinstance", "issubclass") and any(
        _names(arg) in SCENE_OBJECTS for arg in call.args
    )


def scene_object_builders(sources: dict[str, str]) -> list[str]:
    """`module.name` of each module-level def, or `module.<module>` for other
    module-level code, that builds a `PathSpec` or `Surface` (`_builds_a_scene_object`)."""
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if any(isinstance(n, ast.Call) and _builds_a_scene_object(n) for n in ast.walk(node)):
                found.add(f"{module}.{getattr(node, 'name', '<module>')}")
    return sorted(found)


def test_scan_finds_a_scene_object_builder():
    sources = {
        "a": "def build():\n    return PathSpec(s, e, ())\n\n"
        "def plane():\n    return geometry.Surface(b, a, k)\n\n"
        "def batch(spec):\n    return isinstance(spec, PathSpec), spec.batch\n\n"
        "def unchecked():\n    return object.__new__(geometry.Surface)\n\n"
        "def aliased(new=object.__new__):\n    return new(PathSpec)\n",
        "b": "SPEC = PathSpec(s, e, ())\n",
    }
    assert scene_object_builders(sources) == [
        "a.aliased", "a.build", "a.plane", "a.unchecked", "b.<module>"
    ]


def test_scene_objects_are_built_only_at_the_boundary():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    builders = scene_object_builders(sources)
    assert [b for b in builders if b not in SCENE_BOUNDARY] == []


# Distribution names whose import name differs.
IMPORT_NAMES = {"pyyaml": "yaml"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports, relative imports excluded."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_runtime_dependency_is_imported_by_the_package():
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    deps = [re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
            for d in pyproject["project"]["dependencies"]]
    imported = set().union(*(imported_modules(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert [d for d in deps if IMPORT_NAMES.get(d, d) not in imported] == []
