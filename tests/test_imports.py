"""Every module of the package uses each name it imports.

No linter is a dependency, so this is a plain `ast` scan. `__init__.py`
re-exports what it imports and is skipped; an import line marked
`# noqa: F401` is kept on purpose and is skipped too.
"""

import ast
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
