"""Source checks that no linter makes here: every module-level import in
``src/chainshadow`` and in ``tests`` is read by its module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import chainshadow

MODULES = sorted(
    p for p in Path(chainshadow.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names that a module's top-level imports bind and that nothing in
    the module loads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}",
)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_caught():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unread_imports(source) == ["os", "a"]
