"""Source checks that no linter makes here: every module-level import in
``src/chainshadow`` and in ``tests`` is read by its module, and a system
asks its metric only the queries that both metrics answer."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import chainshadow
from chainshadow import system

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


# The queries that a system asks of its metric, ``_Table`` or ``_Positions``.
METRIC_INTERFACE = (
    "distance",
    "ball",
    "separations",
    "shift_invariant",
    "distance_ints",
    "rows",
    "denominator",
)


def metric_reads(source: str) -> set[str]:
    """The names read as ``<expr>._metric.<name>`` in a module."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "_metric"
    }


@pytest.mark.parametrize(
    "metric", [system._Table(((0,),), 1), system._Positions((0,), 1, 2)], ids=["table", "positions"]
)
def test_each_metric_answers_the_interface(metric):
    assert [name for name in METRIC_INTERFACE if not hasattr(metric, name)] == []


def test_a_system_reads_only_the_interface_of_its_metric():
    reads = set().union(*(metric_reads(path.read_text()) for path in MODULES))
    assert reads - set(METRIC_INTERFACE) == set()
    source = "x.y._metric.rows\nz._metric.ball(0, 1)\n_metric.ball\n"
    assert metric_reads(source) == {"rows", "ball"}
