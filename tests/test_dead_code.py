"""A dead-code scan of the package source by ``ast``: every imported name is
used in its module, every module-level private name is referenced somewhere
besides its definition, and every module-level public name is read by the
package, by the acceptance criteria or by the benchmark's tracer.  It catches
a half-finished deletion, such as an import left behind by the function it
served, and a public function that nothing needs."""

import ast
from pathlib import Path

import moe_lens


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


TREES = {path.stem: parse(path) for path in sorted(Path(moe_lens.__file__).parent.glob("*.py"))}
ROOT = Path(__file__).resolve().parent.parent

# ``from moe_lens import ModelConfig`` is the package's public entry point.
REEXPORTS = {("__init__", "ModelConfig")}


def unused_imports(module: str, tree: ast.Module) -> list[str]:
    """``module:name`` of each name an import binds that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [f"{module}:{name}" for name in bound
            if name not in read and (module, name) not in REEXPORTS]


def names_read(trees) -> set[str]:
    """Every name the trees read, by name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def module_names(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """``(module, name)`` of each function, class and assignment at module level."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each module-level ``_``-prefixed name that no code
    of the package reads, by name or as an attribute."""
    read = names_read(trees.values())
    return [f"{module}:{name}" for module, name in module_names(trees)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def unneeded_publics(trees: dict[str, ast.Module], needed: set[str]) -> list[str]:
    """``module:name`` of each module-level public name that no code of the
    package reads and that is not in ``needed``."""
    read = names_read(trees.values()) | needed
    return [f"{module}:{name}" for module, name in module_names(trees)
            if not name.startswith("_") and name not in read]


def traced_names(tree: ast.Module) -> set[str]:
    """The function names in a tracer's ``TRACED`` table of module -> {name: span}."""
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return {key.value for spans in table.values for key in spans.keys}


def test_every_import_is_used():
    assert [problem for module, tree in TREES.items()
            for problem in unused_imports(module, tree)] == []


def test_every_private_module_name_is_referenced():
    assert unreferenced_privates(TREES) == []


def test_every_public_module_name_is_needed():
    """A public name is needed when the package reads it, when an acceptance
    criterion does, or when the benchmark's tracer times it.  The names that
    only the tracer needs are listed, so that a new one is seen; each goes
    when the tracer stops timing it."""
    acceptance = names_read([parse(ROOT / "tests" / "test_acceptance.py")])
    traced = traced_names(parse(ROOT / "perfbench" / "tracer.py"))
    assert unneeded_publics(TREES, acceptance | traced) == []
    assert set(unneeded_publics(TREES, acceptance)) == {"report:file_digest"}


def test_scan_finds_a_leftover_import_and_an_orphaned_helper():
    tree = ast.parse("import numpy as np\n"
                     "from .static_analysis import SimilarityMatrix, similarity_matrix\n"
                     "_LIMIT = 3\n"
                     "def _helper():\n    return np.zeros(_LIMIT)\n"
                     "def _orphan():\n    return SimilarityMatrix\n"
                     "def traced():\n    return _LIMIT\n"
                     "def unread():\n    return _LIMIT\n")
    assert unused_imports("m", tree) == ["m:similarity_matrix"]
    assert unreferenced_privates({"m": tree}) == ["m:_helper", "m:_orphan"]
    assert unneeded_publics({"m": tree}, {"traced"}) == ["m:unread"]
