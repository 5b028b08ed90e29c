"""A dead-code scan of the package source by ``ast``: every imported name is
used in its module, and every module-level private name is referenced
somewhere besides its definition.  It catches a half-finished deletion, such
as an import left behind by the function it served."""

import ast
from pathlib import Path

import moe_lens

TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(Path(moe_lens.__file__).parent.glob("*.py"))}

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


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each module-level ``_``-prefixed name that no code
    of the package reads, by name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module}:{name}" for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and name not in read]
    return found


def test_every_import_is_used():
    assert [problem for module, tree in TREES.items()
            for problem in unused_imports(module, tree)] == []


def test_every_private_module_name_is_referenced():
    assert unreferenced_privates(TREES) == []


def test_scan_finds_a_leftover_import_and_an_orphaned_helper():
    tree = ast.parse("import numpy as np\n"
                     "from .static_analysis import SimilarityMatrix, similarity_matrix\n"
                     "_LIMIT = 3\n"
                     "def _helper():\n    return np.zeros(_LIMIT)\n"
                     "def _orphan():\n    return SimilarityMatrix\n")
    assert unused_imports("m", tree) == ["m:similarity_matrix"]
    assert unreferenced_privates({"m": tree}) == ["m:_helper", "m:_orphan"]
