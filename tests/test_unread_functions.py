"""Every module-level function and method of the package is read by package
code outside its own definition, so a deleted caller cannot leave its helper
behind.  The few names that only a hook or the benchmark's tracer reads are
listed, each with its reason."""

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quivalg"

ALLOWED = {
    # perfbench/tracer.py wraps these three by name; they go with ROADMAP
    # item 12's pinned deletions, in a change that may edit the benchmark
    "fppoly.is_irreducible": "wrapped by the benchmark's tracer",
    "morita.verify_syzygy_split": "wrapped by the benchmark's tracer",
    "exactfield.in_lattice": "wrapped by the benchmark's tracer",
    # argparse calls it on a usage error
    "cli._Parser.error": "an argparse hook",
}


def _functions(tree: ast.Module):
    """(qualified name, node) of the top-level functions and of the
    non-dunder methods of top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, defs) and not m.name.startswith("__"))


def _reads(tree: ast.AST):
    """Every name read in tree, bare or as an attribute (`ef.rref`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def unread_functions() -> list[str]:
    """'module.name' for every function or method no package code reads
    outside its own definition.  `__init__.py` only re-exports, so its
    imports read nothing."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    return [f"{path.stem}.{qualname}"
            for path, tree in trees.items() for qualname, node in _functions(tree)
            if reads[node.name] == Counter(_reads(node))[node.name]]


def test_functions_are_found():
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name, _ in _functions(ast.parse(path.read_text(encoding="utf-8")))]
    # functions, methods and properties
    assert {"homology.pd_class", "decomp.IsoRegistry.register",
            "grothendieck.PhiResult.status"} <= set(found)


def test_every_function_is_read():
    found = unread_functions()
    assert sorted(set(found) - set(ALLOWED)) == [], "functions never read by package code"


def test_every_allowed_function_exists_and_is_unread():
    assert sorted(set(ALLOWED) - set(unread_functions())) == []
