"""Every module-level ALL_CAPS constant of the package is read by package
code outside its own assignment, so a deleted code path cannot leave its
tuning knob behind."""

import ast
import pathlib
import re
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quivalg"
CAPS = re.compile(r"[A-Z][A-Z0-9_]*$")


def _constants(tree: ast.Module):
    """(name, statement) for each ALL_CAPS name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CAPS.match(target.id):
                yield target.id, node


def _reads(tree: ast.AST):
    """Every name read in tree, bare or as an attribute (`ef.MAX_PRIME`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def unread_constants() -> list[str]:
    """'file:line NAME' for every constant no package code reads outside its
    own assignment."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    return [f"{path.name}:{stmt.lineno} {name}"
            for path, tree in trees.items() for name, stmt in _constants(tree)
            if reads[name] == Counter(_reads(stmt))[name]]


def test_constants_are_found():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name, _ in _constants(ast.parse(path.read_text(encoding="utf-8")))]
    # plain constants and ones built by a call
    assert {"EXHAUSTIVE_LIMIT", "RREF_DENSE_CELLS", "DEFAULT"} <= set(found)


def test_every_module_constant_is_read():
    found = unread_constants()
    assert not found, f"module constants never read: {found}"
