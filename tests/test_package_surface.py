"""Every function, class and method in the package is reached by what its
users run: the demos, the benchmark, or other package code that is itself
reached.  A definition that only tests reach belongs in the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quivalg"
USERS = (ROOT / "demos", ROOT / "perfbench")


def _names(tree: ast.AST, strings: bool = False):
    """(node, name) for every name, attribute and imported name in tree; with
    strings, also every string constant (the benchmark's tracer wraps
    package functions by their names)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node, node.value


def _definitions(tree: ast.Module):
    """(qualified name, node) of the top-level functions and classes, and of
    the non-dunder methods of classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, defs[:2]) and not m.name.startswith("__"))


def unreached() -> list[str]:
    """module.name of every package definition that nothing live refers to.

    Module-level code is live.  A definition becomes live when every
    definition enclosing it is live and a user names it, or package code
    does from outside the definition's own body and inside live definitions
    only.  Growing the live set until it stops leaves code reached only from
    dead code, mutual recursion included, dead.
    `__init__.py` only re-exports, so its imports reach nothing.
    """
    outside = {name for d in USERS for path in sorted(d.glob("*.py"))
               for _, name in _names(ast.parse(path.read_text(encoding="utf-8")),
                                     strings=d.name == "perfbench")}
    defs = []   # (label, name, node, the definitions enclosing it)
    refs = {}   # name -> the definitions enclosing each reference to it
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mine = list(_definitions(tree))

        def enclosing(node):
            return [d for _, d in mine
                    if d is not node and d.lineno <= node.lineno <= d.end_lineno]

        defs += [(f"{path.stem}.{qualname}", d.name, d, enclosing(d)) for qualname, d in mine]
        for node, name in _names(tree):
            refs.setdefault(name, []).append(enclosing(node))
    live: set[int] = set()
    while True:
        grown = {id(d) for _, name, d, outer in defs
                 if all(id(e) in live for e in outer)
                 and (name in outside
                      or any(all(e is not d and id(e) in live for e in within)
                             for within in refs.get(name, ())))}
        if grown == live:
            break
        live = grown
    return sorted(label for label, _, d, _ in defs if id(d) not in live)


def test_every_definition_is_reached_outside_the_tests():
    found = unreached()
    assert not found, f"reached only by tests or by nothing: {found}"
