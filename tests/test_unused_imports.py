"""No module imports a name that it never reads: the package's modules (not
`__init__.py`, which only re-exports), the tests and the demos."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _scanned():
    package = [p for p in sorted((ROOT / "src" / "quivalg").glob("*.py"))
               if p.name != "__init__.py"]
    return package + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unread_imports(path: pathlib.Path) -> list[str]:
    """'file:line name' for every name an import in path binds and no
    expression in path reads; `from __future__` imports are directives."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound if name not in read]


def test_every_imported_name_is_read():
    found = [hit for path in _scanned() for hit in unread_imports(path)]
    assert not found, f"imported but never read: {found}"
