import ast
from pathlib import Path

import lcmkit

# Each module may import only the modules before it.
ORDER = ("errors", "complexes", "linalg", "cm", "squarefree", "posets", "sweeps", "cli")


def _package_imports(path: Path) -> set[str]:
    """The sibling modules a module imports.  An absolute ``lcmkit`` import
    is kept whole, so it never passes the layer check."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("lcmkit"):
            out.add(node.module)
        elif isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name.startswith("lcmkit"))
    return out


def test_modules_import_only_earlier_layers():
    src = Path(lcmkit.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)
    for name in ORDER:
        allowed = set(ORDER[: ORDER.index(name)])
        imported = _package_imports(src / f"{name}.py")
        assert imported <= allowed, f"{name} imports {sorted(imported - allowed)}"


def _cache_uses(tree: ast.AST) -> list[str | None]:
    """The enclosing function of every ``_CACHE`` name or attribute in a
    module; None for a use outside any function."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "_CACHE" or (
                    isinstance(child, ast.Attribute) and child.attr == "_CACHE"):
                out.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            visit(child, inner)

    visit(tree, None)
    return out


def test_one_cache_writer():
    # the one cache is defined once and read or written only by the two
    # functions that keep its keys
    src = Path(lcmkit.__file__).parent
    uses = {p.stem: _cache_uses(ast.parse(p.read_text())) for p in src.glob("*.py")}
    uses = {name: found for name, found in uses.items() if found}
    assert set(uses) == {"linalg"}
    assert uses["linalg"].count(None) == 1
    assert set(uses["linalg"]) == {None, "_cached_canonical", "_lookup"}
