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


def _uses(tree: ast.AST, name: str, stores: bool = False) -> list[str | None]:
    """The enclosing function of every ``name`` name or attribute in a
    module, or of every assignment to it with ``stores``; None for a use
    outside any function."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name or isinstance(child, ast.Attribute)
                    and child.attr == name) and (not stores or isinstance(child.ctx, ast.Store)):
                out.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            visit(child, inner)

    visit(tree, None)
    return out


def _trees() -> dict[str, ast.AST]:
    src = Path(lcmkit.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}


def test_one_cache_writer():
    # the one cache is defined once and read or written only by the two
    # functions that keep its keys
    uses = {name: _uses(tree, "_CACHE") for name, tree in _trees().items()}
    uses = {name: found for name, found in uses.items() if found}
    assert set(uses) == {"linalg"}
    assert uses["linalg"].count(None) == 1
    assert set(uses["linalg"]) == {None, "_cached_canonical", "_lookup"}


def test_defects_are_set_where_a_module_is_built():
    # the constructor scans outside maps; derived modules pass their
    # parent's defects to _from_masks.  Nothing else sets them, posets never
    # name them, and no lazy property computes them
    trees = _trees()
    writers = {name: _uses(tree, "_defects", stores=True) for name, tree in trees.items()}
    writers = {name: sorted(found) for name, found in writers.items() if found}
    assert writers == {"squarefree": ["__init__", "_from_masks"]}
    assert not _uses(trees["posets"], "_defects")
    imported = {a.name for node in ast.walk(trees["squarefree"]) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "cached_property" not in imported and not _uses(trees["squarefree"], "cached_property")


def test_mutant_targets_occur_once():
    # tests/mutants.py replaces each old text in place, so a refactor that
    # moves one must update its row; each row names tests that exist
    from mutants import MUTANTS

    src = Path(lcmkit.__file__).parent
    root = src.parents[1]
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (src / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, test = node.split("::")
            defined = {f.name for f in ast.walk(ast.parse((root / path).read_text()))
                       if isinstance(f, ast.FunctionDef)}
            assert test.split("[")[0] in defined, node
