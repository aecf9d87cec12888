import ast
from pathlib import Path

import pytest

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


def _uses(tree: ast.AST, name: str, stores: bool = False, owner: str | None = None) -> list[str | None]:
    """The outermost function (a method counts as one) around every
    ``name`` name or attribute in a module, around every assignment to it
    with ``stores``, or around every ``owner.name`` attribute with
    ``owner``; None for a use outside any function."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            named = owner is None and isinstance(child, ast.Name) and child.id == name
            attr = isinstance(child, ast.Attribute) and child.attr == name and (
                owner is None or isinstance(child.value, ast.Name) and child.value.id == owner)
            if (named or attr) and (not stores or isinstance(child.ctx, ast.Store)):
                out.append(where)
            outer = where is None and isinstance(child, ast.FunctionDef)
            visit(child, child.name if outer else where)

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


def test_rules_have_one_owner():
    # cm turns every front's threshold into its l-CM verdicts and reads the
    # dimension a deletion keeps; complexes reads the lines of every input
    # format and says whether facets have one size; the poset's topological
    # pass finds its minimal elements
    trees = _trees()
    callers = {name: sorted(set(found)) for name, tree in trees.items()
               for found in [_uses(tree, "_is_l_cm") + _uses(tree, "_max_l")] if found}
    assert callers == {"cm": ["is_l_cm", "max_l"], "posets": ["is_poset_l_cm", "max_poset_l"],
                       "squarefree": ["is_module_l_cm", "max_module_l"]}
    # each front hands _is_l_cm a named threshold(subject, fieldspec, cap),
    # so every l-CM search stops at the cap
    for name in callers:
        functions = {node.name: node for node in trees[name].body if isinstance(node, ast.FunctionDef)}
        calls = [node for node in ast.walk(trees[name])
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is_l_cm"]
        assert len(calls) == 1, name
        threshold = functions[calls[0].args[2].id]
        assert [a.arg for a in threshold.args.args][1:] == ["fieldspec", "cap"], name
    src = Path(lcmkit.__file__).parent
    texts = {p.stem: p.read_text() for p in src.glob("*.py")}
    for needle, owner in [('"l must be >= 1"', "cm"), ("min(l - 1", "cm"), ('split("#"', "complexes"),
                          ("set(map(int.bit_count", "complexes")]:
        assert [name for name, text in texts.items() if needle in text] == [owner], needle
    readers = {name: sorted(set(found)) for name, tree in trees.items()
               for found in [_uses(tree, "_content_lines")] if found}
    assert readers == {"complexes": ["parse_facet_file"], "posets": ["parse_poset_file"],
                       "squarefree": ["parse_module_file"]}
    assert _uses(trees["posets"], "MultipleMinimalError") == ["_ranks_and_down_sets"]
    purity = {name: sorted(set(found)) for name, tree in trees.items()
              for found in [_uses(tree, "_is_pure")] if found}
    assert purity == {"complexes": ["is_pure"], "cm": ["_reisner", "_vertex_deletion_threshold"]}


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


def test_complexes_are_built_unchecked_only_where_derived():
    # outside masks pass the constructor, which proves the antichain; only
    # the constructions that build one by construction take _from_masks
    trees = _trees()
    callers = {name: sorted(set(found)) for name, tree in trees.items()
               for found in [_uses(tree, "_from_masks", owner="SimplicialComplex")] if found}
    assert callers == {"complexes": ["induced_subcomplex", "link", "skeleton"], "posets": ["order_complex"],
                       "sweeps": ["enumerate_complexes", "random_complex"]}
    assert "__post_init__" in _uses(trees["complexes"], "_maximal_masks")


def test_deletion_families_are_built_from_their_parent():
    # one helper deletes vertices from a facet family, whatever the drop:
    # the Hochster walk, an induced subcomplex and the family search call
    # it.  _family_threshold builds and judges the deletions of complexes
    # and posets alike, so posets name neither the helper nor the search.
    # The level walk is the one deletion search, on every front, and takes
    # no option; the module front runs it from its capped threshold
    trees = _trees()
    for name, owners in [
        ("_deletion_masks", {"cm": ["_family_threshold", "hochster_betti"], "complexes": ["induced_subcomplex"]}),
        ("_family_threshold", {"cm": ["_deletion_threshold"], "posets": ["_atom_deletion_threshold"]}),
        ("_smallest_failing_deletion", {"cm": ["_family_threshold"], "squarefree": ["_module_deletion_threshold"]}),
        ("_module_deletion_threshold", {"squarefree": ["is_module_l_cm", "module_l_cm_threshold"]}),
    ]:
        callers = {module: sorted(set(found)) for module, tree in trees.items()
                   for found in [_uses(tree, name)] if found}
        assert callers == owners, name
    texts = {p.stem: p.read_text() for p in Path(lcmkit.__file__).parent.glob("*.py")}
    for gone in ("_drop_vertex", "_deletion_fails"):
        assert not [module for module, text in texts.items() if gone in text], gone
    assert "_deletion_masks" not in texts["posets"] and "_smallest_failing_deletion" not in texts["posets"]
    search = next(node for node in trees["cm"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "_smallest_failing_deletion")
    assert [a.arg for a in search.args.args] == ["root", "groups", "cap", "child", "fails"]
    assert not search.args.defaults and not search.args.kwonlyargs
    assert not _uses(trees["cm"], "combinations")


def test_koszul_route_feeds_int_rows_to_the_rank_kernel():
    # a module holds int entries only, so its one Koszul assembly per degree
    # hands its rows to the kernel with no conversion step; only the public
    # rank converts.  The assembly reads the maps' nonzero entries that
    # _koszul_maps lists once per table, never a stored matrix
    trees = _trees()
    callers = {name: sorted(set(found)) for name, tree in trees.items()
               for found in [_uses(tree, "_rank_rows")] if found}
    assert callers == {"linalg": ["_homology_dims", "rank"], "squarefree": ["_koszul_degree"]}
    degree = next(node for node in trees["squarefree"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "_koszul_degree")
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(degree)}
    assert not named & {"mult", "mult_masks", "_map"}
    src = Path(lcmkit.__file__).parent
    texts = {p.stem: p.read_text() for p in src.glob("*.py")}
    assert "Fraction" not in texts["squarefree"]
    assert not [name for name, text in texts.items() if "_koszul_rank" in text or "_int_rows" in text]


def test_koszul_degrees_are_computed_or_skipped_in_one_place():
    # one pass over the degrees of a table decides which have an apex, from
    # the unit maps, and reduces and assembles the rest; the maps are read
    # and tested for units once per table, by _koszul_maps alone, and the
    # route asks nothing of cm's cone rule or of linalg's keys
    trees = _trees()
    for name, owner in [("_koszul_degree", "_koszul_entries"), ("_koszul_maps", "_koszul_entries")]:
        callers = {module: sorted(set(found)) for module, tree in trees.items()
                   for found in [_uses(tree, name)] if found}
        assert callers == {"squarefree": [owner]}, name
    src = Path(lcmkit.__file__).parent
    texts = {p.stem: p.read_text() for p in src.glob("*.py")}
    assert [name for name, text in texts.items() if "(1, -1)" in text] == ["squarefree"]
    assert texts["squarefree"].count("(1, -1)") == 1
    tree = trees["squarefree"]
    from_cm = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "cm"
               for a in node.names}
    route = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_koszul_entries", "_koszul_maps", "_koszul_degree")]
    named = {getattr(node, "id", getattr(node, "attr", None)) for fn in route for node in ast.walk(fn)}
    assert len(route) == 3 and from_cm
    linalg_keys = {"_cached_canonical", "_lookup", "_CACHE", "_canonical_masks", "_invariant_masks"}
    assert not named & (from_cm | linalg_keys | {"cm", "_apex"})


def test_stored_maps_are_read_once_per_table():
    # _koszul_maps is the one reader of the stored matrices: it walks each
    # matrix once, row by row, and each row's nonzero hits once, and those
    # hits give the images, the unit test and the inverse.  The rest of the
    # route names the stored maps only to hand them to it, and no second
    # unit test is left
    trees = _trees()
    src = Path(lcmkit.__file__).parent
    assert not [p.stem for p in src.glob("*.py") if "_is_unit_map" in p.read_text()]
    route = {node.name: node for node in trees["squarefree"].body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_koszul")}
    assert set(route) == {"_koszul_entries", "_koszul_maps", "_koszul_degree"}
    loops = [node for node in ast.walk(route["_koszul_maps"]) if isinstance(node, (ast.For, ast.comprehension))]
    over = {name: [loop for loop in loops if name in {getattr(n, "id", None) for n in ast.walk(loop.iter)}]
            for name in ("mult", "mat", "row", "hits")}
    assert {name: len(found) for name, found in over.items()} == {"mult": 1, "mat": 1, "row": 1, "hits": 1}
    entries = route["_koszul_entries"]
    handed = [node for node in ast.walk(entries) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_koszul_maps"]
    assert len(handed) == 1
    named = [node for node in ast.walk(entries) if getattr(node, "attr", None) in ("mult", "mult_masks")]
    assert named == [arg for arg in handed[0].args if getattr(arg, "attr", None) == "mult_masks"]
    stored = {"mult", "mult_masks", "_map", "map_matrix"}
    assert not stored & {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(route["_koszul_degree"])}


def test_edge_boundary_rank_has_one_owner():
    # the rank from edges to vertices is #vertices - #components, from the one
    # union-find of linalg._components, which only _homology_dims calls;
    # boundary rows are assembled, from cardinality 3 up, for the ranks of
    # _homology_dims alone
    trees = _trees()
    for name, owners in [("_components", {"linalg": ["_homology_dims"]}),
                         ("_boundary_rows", {"linalg": ["_homology_dims"]})]:
        callers = {module: sorted(set(found)) for module, tree in trees.items()
                   for found in [_uses(tree, name)] if found}
        assert callers == owners, name


def test_relative_faces_feed_only_the_homology_ranks():
    # only _homology_dims walks the faces outside a vertex star, and it
    # ranks no full face level: nothing in the package reads faces_by_card,
    # whose levels are full, so every column of the i-th boundary assembled
    # over them keeps all i + 1 entries; from_complex takes its faces from
    # the one face walk
    from lcmkit.complexes import cycle, full_simplex, real_projective_plane
    from lcmkit.linalg import _boundary_rows, faces_by_card

    trees = _trees()
    for name, owners in [("_relative_faces", {"linalg": ["_homology_dims"]}),
                         ("faces_by_card", {})]:
        callers = {module: sorted(set(found)) for module, tree in trees.items()
                   for found in [_uses(tree, name)] if found}
        assert callers == owners, name
    for delta in (cycle(5), real_projective_plane(), full_simplex(7).skeleton(3)):
        by_card = faces_by_card(delta.facet_masks)
        for i in range(delta.dimension() + 1):
            columns = _boundary_rows(by_card[i + 1], by_card[i])
            assert all(len(column) == i + 1 for column in columns), (delta, i)


def test_every_private_function_is_called():
    # a private function (methods and nested functions included) is named
    # somewhere in the package outside its own body, so retiring a public
    # helper cannot leave the code only it called behind
    trees = _trees()
    private = {fn.name for tree in trees.values() for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.endswith("__")}
    assert len(private) > 60
    orphans = sorted(name for name in private
                     if not any(where != name for tree in trees.values() for where in _uses(tree, name)))
    assert orphans == []


def test_sweeps_take_their_instances_and_fields():
    # the CLI owns every sweep default: each sweep takes its instances (but
    # remark45, whose instances are fixed) and its fields with no default,
    # and only verify builds the default instance lists
    from lcmkit import sweeps
    from lcmkit.linalg import QQ

    trees = _trees()
    found = {node.name: node.args for node in trees["sweeps"].body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("sweep_")}
    assert {name: [a.arg for a in args.args] for name, args in found.items()} == {
        "sweep_thm25": ["complexes", "fields"], "sweep_oracle": ["complexes", "fields"],
        "sweep_routes": ["posets", "fields"], "sweep_skeleton": ["scope", "complexes", "fields"],
        "sweep_thm44": ["posets", "fields"], "sweep_remark45": ["fields"]}
    for name, args in found.items():
        assert not args.defaults and not args.kwonlyargs and not args.vararg and not args.kwarg, name
    assert not hasattr(sweeps, "DEFAULT_FIELDS") and not any(_uses(tree, "DEFAULT_FIELDS") for tree in trees.values())
    for name in ("complex_scope", "poset_instances"):
        callers = {module: sorted(set(where)) for module, tree in trees.items()
                   for where in [_uses(tree, name)] if where}
        assert callers == {"cli": ["_cmd_verify"]}, name
    # the poset skeleton theorem is sweep_thm44's alone
    with pytest.raises(ValueError, match="^unknown scope 'thm44'$"):
        sweeps.sweep_skeleton("thm44", [], (QQ,))


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
