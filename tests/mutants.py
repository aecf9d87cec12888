"""Mutation harness: break ``src/lcmkit`` in one known way at a time and check
that the tests named for that break catch it.

Each row of ``MUTANTS`` is one mutant: a name, a file under ``src/lcmkit``,
the exact text it replaces (which occurs once in that file), the new text,
and the test node ids expected to fail.  A row marked ``survivor`` is a
known gap that no test catches yet.

    python tests/mutants.py          # every mutant, its named tests only
    python tests/mutants.py --all    # the whole tests directory per mutant

Each run copies ``src``, ``tests``, ``pyproject.toml`` and ``README.md``
(``tests/test_readme.py`` reads it) into a temporary
directory (under ``$TMPDIR``), applies one mutant to the copy of ``src``,
runs pytest there and reports the mutant as killed (some test failed) or
survived.  The exit status is 1 when a mutant not marked as a survivor
survives.  pytest does not collect this file; ``tests/test_layers.py``
checks that every old text still occurs exactly once, so a refactor that
moves a target must update its row here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/lcmkit
    old: str
    new: str
    tests: tuple[str, ...]
    survivor: bool = False


MUTANTS = (
    Mutant(
        "hochster-prunes-any-apex", "cm.py",
        "        if apex >= below:\n",
        "        if apex:\n",
        ("tests/test_cm.py::test_hochster_examples",
         "tests/test_cm.py::test_hochster_snapshot"),
    ),
    Mutant(
        "every-threshold-under-none", "linalg.py",
        "            hit, free = _certified(compute, facet_masks if invariant else canon, fieldspec, *extra)\n",
        "            hit, free = _certified(compute, facet_masks if invariant else canon, fieldspec, *extra)\n"
        "            free = free or invariant\n",
        ("tests/test_cm.py::test_q_verdicts_that_read_rp2_stay_with_q",
         "tests/test_cm.py::test_cached_thresholds_match_definition_in_any_order"),
    ),
    Mutant(
        "threshold-key-without-cap", "linalg.py",
        "    p = fieldspec.characteristic\n"
        "    hit, free = _lookup(compute, facet_masks, p, extra)\n"
        "    if hit is None:\n"
        "        canon = (_invariant_masks if invariant else _canonical_masks)(facet_masks)\n"
        "        if canon is not facet_masks:\n"
        "            hit, free = _lookup(compute, canon, p, extra)\n"
        "        if hit is None:\n"
        "            hit, free = _certified(compute, facet_masks if invariant else canon, fieldspec, *extra)\n",
        "    p = fieldspec.characteristic\n"
        "    cap, extra = extra, ()\n"
        "    hit, free = _lookup(compute, facet_masks, p, extra)\n"
        "    if hit is None:\n"
        "        canon = (_invariant_masks if invariant else _canonical_masks)(facet_masks)\n"
        "        if canon is not facet_masks:\n"
        "            hit, free = _lookup(compute, canon, p, extra)\n"
        "        if hit is None:\n"
        "            hit, free = _certified(compute, facet_masks if invariant else canon, fieldspec, *cap)\n",
        ("tests/test_cm.py::test_cached_thresholds_match_definition_in_any_order",),
    ),
    Mutant(
        "threshold-key-by-facet-sizes", "linalg.py",
        "    shift = len(facet_masks).bit_length()\n",
        "    return frozenset(map(int.bit_count, facet_masks))\n"
        "    shift = len(facet_masks).bit_length()\n",
        ("tests/test_linalg.py::test_invariant_key_is_a_relabelling",
         "tests/test_cm.py::test_cached_thresholds_match_definition_in_any_order"),
    ),
    Mutant(
        "no-taint-on-q-key-hit", "linalg.py",
        "    if hit is not None and not p:\n"
        "        _taint += 1\n",
        "    if hit is not None and not p:\n"
        "        pass\n",
        ("tests/test_cm.py::test_q_verdicts_that_read_rp2_stay_with_q",),
    ),
    Mutant(
        "no-distinct-supports-check", "posets.py",
        "            if support[y] in seen:\n",
        "            if False:\n",
        ("tests/test_posets.py::test_validation_agrees_with_the_definition",),
    ),
    Mutant(
        "first-entry-of-each-square", "squarefree.py",
        "            for lrow, rrow in zip(left, right):\n"
        "                out.extend((f, jb, kb, a - b) for a, b in zip(lrow, rrow) if a != b)\n",
        "            out.extend([(f, jb, kb, a - b) for lrow, rrow in zip(left, right)\n"
        "                        for a, b in zip(lrow, rrow) if a != b][:1])\n",
        ("tests/test_squarefree.py::test_commutativity_validation",
         "tests/test_squarefree.py::test_commutativity_error_names_the_first_surviving_defect"),
    ),
    Mutant(
        "restrict-drops-defects", "squarefree.py",
        "    return SquarefreeModule._from_masks(len(w), comp, mult, defects)\n",
        "    return SquarefreeModule._from_masks(len(w), comp, mult, [])\n",
        ("tests/test_squarefree.py::test_restriction_defects_match_a_scan",
         "tests/test_squarefree.py::test_restriction_validates_exactly_the_kept_squares"),
    ),
    Mutant(
        "skeleton-drops-defects", "squarefree.py",
        "    return SquarefreeModule._from_masks(module.n, comp, mult, defects)\n",
        "    return SquarefreeModule._from_masks(module.n, comp, mult, [])\n",
        ("tests/test_squarefree.py::test_skeleton_and_omega_defects_match_a_scan",),
    ),
    Mutant(
        "prime-field-value-counts-as-free", "linalg.py",
        "    return value, _taint == before and not fieldspec.characteristic\n",
        "    return value, _taint == before\n",
        ("tests/test_cm.py::test_q_verdicts_that_read_rp2_stay_with_q",),
    ),
    Mutant(
        "l-cm-cap-unclipped", "cm.py",
        "    cap = min(l - 1, n)\n",
        "    cap = l - 1\n",
        ("tests/test_squarefree.py::test_is_module_l_cm",),
    ),
    Mutant(
        "kept-dimension-of-empty-family", "cm.py",
        "    dim = max(map(int.bit_count, facet_masks), default=0) - 1\n",
        "    dim = max(map(int.bit_count, facet_masks), default=1) - 1\n",
        ("tests/test_posets.py::test_poset_cm_examples",),
    ),
    Mutant(
        "no-single-minimal-check", "posets.py",
        "    if queue != [bottom]:\n",
        "    if False:\n",
        ("tests/test_posets.py::test_invalid_posets",
         "tests/test_posets.py::test_validation_agrees_with_the_definition"),
    ),
    Mutant(
        "koszul-sign-not-alternating", "squarefree.py",
        "                a = -v if (g & (bit - 1)).bit_count() & 1 else v\n",
        "                a = v\n",
        ("tests/test_squarefree.py::test_koszul_matches_definition_oracle",),
    ),
    Mutant(
        "koszul-wrong-block", "squarefree.py",
        "                start = offset.get(h)\n",
        "                start = offset.get(g)\n",
        ("tests/test_squarefree.py::test_koszul_matches_definition_oracle",),
    ),
    Mutant(
        "non-pure-threshold-passes", "cm.py",
        "    if not _is_pure(facet_masks):\n"
        "        return 0\n",
        "    if not _is_pure(facet_masks):\n"
        "        return cap + 1\n",
        ("tests/test_cm.py::test_purity_rule_changes_no_verdict",
         "tests/test_cm.py::test_verdict_snapshot"),
    ),
    Mutant(
        "purity-rule-fires-on-pure-families", "complexes.py",
        "    return len(set(map(int.bit_count, facet_masks))) <= 1\n",
        "    return len(set(map(int.bit_count, facet_masks))) < 1\n",
        ("tests/test_complexes.py::test_dimension_and_purity",
         "tests/test_cm.py::test_purity_rule_changes_no_verdict"),
    ),
    Mutant(
        "reisner-non-pure-is-cm", "cm.py",
        "    if not _is_pure(facet_masks):\n"
        "        return False\n",
        "    if not _is_pure(facet_masks):\n"
        "        return True\n",
        ("tests/test_cm.py::test_purity_rule_changes_no_verdict",
         "tests/test_cm.py::test_reisner_matches_snf_oracle_exhaustive_n5"),
    ),
    Mutant(
        "empty-face-rank-without-guard", "linalg.py",
        "        if top >= 1:\n"
        "            ranks[1] = 1\n",
        "        ranks[1] = 1\n",
        ("tests/test_linalg.py::test_low_ranks_match_the_all_matrix_route_and_snf",),
    ),
    Mutant(
        "union-find-merges-on-every-edge", "linalg.py",
        "        if a != b:\n",
        "        if True:\n",
        ("tests/test_linalg.py::test_low_ranks_match_the_all_matrix_route_and_snf",),
    ),
    Mutant(
        "relative-to-the-open-star", "linalg.py",
        "    star = _face_masks(link)\n",
        "    star = {0}\n",
        ("tests/test_linalg.py::test_relative_homology_matches_the_all_matrix_route_and_snf",
         "tests/test_linalg.py::test_skeleton_homology_takes_no_rank"),
    ),
    Mutant(
        "relative-edge-rank-without-minus-one", "linalg.py",
        "        ranks[2] = counts[1] - (_components(vertices, by_card[2] + spokes) - 1)\n",
        "        ranks[2] = counts[1] - _components(vertices, by_card[2] + spokes)\n",
        ("tests/test_linalg.py::test_relative_homology_matches_the_all_matrix_route_and_snf",
         "tests/test_linalg.py::test_skeleton_homology_takes_no_rank"),
    ),
    Mutant(
        "relative-rows-keep-star-faces", "linalg.py",
        "            i = index.get(cell ^ bit)\n",
        "            i = index.setdefault(cell ^ bit, len(index))\n",
        ("tests/test_linalg.py::test_relative_homology_matches_the_all_matrix_route_and_snf",),
    ),
    Mutant(
        "reisner-skips-links-of-2-dim-families", "cm.py",
        "    if max(map(int.bit_count, facet_masks)) > 2:\n",
        "    if max(map(int.bit_count, facet_masks)) > 3:\n",
        ("tests/test_cm.py::test_reisner_matches_snf_oracle_exhaustive_n5",),
    ),
    Mutant(
        "skeleton-keeps-large-facet", "complexes.py",
        "            if fm.bit_count() <= k:\n"
        "                masks.add(fm)\n"
        "            else:\n",
        "            masks.add(fm)\n"
        "            if fm.bit_count() > k:\n",
        ("tests/test_complexes.py::test_derived_complexes_pass_the_validating_constructor",
         "tests/test_complexes.py::test_skeleton"),
    ),
    Mutant(
        "enumeration-keeps-covered-facets", "sweeps.py",
        "                facets.difference_update(covered)\n"
        "                facets.add(s)\n"
        "                yield from rec(j + 1)\n"
        "                chosen.remove(s)\n"
        "                facets.remove(s)\n"
        "                facets.update(covered)\n",
        "                facets.add(s)\n"
        "                yield from rec(j + 1)\n"
        "                chosen.remove(s)\n"
        "                facets.remove(s)\n",
        ("tests/test_complexes.py::test_derived_complexes_pass_the_validating_constructor",
         "tests/test_sweeps.py::test_enumeration_is_pinned"),
    ),
    Mutant(
        "link-keeps-empty-face", "complexes.py",
        "        return SimplicialComplex._from_masks(rest.bit_count(), frozenset(lk) - {0})\n",
        "        return SimplicialComplex._from_masks(rest.bit_count(), frozenset(lk))\n",
        ("tests/test_complexes.py::test_derived_complexes_pass_the_validating_constructor",
         "tests/test_complexes.py::test_masks_and_vertex_sets_agree"),
    ),
    Mutant(
        "module-door-accepts-non-int", "squarefree.py",
        "                if type(v) is not int:\n",
        "                if False:\n",
        ("tests/test_squarefree.py::test_module_door_refuses_non_int_entries",),
    ),
    Mutant(
        "koszul-unit-accepts-two", "squarefree.py",
        "            unit = unit and len(hits) == 1 and hits[0][1] in (1, -1)\n",
        "            unit = unit and len(hits) == 1 and hits[0][1] in (1, -1, 2, -2)\n",
        ("tests/test_squarefree.py::test_koszul_cone_rule_changes_no_table",
         "tests/test_squarefree.py::test_koszul_table_with_torsion_stays_with_q",
         "tests/test_squarefree.py::test_koszul_maps_match_a_walk_of_each_matrix"),
    ),
    Mutant(
        "koszul-unit-skips-column-check", "squarefree.py",
        "        if unit and len({b for b, _ in found}) == len(mat):\n",
        "        if unit:\n",
        ("tests/test_squarefree.py::test_koszul_cone_rule_changes_no_table",
         "tests/test_squarefree.py::test_repeated_column_module_by_hand",
         "tests/test_squarefree.py::test_koszul_maps_match_a_walk_of_each_matrix"),
    ),
    Mutant(
        "koszul-apex-not-inherited", "squarefree.py",
        "            a &= apex[src] | bit\n",
        "",
        ("tests/test_squarefree.py::test_koszul_cone_rule_changes_no_table",
         "tests/test_squarefree.py::test_koszul_skips_exactly_the_cones_of_face_rings"),
    ),
    Mutant(
        "koszul-morse-drops-zigzag", "squarefree.py",
        "                elif not h & j:\n",
        "                elif False:\n",
        ("tests/test_squarefree.py::test_twisted_koszul_tables_match_the_unreduced_route",
         "tests/test_squarefree.py::test_koszul_matches_definition_oracle"),
    ),
    Mutant(
        "koszul-morse-inverse-sign-flipped", "squarefree.py",
        "                    a *= -w\n",
        "                    a *= w\n",
        ("tests/test_squarefree.py::test_twisted_koszul_tables_match_the_unreduced_route",),
    ),
    Mutant(
        "koszul-morse-cancels-any-nonzero-pair", "squarefree.py",
        "        if (upper, j) not in inverse:\n",
        "        if not (upper in comp and upper | j in comp):\n",
        ("tests/test_squarefree.py::test_twisted_koszul_tables_match_the_unreduced_route",
         "tests/test_squarefree.py::test_repeated_column_module_by_hand",
         "tests/test_squarefree.py::test_koszul_table_with_torsion_stays_with_q"),
    ),
    Mutant(
        "face-ring-cover-transposed", "posets.py",
        "            mat[pos[y]][c] = 1\n",
        "            mat[c][pos[y]] = 1\n",
        ("tests/test_posets.py::test_face_ring_module_matches_the_scan",
         "tests/test_posets.py::test_face_ring_module_glued"),
    ),
    Mutant(
        "from-complex-map-keyed-on-face", "squarefree.py",
        "    mult = {(g ^ b, b): ((1,),) for g in faces for b in _bits(g)}\n",
        "    mult = {(g, b): ((1,),) for g in faces for b in _bits(g)}\n",
        ("tests/test_squarefree.py::test_from_complex_matches_the_scan",
         "tests/test_posets.py::test_face_ring_module_of_face_poset_is_face_ring"),
    ),
    Mutant(
        "fieldspec-accepts-any-number", "linalg.py",
        "        if type(p) is not int:\n",
        "        if not isinstance(p, (int, float)):\n",
        ("tests/test_linalg.py::test_fieldspec",),
    ),
    Mutant(
        "module-door-accepts-any-variable", "squarefree.py",
        "            if type(j) is not int or j in face or not 1 <= j <= n:\n",
        "            if j in face or not 1 <= j <= n:\n",
        ("tests/test_squarefree.py::test_module_shape_validation",),
    ),
    Mutant(
        "deletion-keeps-every-cut-facet", "complexes.py",
        "            for k in kept:\n"
        "                if cut & k == cut:\n"
        "                    break\n"
        "            else:\n"
        "                out.add(cut)\n",
        "            out.add(cut)\n",
        ("tests/test_complexes.py::test_deletion_masks_matches_the_whole_family_filter",
         "tests/test_cm.py::test_level_search_matches_the_combinations_search"),
    ),
    Mutant(
        "wide-deletion-skips-the-maximality-pass", "complexes.py",
        "    return _maximal_masks(out) if drop & (drop - 1) else frozenset(out)\n",
        "    return frozenset(out)\n",
        ("tests/test_complexes.py::test_deletion_masks_matches_the_whole_family_filter",),
    ),
    Mutant(
        "level-child-from-the-root", "cm.py",
        "        visit = ((child(state, groups[j]), j + 1) for state, start in passed for j in range(start, len(groups)))\n",
        "        visit = ((child(root, groups[j]), j + 1) for state, start in passed for j in range(start, len(groups)))\n",
        ("tests/test_cm.py::test_level_search_matches_the_combinations_search",
         "tests/test_cm.py::test_cached_thresholds_match_definition_in_any_order"),
    ),
    Mutant(
        "level-child-from-the-level-before", "cm.py",
        "        passed = []\n",
        "        passed = passed if size else []\n",
        ("tests/test_cm.py::test_level_search_matches_the_combinations_search",),
    ),
    Mutant(
        "level-child-takes-an-earlier-group", "cm.py",
        "for state, start in passed for j in range(start, len(groups))",
        "for state, start in passed for j in range(len(groups))",
        ("tests/test_cm.py::test_level_search_matches_the_combinations_search",),
    ),
    Mutant(
        "bareiss-leaves-zero-entry-rows-unscaled", "linalg.py",
        "            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], prow)]\n",
        "            if f:\n"
        "                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], prow)]\n",
        ("tests/test_linalg.py::test_rank_against_oracles_on_sparse_matrices",),
    ),
    Mutant(
        "rank-converts-any-number", "linalg.py",
        "if type(v) is not int and type(v) is not Fraction]\n",
        "if not isinstance(v, (int, float, Fraction))]\n",
        ("tests/test_linalg.py::test_rank_refuses_entries_that_are_not_ints_or_fractions",),
    ),
    Mutant(
        "complex-door-accepts-bool-vertices", "complexes.py",
        "            if not all(type(v) is int for f in faces for v in f):\n",
        "            if not all(isinstance(v, int) for f in faces for v in f):\n",
        ("tests/test_complexes.py::test_from_facets_rejects_bad_vertices",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's old text, which must occur once, in ``src``."""
    path = src / "lcmkit" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant, work: Path, whole: bool) -> list[str]:
    """The failing test ids with the mutant applied to a fresh copy of src."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, src)
    # the check that every old text occurs fails on any mutated copy
    targets = ["tests", "--deselect", "tests/test_layers.py::test_mutant_targets_occur_once"] \
        if whole else list(mutant.tests)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *targets],
        cwd=work, env=env, capture_output=True, text=True)
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all", action="store_true",
                        help="run the whole tests directory per mutant, to find the tests of a new row")
    args = parser.parse_args(argv)
    bad = 0
    with tempfile.TemporaryDirectory(prefix="lcmkit-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        for mutant in MUTANTS:
            failed = run(mutant, work, args.all)
            status = "killed" if failed else "survived"
            if mutant.survivor:
                status += " (known survivor)"
            elif not failed:
                bad += 1
            print(f"{mutant.name}: {status}, {len(failed)} failing", flush=True)
            for node in failed:
                print(f"    {node}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
