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
        survivor=True,
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
