"""Record the snapshots that ``test_cm.test_verdict_snapshot``,
``test_cm.test_hochster_snapshot``,
``test_squarefree.test_module_verdict_snapshot`` and
``test_posets.test_poset_structure_snapshot`` compare.

``verdicts.tsv``: one row per (complex, field), the l-CM threshold and the
reduced homology dims (degree -1 first) over Q, GF(2) and GF(3), for every
complex on at most four vertices, RP² and the boundary of the 4-simplex.

``module_verdicts.tsv``: one row per (module, field) over the same fields,
the module l-CM threshold, the Koszul Betti table rows (``i:F:beta``) and a
digest of the module file, for the face ring modules of the poset suite with
20 random posets, the face rings of every complex on at most four vertices
and the one-component modules on at most three variables.

``hochster_tables.tsv``: one row per (complex, field) over the same fields,
a digest of the facet file and of the ``to_tsv()`` of ``hochster_betti``, for
the boundaries of the 3- to 6-dimensional cross-polytopes under three seeded
relabellings each, every skeleton of the simplex on at most nine vertices,
the cone over RP², RP² joined with the square, 12 seeded random complexes on
6-9 vertices, a relabelled 5-cycle on 8 vertices (vertex count above the
support) and the empty complexes on 0 and 3 vertices.

``poset_structure.tsv``: one row per poset of the poset suite with 20 random
posets (which holds ``glued_simplices(d, m)`` for d, m <= 3): a digest of the
poset file, the rank and atom support of every element in element order, and
a digest of every element's down-set and upper covers.

``poset_validation.tsv``: what ``SimplicialPoset.build`` makes of the
seeded random graded cover sets ``random_cover_set(0..VALIDATION_CASES-1)``:
one row per outcome (acceptance, or the exception class and its message
with ids and numbers blanked) with its count and a digest of its case
numbers and full messages.

Run from the repo root to rewrite the snapshots:

    PYTHONPATH=src python tests/record_verdicts.py

Rewrite them only for a change that is meant to alter a verdict, a Betti
table, the module file form or the structure of a built poset.
"""

import hashlib
import random
import re
from itertools import combinations, product
from pathlib import Path

from lcmkit.cm import hochster_betti, l_cm_threshold
from lcmkit.complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle,
    format_facet_file,
    full_simplex,
    real_projective_plane,
)
from lcmkit.errors import PosetValidationError
from lcmkit.linalg import FieldSpec, reduced_homology
from lcmkit.posets import SimplicialPoset, face_ring_module, format_poset_file
from lcmkit.squarefree import (
    format_module_file,
    from_complex,
    koszul_betti,
    module_l_cm_threshold,
    omega_module,
)
from lcmkit.sweeps import enumerate_complexes, poset_instances, random_complex

SNAPSHOT = Path(__file__).parent / "data" / "verdicts.tsv"
HOCHSTER_SNAPSHOT = Path(__file__).parent / "data" / "hochster_tables.tsv"
MODULE_SNAPSHOT = Path(__file__).parent / "data" / "module_verdicts.tsv"
POSET_SNAPSHOT = Path(__file__).parent / "data" / "poset_structure.tsv"
VALIDATION_SNAPSHOT = Path(__file__).parent / "data" / "poset_validation.tsv"
VALIDATION_CASES = 20000
FIELDS = (("q", FieldSpec(0)), ("p:2", FieldSpec(2)), ("p:3", FieldSpec(3)))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def instances():
    yield "empty_n0", SimplicialComplex.empty(0)
    for n in range(1, 5):
        for idx, delta in enumerate(enumerate_complexes(n)):
            yield f"enum_n{n}_{idx}", delta
    yield "rp2", real_projective_plane()
    yield "boundary_simplex_4", boundary_simplex(4)


def render() -> str:
    lines = ["instance\tfacets\tfield\tthreshold\thomology"]
    for name, delta in instances():
        facets = " ".join(
            ",".join(map(str, f)) for f in sorted(sorted(f) for f in delta.facets)
        ) or "-"
        for flag, fieldspec in FIELDS:
            dims = ",".join(map(str, reduced_homology(delta, fieldspec).dims))
            threshold = l_cm_threshold(delta, fieldspec)
            lines.append(f"{name}\t{facets}\t{flag}\t{threshold}\t{dims}")
    return "\n".join(lines) + "\n"


def relabel(delta, perm, vertex_count):
    """``delta`` with vertex v renamed perm[v - 1], on ``vertex_count`` vertices."""
    return SimplicialComplex.from_facets(
        ([perm[v - 1] for v in f] for f in delta.facets), vertex_count=vertex_count
    )


def cone(delta):
    """``delta`` with a new last vertex joined to every facet."""
    apex = delta.vertex_count + 1
    return SimplicialComplex.from_facets((f | {apex} for f in delta.facets), vertex_count=apex)


def join(a, b):
    """The join: ``b``'s vertices follow ``a``'s."""
    n = a.vertex_count
    return SimplicialComplex.from_facets(
        (f | {v + n for v in g} for f in a.facets for g in b.facets),
        vertex_count=n + b.vertex_count,
    )


def cross_polytope(d):
    """Boundary of the d-dimensional cross-polytope; 2i-1 and 2i are antipodal."""
    facets = [[2 * i + 1 + c for i, c in enumerate(pick)] for pick in product((0, 1), repeat=d)]
    return SimplicialComplex.from_facets(facets, vertex_count=2 * d)


def hochster_instances():
    rng = random.Random(13)
    for d in range(3, 7):
        for r in range(3):  # seeded relabellings put cone points on low and high bits
            yield f"cross_{d}_r{r}", relabel(cross_polytope(d), rng.sample(range(1, 2 * d + 1), 2 * d), 2 * d)
    for n in range(1, 10):
        for k in range(0, n):
            yield f"skel_{n}_{k}", full_simplex(n).skeleton(k)
    rp2 = real_projective_plane()
    yield "rp2_cone", cone(rp2)
    yield "rp2_join_cross_2", join(rp2, cross_polytope(2))
    for idx in range(12):
        n = 6 + idx % 4
        yield f"random_{idx}", random_complex(n, rng.uniform(0.3, 0.8), rng.randrange(10**6))
    yield "cycle_5_on_8", relabel(cycle(5), [7, 2, 5, 1, 4], 8)
    yield "empty_n0", SimplicialComplex.empty(0)
    yield "empty_n3", SimplicialComplex.empty(3)


def render_hochster() -> str:
    lines = ["instance\tvertex_count\tfile_sha256\tfield\ttable_sha256"]
    for name, delta in hochster_instances():
        digest = _digest(format_facet_file(delta))
        for flag, fieldspec in FIELDS:
            table = _digest(hochster_betti(delta, fieldspec).to_tsv())
            lines.append(f"{name}\t{delta.vertex_count}\t{digest}\t{flag}\t{table}")
    return "\n".join(lines) + "\n"


def module_instances():
    for name, poset in poset_instances(random_count=20):
        yield f"face_ring_module({name})", face_ring_module(poset)
    for name, delta in instances():
        if delta.vertex_count <= 4:
            yield f"from_complex({name})", from_complex(delta)
    for n in range(0, 4):
        for k in range(0, n + 1):
            for deg in combinations(range(1, n + 1), k):
                yield f"omega_{n}_{''.join(map(str, deg)) or '0'}", omega_module(n, deg)


def render_modules() -> str:
    lines = ["instance\tfile_sha256\tfield\tthreshold\tbetti"]
    for name, module in module_instances():
        digest = _digest(format_module_file(module))
        for flag, fieldspec in FIELDS:
            rows = koszul_betti(module, fieldspec).to_tsv().splitlines()[1:]
            betti = " ".join(row.replace("\t", ":") for row in rows) or "-"
            threshold = module_l_cm_threshold(module, fieldspec)
            lines.append(f"{name}\t{digest}\t{flag}\t{threshold}\t{betti}")
    return "\n".join(lines) + "\n"


def render_posets() -> str:
    lines = ["instance\tfile_sha256\trank\tsupports\tstructure_sha256"]
    for name, poset in poset_instances(random_count=20):
        rank = ",".join(map(str, poset.rank))
        supports = " ".join(",".join(map(str, sorted(s))) or "-" for s in poset.support)
        structure = "".join(
            f"{x}: {[y for y in range(poset.size) if poset.down_masks[x] >> y & 1]} {poset.upper_covers(x)}\n"
            for x in range(poset.size)
        )
        lines.append(f"{name}\t{_digest(format_poset_file(poset))}\t{rank}\t{supports}\t{_digest(structure)}")
    return "\n".join(lines) + "\n"


def random_cover_set(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A seeded random graded cover set on elements 0..size-1 with bottom 0.

    Rank levels of random width: an atom covers the bottom.  A higher
    element of rank r mostly takes for U the atoms below a random element of
    the level below plus one more atom, and covers, for each a in U, one
    element of that level over U - {a} (one over a subset of U where there
    is none); it is left out when #U != r.  Otherwise it covers a random
    choice of the level below.  Now and then one pair is added or removed
    anywhere.  Returns (size, pairs)."""
    rng = random.Random(seed)
    levels = [[0]]
    pairs: list[tuple[int, int]] = []
    atoms_below = [frozenset()]  # the atoms below each element, by its pairs
    for r in range(1, rng.randint(1, 4) + 1):
        lower = levels[-1]
        if not lower:
            break
        level = []
        for _ in range(rng.randint(1, 4)):
            if r == 1:
                picks = [0]
            elif rng.random() < 0.1:
                picks = rng.sample(lower, min(rng.randint(1, r + 1), len(lower)))
            else:
                base = atoms_below[rng.choice(lower)]
                u = base | {rng.choice([a for a in levels[1] if a not in base] or levels[1])}
                if len(u) != r:
                    continue
                picks = []
                for a in sorted(u):
                    over = [y for y in lower if atoms_below[y] == u - {a}]
                    picks.append(rng.choice(over or [y for y in lower if atoms_below[y] <= u]))
            picks = sorted(set(picks))
            x = len(atoms_below)
            pairs.extend((y, x) for y in picks)
            atoms_below.append(frozenset([x]) if r == 1 else frozenset().union(*(atoms_below[y] for y in picks)))
            level.append(x)
        levels.append(level)
    size = len(atoms_below)
    roll = rng.random()
    if roll < 0.04 and size > 1:
        a, b = rng.sample(range(size), 2)
        if (a, b) not in pairs:
            pairs.append((a, b))
    elif roll < 0.08:
        pairs.pop(rng.randrange(len(pairs)))
    return size, pairs


def validation_outcome(size: int, pairs) -> str:
    """What ``build`` makes of a cover set: "accepted", or the class and
    message of the error it raises."""
    try:
        SimplicialPoset.build(range(size), 0, pairs)
    except PosetValidationError as e:
        return f"{type(e).__name__}: {e}"
    return "accepted"


def render_validation(outcomes: list[str]) -> str:
    by_kind: dict[str, list[str]] = {}
    for case, outcome in enumerate(outcomes):
        kind = re.sub(r"'[^']*'|\[[^\]]*\]|\d+", "_", outcome)
        by_kind.setdefault(kind, []).append(f"{case}\t{outcome}\n")
    lines = ["outcome\tcount\tcases_sha256"]
    for kind, rows in sorted(by_kind.items()):
        lines.append(f"{kind}\t{len(rows)}\t{_digest(''.join(rows))}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    SNAPSHOT.write_text(render())
    HOCHSTER_SNAPSHOT.write_text(render_hochster())
    MODULE_SNAPSHOT.write_text(render_modules())
    POSET_SNAPSHOT.write_text(render_posets())
    VALIDATION_SNAPSHOT.write_text(render_validation(
        [validation_outcome(*random_cover_set(seed)) for seed in range(VALIDATION_CASES)]))
