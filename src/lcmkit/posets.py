"""Simplicial posets: posets with a bottom element whose lower intervals are
boolean algebras.

Cells are the nonbottom elements; the atoms (rank-1 elements) play the role
of vertices.  The order complex of the nonbottom part triangulates the cell
complex the poset describes, so Cohen-Macaulayness is decided there.  The
face ring is carried as a squarefree module over the polynomial ring on the
atoms: one basis element per cell, multiplication sending a cell to the sum
of the cells covering it with the right support.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .complexes import SimplicialComplex
from .cm import _deletion_fails, _smallest_failing_deletion, is_cohen_macaulay
from .errors import (
    MultipleMinimalError,
    NonBooleanIntervalError,
    ParseError,
    PosetValidationError,
    RankMismatchError,
    VoidComplexError,
)
from .linalg import FieldSpec
from .squarefree import SquarefreeModule


@dataclass(frozen=True)
class SimplicialPoset:
    """Validated simplicial poset.

    ``ids`` fixes the element order (and therefore the numbering of the
    atoms); ``covers`` holds index pairs (lower, upper).  ``rank`` and
    ``support`` are derived: support[x] is the set of atom numbers (1-based,
    in ids order) lying below x.  Instances are built through ``build`` or
    the generators, which validate every invariant.
    """

    ids: tuple[str, ...]
    bottom: int
    covers: frozenset[tuple[int, int]]
    rank: tuple[int, ...]
    support: tuple[frozenset[int], ...]
    atoms: tuple[int, ...]

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, ids, bottom_id: str, cover_id_pairs) -> "SimplicialPoset":
        """Validate raw data (element ids, bottom id, cover pairs) and build."""
        ids = tuple(str(i) for i in ids)
        if len(set(ids)) != len(ids):
            raise PosetValidationError("duplicate element ids")
        if not ids:
            raise PosetValidationError("a simplicial poset has at least the bottom element")
        for e in ids:
            if not e or "#" in e or any(ch.isspace() for ch in e):
                raise PosetValidationError(f"id {e!r} would break the poset file format")
        index = {e: i for i, e in enumerate(ids)}
        if str(bottom_id) not in index:
            raise PosetValidationError(f"bottom {bottom_id!r} is not an element")
        bottom = index[str(bottom_id)]
        covers = set()
        for a, b in cover_id_pairs:
            a, b = str(a), str(b)
            if a not in index or b not in index:
                raise PosetValidationError(f"cover ({a!r}, {b!r}) references unknown element")
            if a == b:
                raise PosetValidationError(f"cover ({a!r}, {a!r}) is a loop")
            covers.add((index[a], index[b]))
        return _validate(ids, bottom, frozenset(covers))

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def vertex_count(self) -> int:
        return len(self.atoms)

    def max_rank(self) -> int:
        return max(self.rank)

    @cached_property
    def _down_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(_ranks_and_down_sets(self.ids, self.bottom, self.covers)[1])

    def down_set(self, x: int) -> frozenset[int]:
        """Indices of all elements <= x."""
        return self._down_sets[x]

    def leq(self, x: int, y: int) -> bool:
        return x in self.down_set(y)

    def upper_covers(self, x: int) -> list[int]:
        return sorted(b for a, b in self.covers if a == x)

    def index_of(self, element_id: str) -> int:
        try:
            return self.ids.index(str(element_id))
        except ValueError:
            raise KeyError(f"no element {element_id!r}") from None

    def __repr__(self):
        return f"SimplicialPoset({self.size} elements, rank {self.max_rank()})"


def _ranks_and_down_sets(
    ids: tuple[str, ...], bottom: int, covers: frozenset[tuple[int, int]]
) -> tuple[list[int], list[frozenset[int]]]:
    """Rank and down-set of every element, from one topological pass over
    the covers.  Raises when two saturated chains from the bottom to one
    element differ in length, or when the covers contain a cycle."""
    size = len(ids)
    indeg = [0] * size
    uppers: list[list[int]] = [[] for _ in range(size)]
    for a, b in covers:
        indeg[b] += 1
        uppers[a].append(b)
    rank = [-1] * size
    rank[bottom] = 0
    below = [{x} for x in range(size)]
    visited = 0
    queue = [x for x in range(size) if indeg[x] == 0]
    while queue:
        x = queue.pop()
        visited += 1
        for y in uppers[x]:
            below[y] |= below[x]
            if rank[y] == -1:
                rank[y] = rank[x] + 1
            elif rank[y] != rank[x] + 1:
                raise RankMismatchError(
                    f"element {ids[y]!r} is reached by chains of different lengths"
                )
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if visited != size:
        raise PosetValidationError("cover relations contain a cycle")
    return rank, [frozenset(s) for s in below]


def _validate(ids: tuple[str, ...], bottom: int, covers: frozenset[tuple[int, int]]) -> SimplicialPoset:
    size = len(ids)
    has_lower = {b for _, b in covers}
    minimal = [x for x in range(size) if x not in has_lower]
    if minimal != [bottom]:
        names = sorted(ids[x] for x in minimal)
        raise MultipleMinimalError(
            f"expected the single minimal element {ids[bottom]!r}, found {names}"
        )
    rank, below = _ranks_and_down_sets(ids, bottom, covers)
    atoms = tuple(x for x in range(size) if rank[x] == 1)
    atom_number = {x: v + 1 for v, x in enumerate(atoms)}
    support = [frozenset(atom_number[a] for a in below[x] if rank[a] == 1) for x in range(size)]
    for x in range(size):
        if rank[x] != len(support[x]):
            raise RankMismatchError(
                f"element {ids[x]!r} has rank {rank[x]} but {len(support[x])} atoms below"
            )

    # boolean intervals: y -> support(y) is an order isomorphism from [bottom, x]
    # onto the subsets of support(x)
    for x in range(size):
        dset = sorted(below[x])
        if len(dset) != 1 << rank[x]:
            raise NonBooleanIntervalError(
                f"interval below {ids[x]!r} has {len(dset)} elements, "
                f"expected {1 << rank[x]}"
            )
        seen = set()
        for y in dset:
            if support[y] in seen:
                raise NonBooleanIntervalError(
                    f"two elements below {ids[x]!r} share the atom set "
                    f"{sorted(support[y])}"
                )
            seen.add(support[y])
        for y in dset:
            for z in dset:
                if (y in below[z]) != (support[y] <= support[z]):
                    raise NonBooleanIntervalError(
                        f"interval below {ids[x]!r} is not ordered by atom sets"
                    )

    return SimplicialPoset(ids, bottom, covers, tuple(rank), tuple(support), atoms)


# -- operations -------------------------------------------------------------------


def join_set(poset: SimplicialPoset, x: int, y: int) -> frozenset[int]:
    """Minimal elements of the common upper bounds of x and y (may be empty)."""
    below = poset._down_sets
    ups = [z for z in range(poset.size) if x in below[z] and y in below[z]]
    upset = set(ups)
    return frozenset(z for z in ups if not any(w != z and w in below[z] for w in upset))


def atom_class(poset: SimplicialPoset, atom_set) -> tuple[int, ...]:
    """All elements whose atom support is exactly the given set of atoms."""
    want = frozenset(atom_set)
    return tuple(x for x in range(poset.size) if poset.support[x] == want)


def restrict_poset(poset: SimplicialPoset, keep_atoms) -> SimplicialPoset:
    """Induced subposet of the elements supported inside the given atoms."""
    w = frozenset(keep_atoms)
    if not all(1 <= v <= poset.vertex_count for v in w):
        raise ValueError("atom subset out of range")
    return _induced_subposet(poset, [x for x in range(poset.size) if poset.support[x] <= w])


def delete_atoms(poset: SimplicialPoset, drop_atoms) -> SimplicialPoset:
    d = frozenset(drop_atoms)
    return restrict_poset(poset, (v for v in range(1, poset.vertex_count + 1) if v not in d))


def poset_skeleton(poset: SimplicialPoset, i: int) -> SimplicialPoset:
    """Induced subposet of the elements of rank <= i."""
    if i < 0:
        raise ValueError("skeleton rank must be >= 0")
    return _induced_subposet(poset, [x for x in range(poset.size) if poset.rank[x] <= i])


def _induced_subposet(poset: SimplicialPoset, kept: list[int]) -> SimplicialPoset:
    """The validated subposet on the elements ``kept``, renumbered in order."""
    renum = {x: i for i, x in enumerate(kept)}
    covers = frozenset(
        (renum[a], renum[b]) for a, b in poset.covers if a in renum and b in renum
    )
    return _validate(tuple(poset.ids[x] for x in kept), renum[poset.bottom], covers)


def order_complex(poset: SimplicialPoset) -> SimplicialComplex:
    """Complex of chains of the nonbottom part; facets are the saturated
    chains from an atom up to a maximal element."""
    nonbottom = [x for x in range(poset.size) if x != poset.bottom]
    bit = {x: 1 << i for i, x in enumerate(nonbottom)}
    uppers: dict[int, list[int]] = {x: [] for x in range(poset.size)}
    for a, b in poset.covers:
        uppers[a].append(b)
    chains: set[int] = set()

    def grow(x: int, chain: int):
        chain |= bit[x]
        if uppers[x]:
            for y in uppers[x]:
                grow(y, chain)
        else:
            chains.add(chain)

    for a in poset.atoms:
        grow(a, 0)
    return SimplicialComplex(len(nonbottom), frozenset(chains))


def is_poset_cm(poset: SimplicialPoset, fieldspec: FieldSpec) -> bool:
    """Cohen-Macaulayness of the cells, decided on the order complex."""
    return is_cohen_macaulay(order_complex(poset), fieldspec)


def is_poset_l_cm(poset: SimplicialPoset, l: int, fieldspec: FieldSpec) -> bool:
    """True iff deleting any fewer than l atoms leaves a Cohen-Macaulay poset
    of unchanged rank."""
    if l < 1:
        raise ValueError("l must be >= 1")
    cap = min(l - 1, poset.vertex_count)
    return _atom_deletion_threshold(poset, fieldspec, cap) > cap


def max_poset_l(poset: SimplicialPoset, fieldspec: FieldSpec) -> int:
    """Largest l in [1, #atoms] such that the poset is l-CM; 0 when not CM."""
    return min(poset_l_cm_threshold(poset, fieldspec), poset.vertex_count)


def poset_l_cm_threshold(poset: SimplicialPoset, fieldspec: FieldSpec) -> int:
    """Smallest cardinality of an atom deletion breaking Cohen-Macaulayness
    or dropping the rank; #atoms + 1 when every deletion passes."""
    return _atom_deletion_threshold(poset, fieldspec, poset.vertex_count)


def _atom_deletion_threshold(poset: SimplicialPoset, fieldspec: FieldSpec, cap: int) -> int:
    # The order complex of an atom deletion is the subcomplex of the order
    # complex induced on the cells supported off the deleted atoms: atom a
    # removes the vertices (nonbottom cells, in order_complex's numbering)
    # whose support contains a.
    cells = [poset.support[x] for x in range(poset.size) if x != poset.bottom]
    groups = [sum(1 << bit for bit, s in enumerate(cells) if a in s)
              for a in range(1, poset.vertex_count + 1)]
    fails = _deletion_fails(order_complex(poset).facet_masks, poset.max_rank() - 1, fieldspec)
    return _smallest_failing_deletion(groups, cap, fails)


def face_ring_module(poset: SimplicialPoset) -> SquarefreeModule:
    """The face ring as a squarefree module over the polynomial ring on the
    atoms: the component at F has one basis element per cell with atom set F,
    and multiplication by an atom sends a cell to the sum of the cells
    covering it with the enlarged atom set."""
    n = poset.vertex_count
    classes: dict[frozenset[int], list[int]] = {}
    for x in range(poset.size):
        classes.setdefault(poset.support[x], []).append(x)
    for members in classes.values():
        members.sort()
    comp = {f: len(members) for f, members in classes.items()}
    upper: dict[int, list[int]] = {x: [] for x in range(poset.size)}
    for a, b in poset.covers:
        upper[a].append(b)
    mult = {}
    for f, members in classes.items():
        for j in range(1, n + 1):
            if j in f:
                continue
            target = classes.get(f | {j})
            if not target:
                continue
            pos = {x: r for r, x in enumerate(target)}
            mat = [[0] * len(members) for _ in target]
            for c, x in enumerate(members):
                for b in upper[x]:
                    r = pos.get(b)
                    if r is not None:
                        mat[r][c] = 1
            mult[(f, j)] = tuple(tuple(row) for row in mat)
    return SquarefreeModule(n, comp, mult)


# -- generators ------------------------------------------------------------------


def face_poset(delta: SimplicialComplex) -> SimplicialPoset:
    """The poset of faces of a complex, ordered by inclusion."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no face poset")
    faces = sorted(delta.all_faces(), key=lambda f: (len(f), sorted(f)))
    ids = tuple("-" if not f else ",".join(str(v) for v in sorted(f)) for f in faces)
    index = {f: i for i, f in enumerate(faces)}
    covers = set()
    for f in faces:
        for v in sorted(f):
            covers.add((index[f - {v}], index[f]))
    return _validate(ids, index[frozenset()], frozenset(covers))


def glued_simplices(d: int, m: int) -> SimplicialPoset:
    """m top-dimensional cells glued along the full boundary of a d-simplex:
    all proper subsets of {1..d+1} plus m maximal elements covering every
    d-subset.  m = 1 is the boolean lattice of a single simplex."""
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    verts = list(range(1, d + 2))
    subsets = []
    for k in range(0, d + 1):
        subsets.extend(frozenset(c) for c in combinations(verts, k))
    ids = ["-" if not s else ",".join(str(v) for v in sorted(s)) for s in subsets]
    index = {s: i for i, s in enumerate(subsets)}
    covers = set()
    for s in subsets:
        for v in sorted(s):
            covers.add((index[s - {v}], index[s]))
    tops = [f"T{t}" for t in range(1, m + 1)]
    full = frozenset(verts)
    for t, tid in enumerate(tops):
        ti = len(subsets) + t
        for v in verts:
            covers.add((index[full - {v}], ti))
    return _validate(tuple(ids) + tuple(tops), index[frozenset()], frozenset(covers))


def random_simplicial_poset(n: int, rank: int, seed: int) -> SimplicialPoset:
    """Seeded random simplicial poset on at most n atoms with rank <= rank.

    Built upward rank by rank: over each candidate atom set a random number
    of cells is created, each picking compatible lower covers; incompatible
    picks are rejected and retried.  The result is validated before return.
    """
    if n < 1 or rank < 1:
        raise ValueError("need n >= 1 and rank >= 1")
    rng = random.Random(seed)
    ids = ["-"] + [str(v) for v in range(1, n + 1)]
    covers: list[tuple[int, int]] = [(0, v) for v in range(1, n + 1)]
    by_support: dict[frozenset[int], list[int]] = {frozenset(): [0]}
    below: dict[int, frozenset[int]] = {0: frozenset([0])}
    for v in range(1, n + 1):
        by_support[frozenset([v])] = [v]
        below[v] = frozenset([0, v])
    support_of: dict[int, frozenset[int]] = {0: frozenset()}
    for v in range(1, n + 1):
        support_of[v] = frozenset([v])

    for r in range(2, rank + 1):
        for combo in combinations(range(1, n + 1), r):
            u = frozenset(combo)
            if any(u - {a} not in by_support for a in u):
                continue
            count = rng.choice((0, 0, 1, 1, 1, 2))
            for _ in range(count):
                for _attempt in range(4):
                    picks = [rng.choice(by_support[u - {a}]) for a in sorted(u)]
                    union: set[int] = set()
                    for y in picks:
                        union |= below[y]
                    supports_seen = [support_of[y] for y in union]
                    if len(supports_seen) == len(set(supports_seen)) == (1 << r) - 1:
                        x = len(ids)
                        copy = len(by_support.get(u, []))
                        ids.append(",".join(str(v) for v in sorted(u)) + f".{copy}")
                        for y in set(picks):
                            covers.append((y, x))
                        by_support.setdefault(u, []).append(x)
                        below[x] = frozenset(union | {x})
                        support_of[x] = u
                        break
    return _validate(tuple(ids), 0, frozenset(covers))


# -- poset file format --------------------------------------------------------------
#
#   elements <id> <id> ...
#   bottom <id>
#   cover <a> <b>


def parse_poset_file(text: str) -> SimplicialPoset:
    ids: list[str] = []
    bottom: str | None = None
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "elements":
            ids.extend(parts[1:])
        elif parts[0] == "bottom" and len(parts) == 2:
            if bottom is not None:
                raise ParseError(f"line {lineno}: repeated bottom line")
            bottom = parts[1]
        elif parts[0] == "cover" and len(parts) == 3:
            covers.append((parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if not ids:
        raise ParseError("missing `elements` line")
    if bottom is None:
        raise ParseError("missing `bottom <id>` line")
    return SimplicialPoset.build(ids, bottom, covers)


def format_poset_file(poset: SimplicialPoset) -> str:
    order = sorted(range(poset.size), key=lambda x: (poset.rank[x], poset.ids[x]))
    lines = ["elements " + " ".join(poset.ids[x] for x in order)]
    lines.append(f"bottom {poset.ids[poset.bottom]}")
    for a, b in sorted(poset.covers, key=lambda ab: (poset.rank[ab[0]], poset.ids[ab[0]], poset.ids[ab[1]])):
        lines.append(f"cover {poset.ids[a]} {poset.ids[b]}")
    return "\n".join(lines) + "\n"
