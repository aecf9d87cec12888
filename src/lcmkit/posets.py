"""Simplicial posets: posets with a bottom element whose lower intervals are
boolean algebras.

Cells are the nonbottom elements; the atoms (rank-1 elements) play the role
of vertices.  A poset stores bitmasks from one topological pass over the
covers, made when it is validated: each element's support (atom v, in
element order, on bit v-1) and down-set (element x on bit x).  The pass
starts from the elements that cover nothing and refuses the poset unless
the bottom is the only one.  An interval [bottom, x] with 2^rank(x)
elements of distinct supports is boolean: if supp(y) lies in supp(z), y is
the one element of [bottom, z] with its support, so y <= z.
The order complex of the nonbottom part triangulates the cell complex the
poset describes, so Cohen-Macaulayness is decided there; l-CM verdicts cut
each atom deletion out of it and take their rules from ``cm``.  The face
ring is carried as a squarefree module over the polynomial ring on the
atoms: one basis element per cell, multiplication sending a cell to the sum
of the cells covering it with the right support.  It is read off the covers
in one pass, each cover one entry of one map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .complexes import SimplicialComplex, _bits, _content_lines, _face_key, _face_masks, _face_text, _relabel_masks, _subset_mask, _support, boundary_simplex, mask_to_face
from .cm import _family_threshold, _is_l_cm, _max_l, is_cohen_macaulay
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
    ``support_masks`` (atom v below x on bit v-1; ``support`` gives the
    atom sets) are derived.  ``uppers[x]`` (upper covers, in index order)
    and ``down_masks[x]`` (y <= x on bit y) come from the same validating
    pass and take no part in comparison.
    ``_chain_masks``, the facets of the order complex, is built on first
    use and kept.
    Each [bottom, x] has 2^rank(x) elements of distinct supports, so for y
    and z inside one such interval, y <= z exactly when supp(y) lies in
    supp(z).  Across intervals a support does not fix the order: the two
    tops of ``glued_simplices(1, 2)`` share their support, and neither lies
    below the other.  Instances are built through
    ``build`` or the generators, which validate every invariant.
    """

    ids: tuple[str, ...]
    bottom: int
    covers: frozenset[tuple[int, int]]
    rank: tuple[int, ...]
    support_masks: tuple[int, ...]
    atoms: tuple[int, ...]
    uppers: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    down_masks: tuple[int, ...] = field(compare=False, repr=False)

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
        for cover in cover_id_pairs:
            try:
                a, b = map(str, cover)
            except (TypeError, ValueError):
                raise PosetValidationError(f"cover {cover!r} is not a pair of element ids") from None
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

    @property
    def support(self) -> tuple[frozenset[int], ...]:
        """The supports as sets of atom numbers."""
        return tuple(map(mask_to_face, self.support_masks))

    def upper_covers(self, x: int) -> list[int]:
        return list(self.uppers[x])

    def index_of(self, element_id: str) -> int:
        try:
            return self.ids.index(str(element_id))
        except ValueError:
            raise KeyError(f"no element {element_id!r}") from None

    def __repr__(self):
        return f"SimplicialPoset({self.size} elements, rank {self.max_rank()})"

    @cached_property
    def _chain_masks(self) -> frozenset[int]:
        """The saturated chains from an atom up to a maximal element, as
        masks with the i-th nonbottom element (in index order) on bit i."""
        nonbottom = [x for x in range(self.size) if x != self.bottom]
        bit = {x: 1 << i for i, x in enumerate(nonbottom)}
        chains: set[int] = set()

        def grow(x: int, chain: int):
            chain |= bit[x]
            if self.uppers[x]:
                for y in self.uppers[x]:
                    grow(y, chain)
            else:
                chains.add(chain)

        for a in self.atoms:
            grow(a, 0)
        return frozenset(chains)


def _elements(mask: int) -> list[int]:
    """The element indices on the bits of ``mask``, lowest first."""
    return [b.bit_length() - 1 for b in _bits(mask)]


def _ranks_and_down_sets(
    ids: tuple[str, ...], bottom: int, covers: frozenset[tuple[int, int]]
) -> tuple[list[int], list[int], list[list[int]]]:
    """Rank, down-set mask and upper covers of every element, from one
    topological pass over the covers, seeded with the elements that cover
    nothing.  Raises when those are not exactly the bottom, when two
    saturated chains from the bottom to one element differ in length, or
    when the covers contain a cycle."""
    size = len(ids)
    indeg = [0] * size
    uppers: list[list[int]] = [[] for _ in range(size)]
    for a, b in covers:
        indeg[b] += 1
        uppers[a].append(b)
    rank = [-1] * size
    rank[bottom] = 0
    below = [1 << x for x in range(size)]
    visited = 0
    queue = [x for x in range(size) if indeg[x] == 0]
    if queue != [bottom]:
        names = sorted(ids[x] for x in queue)
        raise MultipleMinimalError(
            f"expected the single minimal element {ids[bottom]!r}, found {names}"
        )
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
    return rank, below, uppers


def _validate(ids: tuple[str, ...], bottom: int, covers: frozenset[tuple[int, int]]) -> SimplicialPoset:
    size = len(ids)
    rank, below, uppers = _ranks_and_down_sets(ids, bottom, covers)
    atoms = tuple(x for x in range(size) if rank[x] == 1)
    support = _relabel_masks(below, _support(1 << a for a in atoms))
    for x in range(size):
        if rank[x] != support[x].bit_count():
            raise RankMismatchError(
                f"element {ids[x]!r} has rank {rank[x]} but {support[x].bit_count()} atoms below"
            )

    # boolean intervals: 2^rank(x) elements of distinct supports below x
    for x in range(size):
        count = below[x].bit_count()
        if count != 1 << rank[x]:
            raise NonBooleanIntervalError(
                f"interval below {ids[x]!r} has {count} elements, "
                f"expected {1 << rank[x]}"
            )
        seen = set()
        for y in _elements(below[x]):
            if support[y] in seen:
                raise NonBooleanIntervalError(
                    f"two elements below {ids[x]!r} share the atom set "
                    f"{sorted(mask_to_face(support[y]))}"
                )
            seen.add(support[y])

    return SimplicialPoset(ids, bottom, covers, tuple(rank), tuple(support), atoms,
                           tuple(tuple(sorted(u)) for u in uppers), tuple(below))


# -- operations -------------------------------------------------------------------


def restrict_poset(poset: SimplicialPoset, keep_atoms) -> SimplicialPoset:
    """Induced subposet of the elements supported inside the given atoms."""
    keep = _subset_mask(keep_atoms, poset.vertex_count, "atom")
    drop = _support(1 << a for v, a in enumerate(poset.atoms) if not keep >> v & 1)
    return _induced_subposet(poset, [x for x, below in enumerate(poset.down_masks) if not below & drop])


def delete_atoms(poset: SimplicialPoset, drop_atoms) -> SimplicialPoset:
    d = frozenset(drop_atoms)
    return restrict_poset(poset, (v for v in range(1, poset.vertex_count + 1) if v not in d))


def poset_skeleton(poset: SimplicialPoset, i: int) -> SimplicialPoset:
    """Induced subposet of the elements of rank <= i."""
    if type(i) is not int:
        raise ValueError(f"skeleton rank {i!r} is not an integer")
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
    # maximal chains of the nonbottom part: no one lies in another
    return SimplicialComplex._from_masks(poset.size - 1, poset._chain_masks)


def is_poset_cm(poset: SimplicialPoset, fieldspec: FieldSpec) -> bool:
    """Cohen-Macaulayness of the cells, decided on the order complex."""
    return is_cohen_macaulay(order_complex(poset), fieldspec)


def is_poset_l_cm(poset: SimplicialPoset, l: int, fieldspec: FieldSpec) -> bool:
    """True iff deleting any fewer than l atoms leaves a Cohen-Macaulay poset
    of unchanged rank."""
    return _is_l_cm(l, poset.vertex_count, _atom_deletion_threshold, poset, fieldspec)


def max_poset_l(poset: SimplicialPoset, fieldspec: FieldSpec) -> int:
    """Largest l in [1, #atoms] such that the poset is l-CM; 0 when not CM."""
    return _max_l(poset_l_cm_threshold(poset, fieldspec), poset.vertex_count)


def poset_l_cm_threshold(poset: SimplicialPoset, fieldspec: FieldSpec) -> int:
    """Smallest cardinality of an atom deletion breaking Cohen-Macaulayness
    or dropping the rank; #atoms + 1 when every deletion passes."""
    return _atom_deletion_threshold(poset, fieldspec, poset.vertex_count)


def _atom_deletion_threshold(poset: SimplicialPoset, fieldspec: FieldSpec, cap: int) -> int:
    # The order complex of an atom deletion is the subcomplex of the order
    # complex induced on the cells supported off the deleted atoms: atom a
    # removes the vertices (nonbottom cells, in order_complex's numbering)
    # whose support contains a.  The longest chains end at the elements of
    # top rank, so a deletion keeps the rank exactly when it keeps the
    # dimension of the order complex.  The search builds each deletion from
    # its parent's facets: the maximal faces of (F - U) - g are those of
    # F - (U + g).
    cells = [s for x, s in enumerate(poset.support_masks) if x != poset.bottom]
    groups = [_support(1 << bit for bit, s in enumerate(cells) if s >> a & 1)
              for a in range(poset.vertex_count)]
    return _family_threshold(poset._chain_masks, groups, cap, fieldspec)


def face_ring_module(poset: SimplicialPoset) -> SquarefreeModule:
    """The face ring as a squarefree module over the polynomial ring on the
    atoms: the component at F has one basis element per cell with atom set F,
    in element order, and multiplication by an atom sends a cell to the sum
    of the cells covering it with the enlarged atom set.  So each cover
    x < y is one entry: a 1 in the map of x_j at supp x, j the atom of
    supp y - supp x, in the row of y and the column of x."""
    support = poset.support_masks
    comp: dict[int, int] = {}  # support mask -> its number of cells
    pos = []  # pos[x]: the place of x among the cells of its support
    for s in support:
        pos.append(comp.get(s, 0))
        comp[s] = pos[-1] + 1
    mats: dict[tuple[int, int], list[list[int]]] = {}
    for x, ups in enumerate(poset.uppers):
        f, c = support[x], pos[x]
        for y in ups:
            key = (f, support[y] ^ f)
            mat = mats.get(key)
            if mat is None:
                mat = mats[key] = [[0] * comp[f] for _ in range(comp[support[y]])]
            mat[pos[y]][c] = 1
    # sorted keys list the maps at each degree by variable, so the Koszul
    # rows, and the pivots the rank kernel takes from them, do not depend
    # on the order of the covers
    mult = {key: tuple(map(tuple, mats[key])) for key in sorted(mats)}
    # when supp z = supp x + {j, k} and x < z, [x, z] is boolean, so each
    # path from x reaches z through exactly one cell; when x is not below z,
    # neither path does.  Both paths around a square agree: nothing to scan
    return SquarefreeModule._from_masks(poset.vertex_count, comp, mult, [])


# -- generators ------------------------------------------------------------------


def face_poset(delta: SimplicialComplex) -> SimplicialPoset:
    """The poset of faces of a complex, ordered by inclusion."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no face poset")
    faces = sorted(_face_masks(delta.facet_masks), key=_face_key)
    ids = tuple(map(_face_text, faces))
    index = {f: i for i, f in enumerate(faces)}
    covers = frozenset((index[f ^ b], index[f]) for f in faces for b in _bits(f))
    return _validate(ids, index[0], covers)


def glued_simplices(d: int, m: int) -> SimplicialPoset:
    """m top-dimensional cells glued along the full boundary of a d-simplex:
    all proper subsets of {1..d+1} plus m maximal elements covering every
    d-subset.  m = 1 is the boolean lattice of a single simplex."""
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    base = face_poset(boundary_simplex(d))
    ridges = [x for x in range(base.size) if base.rank[x] == d]
    tops = range(base.size, base.size + m)
    covers = base.covers | {(x, t) for t in tops for x in ridges}
    ids = base.ids + tuple(f"T{t}" for t in range(1, m + 1))
    return _validate(ids, base.bottom, covers)


def random_simplicial_poset(n: int, rank: int, seed: int) -> SimplicialPoset:
    """Seeded random simplicial poset on at most n atoms with rank <= rank.

    Built upward rank by rank: over each candidate atom set a random number
    of cells is created, each picking compatible lower covers; incompatible
    picks are rejected and retried.  The result is validated before return.
    """
    if n < 1 or rank < 1:
        raise ValueError("need n >= 1 and rank >= 1")
    rng = random.Random(seed)
    support = [0] + [1 << v for v in range(n)]  # support masks, by element
    ids = list(map(_face_text, support))
    covers: list[tuple[int, int]] = [(0, v) for v in range(1, n + 1)]
    by_support = {s: [x] for x, s in enumerate(support)}  # support mask -> its elements
    below = [1] + [1 | 2 << v for v in range(n)]  # down-set masks, by element

    for r in range(2, rank + 1):
        for combo in combinations(_bits((1 << n) - 1), r):
            u = sum(combo)
            if any(u ^ b not in by_support for b in combo):
                continue
            count = rng.choice((0, 0, 1, 1, 1, 2))
            for _ in range(count):
                for _attempt in range(4):
                    picks = [rng.choice(by_support[u ^ b]) for b in combo]
                    union = _support(below[y] for y in picks)
                    if union.bit_count() == len({support[y] for y in _elements(union)}) == (1 << r) - 1:
                        x = len(ids)
                        copy = len(by_support.get(u, []))
                        ids.append(f"{_face_text(u)}.{copy}")
                        covers.extend((y, x) for y in set(picks))
                        by_support.setdefault(u, []).append(x)
                        below.append(union | 1 << x)
                        support.append(u)
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
    for lineno, line in _content_lines(text):
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
