"""Cohen-Macaulay checks for complexes: Reisner criterion, l-CM, Betti tables.

A complex is Cohen-Macaulay over k exactly when every link (including the
link of the empty face, i.e. the complex itself) has vanishing reduced
homology below its dimension (Reisner, Adv. Math. 1976).  Since the link of
G in lk v is lk(G + v), this is checked by vertex links: a complex is CM iff
every vertex link is CM and its own homology vanishes below its dimension
(Stanley, Combinatorics and Commutative Algebra, ch. II); a graph or a point
set has only CM vertex links, so it reads its homology alone.  Verdicts go into
the one cache of ``linalg``, beside homology, keyed on the facet family
relabelled in vertex order, so links that differ only in the placement of
their vertices are decided once.  Links and deletions are the facet-mask
helpers of ``complexes``.  The l-CM property asks that every deletion of
fewer than l vertices stays Cohen-Macaulay of the same dimension.  One
search finds the smallest failing deletion for complexes, posets and
modules, and the rules that turn its threshold into an l-CM verdict or a
largest l live here for all three (``_is_l_cm``, ``_max_l``).  Complexes
and posets both delete groups of vertices from a facet family and judge
what is left, so ``_family_threshold`` builds and judges those deletions
for both, keeping the dimension of the family it is given.  The search
walks the deletions level by level in ``combinations`` order, and builds
each one from a passed deletion one group smaller with the one deletion
helper (``complexes._deletion_masks``: a facet that misses the group
stays, and a cut facet stays unless a kept facet contains it), so no
deletion filters the whole family.  A
complex's smallest failing deletion goes into the same cache, keyed also
by the search's cap, on the family relabelled by an
isomorphism-invariant vertex order (``linalg._invariant_masks``), so
isomorphic families are mostly searched once per cap, and once for every
field when the Q search is certified.  A CM complex is pure, so a family
whose facets differ in size is decided with no homology: its threshold is
0 before any key is made or looked up, for its deletion of size 0, the
family itself, fails; its Reisner verdict is False with no link walked,
and that verdict is cached like any other.  The search runs on the caller's
own family, so its deletions read the verdicts already cached under the
caller's labels.  Betti numbers of the face ring are read off homology of
induced subcomplexes (Hochster's formula), one per degree bitmask, by a
depth-first walk from the full vertex set: each degree's facets are its
parent's with one vertex deleted by the same helper, and a degree whose
facets share a vertex is a cone with no homology, so it makes no entry,
and its whole subtree is skipped when no degree below it can delete that
vertex.  A ``BettiTable`` stores its entries under the degree masks, and
only its ``entries`` view and ``get`` speak vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import SimplicialComplex, _apex, _bits, _deletion_masks, _face_text, _is_pure, _link_masks, _mask, _support, _vertices, mask_to_face
from .errors import TooLargeError, VoidComplexError
from .linalg import FieldSpec, _cached_canonical, homology_dims_of_facets

# Betti tables enumerate all 2^n squarefree degrees; refuse more variables.
BETTI_CAP = 16


@dataclass
class BettiTable:
    """Multigraded Betti numbers of a module over n variables.

    ``entry_masks`` maps (homological index i, squarefree degree F) to the
    multiplicity, F stored as its bitmask (vertex v on bit v-1), the way
    complexes store ``facet_masks``; zero multiplicities are not stored.
    ``entries`` derives the same table keyed by vertex sets.
    """

    n: int
    entry_masks: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        top = 1 << self.n
        for (i, deg), b in self.entry_masks.items():
            if b <= 0:
                raise ValueError("stored multiplicities must be positive")
            if i < 0:
                raise ValueError("homological index must be >= 0")
            if not (isinstance(deg, int) and 0 <= deg < top):
                raise ValueError(f"degree mask {deg!r} is not a subset of 1..{self.n}")

    @property
    def entries(self) -> dict[tuple[int, frozenset[int]], int]:
        """The table keyed by (i, vertex set)."""
        return {(i, mask_to_face(deg)): b for (i, deg), b in self.entry_masks.items()}

    def get(self, i: int, deg) -> int:
        """The entry at (i, vertex set); 0 for a degree outside 1..n."""
        deg = tuple(deg)
        if not all(1 <= v <= self.n for v in deg):
            return 0
        return self.entry_masks.get((i, _mask(deg)), 0)

    def projective_dimension(self) -> int:
        """Largest i with a nonzero entry; -1 for the empty table (zero module)."""
        return max((i for i, _ in self.entry_masks), default=-1)

    def to_tsv(self) -> str:
        """Render as `i<TAB>F<TAB>beta` rows sorted by (i, F); `-` for the empty degree."""
        rows = sorted(self.entry_masks.items(), key=lambda item: (item[0][0], _vertices(item[0][1])))
        lines = ["i\tF\tbeta"]
        lines.extend(f"{i}\t{_face_text(deg)}\t{b}" for (i, deg), b in rows)
        return "\n".join(lines) + "\n"


# -- Reisner criterion ------------------------------------------------------------


def _facets_cm(facet_masks: frozenset[int], fieldspec: FieldSpec) -> bool:
    """Reisner criterion on a facet bitmask family (empty family = {emptyset})."""
    return _cached_canonical(_reisner, facet_masks, fieldspec)


def _reisner(facet_masks: frozenset[int], fieldspec: FieldSpec) -> bool:
    """A complex is CM iff every vertex link is CM and its own reduced
    homology vanishes below its dimension, since the link of G in lk v is
    lk(G + v).  A CM complex is pure, so a family that is not fails with no
    link walked.  In a graph or a point set (no facet of more than 2
    vertices) every vertex link is a nonempty point set or {emptyset}, both
    CM, so only the homology is read.  Otherwise the links go first: a
    failing link spares the homology."""
    if len(facet_masks) <= 1:  # a simplex or {emptyset}
        return True
    if not _is_pure(facet_masks):
        return False
    if max(map(int.bit_count, facet_masks)) > 2:
        for v in _bits(_support(facet_masks)):
            if not _facets_cm(_link_masks(facet_masks, v), fieldspec):
                return False
    return not any(homology_dims_of_facets(facet_masks, fieldspec)[:-1])


def is_cohen_macaulay(delta: SimplicialComplex, fieldspec: FieldSpec) -> bool:
    """True iff every link has zero reduced homology below its dimension."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no Cohen-Macaulay verdict")
    return _facets_cm(delta.facet_masks, fieldspec)


def is_l_cm(delta: SimplicialComplex, l: int, fieldspec: FieldSpec) -> bool:
    """True iff deleting any fewer than l vertices leaves a Cohen-Macaulay
    complex of unchanged dimension."""
    return _is_l_cm(l, delta.vertex_count, _vertex_deletion_threshold, delta, fieldspec)


def max_l(delta: SimplicialComplex, fieldspec: FieldSpec) -> int:
    """Largest l in [1, n] such that the complex is l-CM; 0 when not CM."""
    return _max_l(l_cm_threshold(delta, fieldspec), delta.vertex_count)


def l_cm_threshold(delta: SimplicialComplex, fieldspec: FieldSpec) -> int:
    """Smallest cardinality of a vertex deletion breaking Cohen-Macaulayness
    or dropping the dimension; n+1 when every deletion passes.  The complex
    is l-CM exactly when this threshold is >= l."""
    return _vertex_deletion_threshold(delta, fieldspec, delta.vertex_count)


def _is_l_cm(l: int, n: int, threshold, subject, fieldspec: FieldSpec) -> bool:
    """The l-CM verdict for a complex, poset or module with n vertices,
    atoms or variables.  ``threshold(subject, fieldspec, cap)`` is the
    smallest failing deletion of at most cap of them, cap+1 when none
    fails; a deletion of more than n is never asked for.  l must be
    exactly an ``int`` of at least 1."""
    if type(l) is not int:
        raise ValueError(f"l {l!r} is not an integer")
    if l < 1:
        raise ValueError("l must be >= 1")
    cap = min(l - 1, n)
    return threshold(subject, fieldspec, cap) > cap


def _max_l(threshold: int, n: int) -> int:
    """The largest l in [1, n] with an l-CM verdict, from the full threshold
    over n vertices, atoms or variables; 0 when not CM."""
    return min(threshold, n)


def _vertex_deletion_threshold(delta: SimplicialComplex, fieldspec: FieldSpec, cap: int) -> int:
    """The deletion search with the given cap, through the one cache.  A
    vertex off the support changes nothing when deleted, and deleting the
    whole support of a nonempty family drops the dimension, so clipping the
    cap to the support size keeps the answer and makes it a function of the
    family alone.  {emptyset} survives every deletion: cap+1, whatever n.
    A family that is not pure is not CM, so its deletion of size 0, the
    family itself, fails: 0, for every field and cap, with no cache work."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no Cohen-Macaulay verdict")
    facet_masks = delta.facet_masks
    if not facet_masks:
        return cap + 1
    if not _is_pure(facet_masks):
        return 0
    cap = min(cap, _support(facet_masks).bit_count())
    return _cached_canonical(_deletion_threshold, facet_masks, fieldspec, cap, invariant=True)


def _deletion_threshold(facet_masks: frozenset[int], fieldspec: FieldSpec, cap: int) -> int:
    return _family_threshold(facet_masks, _bits(_support(facet_masks)), cap, fieldspec)


def _family_threshold(facet_masks: frozenset[int], groups: list[int], cap: int, fieldspec: FieldSpec) -> int:
    """The smallest number of groups whose deletion (``_deletion_masks``)
    leaves a family that is not Cohen-Macaulay or has another dimension
    than ``facet_masks``; cap+1 if there is none.  A complex's groups are
    its vertices, a poset's the order-complex vertices above each atom.
    The empty family has dimension -1, as {emptyset} does."""
    dim = max(map(int.bit_count, facet_masks), default=0) - 1

    def fails(cut: frozenset[int]) -> bool:
        return max(map(int.bit_count, cut), default=0) - 1 != dim or not _facets_cm(cut, fieldspec)

    return _smallest_failing_deletion(facet_masks, groups, cap, _deletion_masks, fails)


def _smallest_failing_deletion(root, groups: list[int], cap: int, child, fails) -> int:
    """Smallest k <= cap such that ``fails`` holds on the deletion of the
    union of some k of the group bitmasks; cap+1 if there is none.  This is
    the one l-CM search.  ``_family_threshold`` runs it for complexes and
    posets, whose state is a deletion's facets, and
    ``squarefree._module_deletion_threshold`` for modules, whose state is
    the deleted mask.

    ``root`` is the state of the empty deletion, and ``child(state, group)``
    the state of a deletion one group larger.  The search walks level k+1
    from the states of level k: each deletion is its parent plus one group
    after the parent's last, so the deletions are visited in
    ``combinations`` order, and a state is built only when it is tested,
    after every state of the level before it has passed.  No more than two
    levels are alive at a time: the passed states of one and those of the
    next as it is tested."""
    visit = [(root, 0)]  # (state, index of the first group it may still take)
    for size in range(cap + 1):
        passed = []
        for state, start in visit:
            if fails(state):
                return size
            passed.append((state, start))
        visit = ((child(state, groups[j]), j + 1) for state, start in passed for j in range(start, len(groups)))
    return cap + 1


# -- Betti numbers of the face ring -------------------------------------------------


def hochster_betti(delta: SimplicialComplex, fieldspec: FieldSpec) -> BettiTable:
    """Betti table of the face ring: the (i, F) multiplicity is the dimension of
    reduced homology of the subcomplex induced on F in degree #F - i - 1
    (Hochster's formula).

    The degrees are walked depth first from the full vertex set.  A node F
    with bound ``below`` has one child F - b for each bit b of F below
    ``below``, with bound b, so every degree is reached once, by deleting
    its missing vertices from the highest down.  The child's facets are its
    parent's with b deleted by the one deletion helper
    (``_deletion_masks``): the parent's facets without b stay, and only
    the cut ones are tested, each against those.  A family whose facets share a vertex is a cone,
    with no homology, so it makes no entry; when a shared vertex lies at or
    above ``below``, no node under it deletes that vertex, and the whole
    subtree is skipped."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no face ring")
    n = delta.vertex_count
    _check_betti_size(n)
    entries: dict[tuple[int, int], int] = {}

    def walk(fmask: int, family: frozenset[int], below: int) -> None:
        apex = _apex(family)
        if apex >= below:
            return  # every node under this one is a cone on the same vertex
        if not apex:
            size = fmask.bit_count()
            for j, h in enumerate(homology_dims_of_facets(family, fieldspec)):
                if h:  # homology degree j-1 contributes at index #F - (j-1) - 1
                    entries[(size - j, fmask)] = h
        b = 1
        while b < below:
            walk(fmask ^ b, _deletion_masks(family, b), b)
            b <<= 1

    walk((1 << n) - 1, delta.facet_masks, 1 << n)
    return BettiTable(n, entries)


def _check_betti_size(n: int) -> None:
    if n > BETTI_CAP:
        raise TooLargeError(
            f"Betti tables are capped at {BETTI_CAP} variables (2^n degrees); got {n}"
        )
