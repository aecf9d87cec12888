"""Cohen-Macaulay checks for complexes: Reisner criterion, l-CM, Betti tables.

A complex is Cohen-Macaulay over k exactly when every link (including the
link of the empty face, i.e. the complex itself) has vanishing reduced
homology below its dimension (Reisner, Adv. Math. 1976).  Since the link of
G in lk v is lk(G + v), this is checked by vertex links: a complex is CM iff
every vertex link is CM and its own homology vanishes below its dimension
(Stanley, Combinatorics and Commutative Algebra, ch. II).  Verdicts go into
the one cache of ``linalg``, beside homology, keyed on the facet family
relabelled in vertex order, so links that differ only in the placement of
their vertices are decided once.  Links and deletions are the facet-mask
helpers of ``complexes``.  The l-CM property asks that every deletion of
fewer than l vertices stays Cohen-Macaulay of the same dimension.  The
smallest failing deletion goes into the same cache, keyed also by the
search's cap, on the family relabelled by an isomorphism-invariant vertex
order (``linalg._invariant_masks``), so isomorphic families are mostly
searched once per cap, and once for every field when the Q search is
certified.  The search runs on the caller's own family, so its deletions
read the verdicts already cached under the caller's labels.  Betti
numbers of the face ring are read off homology of induced subcomplexes
(Hochster's formula), one per degree bitmask, by a depth-first walk from the
full vertex set: each degree's facets are filtered from its parent's, and a
degree whose facets share a vertex is a cone with no homology, so it makes
no entry, and its whole subtree is skipped when no degree below it can
delete that vertex.  A ``BettiTable`` stores its entries under the degree
masks, and only its ``entries`` view and ``get`` speak vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .complexes import SimplicialComplex, _apex, _bits, _deletion_masks, _face_text, _link_masks, _mask, _support, _vertices, mask_to_face
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
    lk(G + v).  The links go first: a failing link spares the homology."""
    if len(facet_masks) <= 1:  # a simplex or {emptyset}
        return True
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
    if l < 1:
        raise ValueError("l must be >= 1")
    if delta.is_void:
        raise VoidComplexError("the void complex has no Cohen-Macaulay verdict")
    return _vertex_deletion_threshold(delta, fieldspec, l - 1) >= l


def max_l(delta: SimplicialComplex, fieldspec: FieldSpec) -> int:
    """Largest l in [1, n] such that the complex is l-CM; 0 when not CM."""
    return min(l_cm_threshold(delta, fieldspec), delta.vertex_count)


def l_cm_threshold(delta: SimplicialComplex, fieldspec: FieldSpec) -> int:
    """Smallest cardinality of a vertex deletion breaking Cohen-Macaulayness
    or dropping the dimension; n+1 when every deletion passes.  The complex
    is l-CM exactly when this threshold is >= l."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no Cohen-Macaulay verdict")
    return _vertex_deletion_threshold(delta, fieldspec, delta.vertex_count)


def _vertex_deletion_threshold(delta: SimplicialComplex, fieldspec: FieldSpec, cap: int) -> int:
    """The deletion search with the given cap, through the one cache.  A
    vertex off the support changes nothing when deleted, and deleting the
    whole support of a nonempty family drops the dimension, so clipping the
    cap to the support size keeps the answer and makes it a function of the
    family alone.  {emptyset} survives every deletion: cap+1, whatever n."""
    facet_masks = delta.facet_masks
    if not facet_masks:
        return cap + 1
    cap = min(cap, _support(facet_masks).bit_count())
    return _cached_canonical(_deletion_threshold, facet_masks, fieldspec, cap, invariant=True)


def _deletion_threshold(facet_masks: frozenset[int], fieldspec: FieldSpec, cap: int) -> int:
    dim = max(map(int.bit_count, facet_masks)) - 1
    fails = _deletion_fails(facet_masks, dim, fieldspec)
    return _smallest_failing_deletion(_bits(_support(facet_masks)), cap, fails)


def _deletion_fails(facet_masks: frozenset[int], dim: int, fieldspec: FieldSpec):
    """Predicate on a deleted vertex mask: the deletion is not Cohen-Macaulay
    or has dimension other than ``dim``."""

    def fails(drop: int) -> bool:
        cut = _deletion_masks(facet_masks, drop)
        cut_dim = max(map(int.bit_count, cut), default=0) - 1
        return cut_dim != dim or not _facets_cm(cut, fieldspec)

    return fails


def _smallest_failing_deletion(groups: list[int], cap: int, fails) -> int:
    """Smallest k <= cap such that ``fails`` holds on the union of some k of
    the group bitmasks; cap+1 if there is none.  This is the one l-CM search:
    complexes, posets and modules differ only in their groups and predicate."""
    for size in range(0, cap + 1):
        for combo in combinations(groups, size):
            if fails(_support(combo)):
                return size
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
    parent's facets with b deleted, filtered from the parent's family, not
    from the whole complex.  A family whose facets share a vertex is a cone,
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
