"""Cohen-Macaulay checks for complexes: Reisner criterion, l-CM, Betti tables.

A complex is Cohen-Macaulay over k exactly when every link (including the
link of the empty face, i.e. the complex itself) has vanishing reduced
homology below its dimension.  The l-CM property asks that every deletion of
fewer than l vertices stays Cohen-Macaulay of the same dimension.  Betti
numbers of the face ring are read off homology of induced subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .complexes import SimplicialComplex, _maximal_masks, mask_to_face
from .errors import TooLargeError, VoidComplexError
from .linalg import FieldSpec, homology_dims_of_facets

# Betti tables enumerate all 2^n squarefree degrees; refuse more variables.
BETTI_CAP = 16


@dataclass
class BettiTable:
    """Multigraded Betti numbers: (homological index i, squarefree degree F) -> multiplicity."""

    n: int
    entries: dict[tuple[int, frozenset[int]], int] = field(default_factory=dict)

    def __post_init__(self):
        for (i, deg), b in self.entries.items():
            if b <= 0:
                raise ValueError("stored multiplicities must be positive")
            if i < 0:
                raise ValueError("homological index must be >= 0")
            if not all(1 <= v <= self.n for v in deg):
                raise ValueError(f"degree {sorted(deg)} outside 1..{self.n}")

    def get(self, i: int, deg) -> int:
        return self.entries.get((i, frozenset(deg)), 0)

    def projective_dimension(self) -> int:
        """Largest i with a nonzero entry; -1 for the empty table (zero module)."""
        return max((i for i, _ in self.entries), default=-1)

    def sorted_items(self):
        return sorted(
            ((i, tuple(sorted(deg)), b) for (i, deg), b in self.entries.items()),
            key=lambda t: (t[0], t[1]),
        )

    def to_tsv(self, labels: tuple[int, ...] | None = None) -> str:
        """Render as `i<TAB>F<TAB>beta` rows sorted by (i, F); `-` for the empty degree."""
        lines = ["i\tF\tbeta"]
        for i, deg, b in self.sorted_items():
            shown = deg if labels is None else tuple(labels[v - 1] for v in deg)
            name = ",".join(str(v) for v in shown) if shown else "-"
            lines.append(f"{i}\t{name}\t{b}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, BettiTable)
            and self.n == other.n
            and self.entries == other.entries
        )


# -- Reisner criterion ------------------------------------------------------------

_CM_CACHE: dict[tuple[frozenset[int], int], bool] = {}


def _facets_cm(facet_masks: frozenset[int], fieldspec: FieldSpec) -> bool:
    """Reisner criterion on a facet bitmask family (empty family = {emptyset})."""
    key = (facet_masks, fieldspec.characteristic)
    hit = _CM_CACHE.get(key)
    if hit is not None:
        return hit
    verdict = True
    masks = facet_masks if facet_masks else frozenset([0])
    seen: set[int] = set()
    for fm in masks:
        sub = fm
        while True:
            if sub not in seen:
                seen.add(sub)
                link = _link_facets(masks, sub)
                if len(link) > 1:  # a single facet is a simplex: nothing to check
                    dims = homology_dims_of_facets(link, fieldspec)
                    if any(dims[:-1]):  # all degrees strictly below the top
                        verdict = False
                        break
            if sub == 0:
                break
            sub = (sub - 1) & fm
        if not verdict:
            break
    _CM_CACHE[key] = verdict
    return verdict


def _link_facets(facet_masks: frozenset[int], face: int) -> frozenset[int]:
    out = {fm ^ face for fm in facet_masks if fm & face == face}
    return frozenset(out)


def _deletion_facets(facet_masks: frozenset[int], drop: int) -> frozenset[int]:
    if not drop:  # every caller passes an antichain
        return facet_masks
    return _maximal_masks(fm & ~drop for fm in facet_masks)


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
    cap = min(l - 1, delta.vertex_count)
    return _vertex_deletion_threshold(delta, fieldspec, cap) > cap


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
    groups = [1 << b for b in range(delta.vertex_count)]
    fails = _deletion_fails(delta.facet_masks, delta.dimension(), fieldspec)
    return _smallest_failing_deletion(groups, cap, fails)


def _deletion_fails(facet_masks: frozenset[int], dim: int, fieldspec: FieldSpec):
    """Predicate on a deleted vertex mask: the deletion is not Cohen-Macaulay
    or has dimension other than ``dim``."""

    def fails(drop: int) -> bool:
        cut = _deletion_facets(facet_masks, drop)
        cut_dim = max(map(int.bit_count, cut), default=0) - 1
        return cut_dim != dim or not _facets_cm(cut, fieldspec)

    return fails


def _smallest_failing_deletion(groups: list[int], cap: int, fails) -> int:
    """Smallest k <= cap such that ``fails`` holds on the union of some k of
    the group bitmasks; cap+1 if there is none.  This is the one l-CM search:
    complexes, posets and modules differ only in their groups and predicate."""
    for size in range(0, cap + 1):
        for combo in combinations(groups, size):
            drop = 0
            for g in combo:
                drop |= g
            if fails(drop):
                return size
    return cap + 1


# -- Betti numbers of the face ring -------------------------------------------------


def hochster_betti(delta: SimplicialComplex, fieldspec: FieldSpec) -> BettiTable:
    """Betti table of the face ring: the (i, F) multiplicity is the dimension of
    reduced homology of the subcomplex induced on F in degree #F - i - 1."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no face ring")
    n = delta.vertex_count
    _check_betti_size(n)
    facet_masks = delta.facet_masks
    entries: dict[tuple[int, frozenset[int]], int] = {}
    for fmask in range(1 << n):
        induced = _deletion_facets(facet_masks, ~fmask)
        dims = homology_dims_of_facets(induced, fieldspec)
        size = fmask.bit_count()
        deg = mask_to_face(fmask)
        for j, h in enumerate(dims):
            if h:  # homology degree j-1 contributes at index #F - (j-1) - 1
                entries[(size - j, deg)] = h
    return BettiTable(n, entries)


def _check_betti_size(n: int) -> None:
    if n > BETTI_CAP:
        raise TooLargeError(
            f"Betti tables are capped at {BETTI_CAP} variables (2^n degrees); got {n}"
        )
