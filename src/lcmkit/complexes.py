"""Finite simplicial complexes on vertex set {1..n}, stored by facets.

A complex is determined by its maximal faces, stored as bitmasks (vertex v
on bit v-1); all other faces are enumerated on demand by one walk over the
submasks of the facets (``_face_masks``), which ``faces``, ``all_faces``,
``face_counts`` and ``linalg.faces_by_card`` share.  Two degenerate
values are distinguished: the empty complex, whose only face is the empty
set, and the void complex, which has no faces at all (its Stanley-Reisner
ring is the zero ring).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InvalidFaceError, ParseError, VoidComplexError


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex on the vertex set {1..vertex_count}.

    ``facet_masks`` is an antichain of nonzero bitmasks below
    2^vertex_count, vertex v on bit v-1; ``facets`` derives the same
    facets as vertex sets.  If there are no facets the value is either the
    empty complex {emptyset} (``is_void = False``) or the void complex
    (``is_void = True``).  Vertices of the ambient set need not appear in
    any facet.
    """

    vertex_count: int
    facet_masks: frozenset[int] = field(default_factory=frozenset)
    is_void: bool = False

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        if self.is_void and self.facet_masks:
            raise ValueError("the void complex has no facets")
        top = 1 << self.vertex_count
        for m in self.facet_masks:
            if not (isinstance(m, int) and 0 < m < top):
                raise ValueError(f"facet mask {m!r} is not a nonempty subset of 1..{self.vertex_count}")
        if len(_maximal_masks(self.facet_masks)) != len(self.facet_masks):
            raise ValueError("facets must form an antichain (use from_facets)")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_facets(cls, faces: Iterable[Iterable[int]], vertex_count: int | None = None) -> "SimplicialComplex":
        """Build a complex from any generating family of faces.

        The family is normalized: the empty face is dropped, non-maximal
        members are dropped.  An empty family yields the empty complex.
        """
        try:
            maximal = _maximal_masks(_mask(f) for f in faces) - {0}
        except (TypeError, ValueError):
            raise ValueError("facet vertices must be positive integers") from None
        if vertex_count is None:
            vertex_count = max(maximal, default=0).bit_length()
        return cls(vertex_count, maximal)

    @classmethod
    def empty(cls, vertex_count: int = 0) -> "SimplicialComplex":
        """The complex {emptyset}: no vertices are faces, but the empty set is."""
        return cls(vertex_count, frozenset())

    @classmethod
    def void(cls, vertex_count: int = 0) -> "SimplicialComplex":
        """The void complex: no faces at all."""
        return cls(vertex_count, frozenset(), is_void=True)

    # -- basic queries -----------------------------------------------------

    @property
    def facets(self) -> frozenset[frozenset[int]]:
        """The facets as vertex sets."""
        return frozenset(map(mask_to_face, self.facet_masks))

    def dimension(self) -> int:
        """Max facet cardinality minus one; -1 for the empty complex."""
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return max(map(int.bit_count, self.facet_masks), default=0) - 1

    def is_pure(self) -> bool:
        """True when all facets have equal cardinality."""
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return len(set(map(int.bit_count, self.facet_masks))) <= 1

    def contains_face(self, face: Iterable[int]) -> bool:
        f = frozenset(face)
        if self.is_void or min(f, default=1) < 1:
            return False
        fm = _mask(f)
        return not fm or any(fm & g == fm for g in self.facet_masks)

    def faces(self, i: int) -> set[frozenset[int]]:
        """All faces of dimension i; i = -1 yields {emptyset} unless void."""
        if self.is_void:
            return set()
        return {mask_to_face(m) for m in _face_masks(self.facet_masks) if m.bit_count() == i + 1}

    def all_faces(self) -> Iterator[frozenset[int]]:
        """Every face including the empty one, in bitmask order (nothing for
        the void complex)."""
        if not self.is_void:
            yield from map(mask_to_face, sorted(_face_masks(self.facet_masks)))

    def face_counts(self) -> dict[int, int]:
        """Number of i-faces for i = -1 .. dim (empty for the void complex)."""
        if self.is_void:
            return {}
        return dict(sorted(Counter(m.bit_count() - 1 for m in _face_masks(self.facet_masks)).items()))

    def reduced_euler_characteristic(self) -> int:
        """Sum of (-1)^i over face dimensions i, including the empty face."""
        return sum((-1) ** i * c for i, c in self.face_counts().items())

    @property
    def vertices(self) -> frozenset[int]:
        """Vertices that are actually faces (not the ambient set)."""
        return mask_to_face(_support(self.facet_masks))

    # -- derived complexes ---------------------------------------------------

    def induced_subcomplex(self, keep: Iterable[int]) -> "SimplicialComplex":
        """Faces contained in ``keep``, re-indexed onto 1..#keep order-preservingly."""
        w = sorted(set(keep))
        if any(v < 1 or v > self.vertex_count for v in w):
            raise ValueError("vertex subset out of range")
        if self.is_void:
            return SimplicialComplex.void(len(w))
        keep = _mask(w)
        cut = _deletion_masks(self.facet_masks, ((1 << self.vertex_count) - 1) ^ keep)
        return SimplicialComplex(len(w), frozenset(_relabel_masks(cut, keep)) - {0})

    def delete_vertices(self, drop: Iterable[int]) -> "SimplicialComplex":
        """Induced subcomplex on the complement of ``drop``."""
        return self.induced_subcomplex(set(range(1, self.vertex_count + 1)).difference(drop))

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of a face, on the remaining vertices re-indexed onto 1..#rest."""
        f = frozenset(face)
        if not self.contains_face(f):
            raise InvalidFaceError(f"{sorted(f)} is not a face")
        fm = _mask(f)
        rest = ((1 << self.vertex_count) - 1) ^ fm
        lk = _relabel_masks(_link_masks(self.facet_masks, fm), rest)
        return SimplicialComplex(rest.bit_count(), frozenset(lk) - {0})

    def skeleton(self, i: int) -> "SimplicialComplex":
        """All faces of dimension <= i, on the same vertex set."""
        if self.is_void:
            return self
        if i < 0:
            return SimplicialComplex.empty(self.vertex_count)
        if i >= self.dimension():
            return self
        # A facet with at most i+1 vertices stays; a larger one gives its
        # (i+1)-subsets.  Facets form an antichain, so no kept facet lies in
        # such a subset and the union is an antichain again.
        k = i + 1
        masks: set[int] = set()
        for fm in self.facet_masks:
            if fm.bit_count() <= k:
                masks.add(fm)
            else:
                masks.update(map(sum, combinations(_bits(fm), k)))
        return SimplicialComplex(self.vertex_count, frozenset(masks))


def _mask(face: Iterable[int]) -> int:
    m = 0
    for v in face:
        m |= 1 << (v - 1)
    return m


def _bits(mask: int) -> list[int]:
    """The single-bit masks of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _relabel_masks(masks: Iterable[int], keep: int) -> list[int]:
    """Each mask with its bits inside ``keep`` moved, in order, onto bits
    0..k-1 (k = #keep); bits outside ``keep`` are dropped."""
    runs = []  # (shift of a run of kept bits, its width mask, the kept bits below it)
    rest = keep
    while rest:
        low = (rest & -rest).bit_length() - 1
        x = rest >> low
        width = (x ^ (x + 1)).bit_length() - 1
        ones = (1 << width) - 1
        runs.append((low, ones, (keep & ((1 << low) - 1)).bit_count()))
        rest ^= ones << low
    out = []
    for m in masks:
        new = 0
        for low, ones, at in runs:
            new |= (m >> low & ones) << at
        out.append(new)
    return out


def _maximal_masks(masks: Iterable[int]) -> frozenset[int]:
    """The inclusion-maximal members of a family of face bitmasks."""
    kept: list[int] = []
    larger: list[int] = []  # the kept masks of larger cardinality than m
    size = -1
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size = m.bit_count()
            larger = kept[:]
        for k in larger:
            if m & k == m:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def _support(masks: Iterable[int]) -> int:
    """The union of a family of bitmasks."""
    support = 0
    for m in masks:
        support |= m
    return support


def _apex(masks: Iterable[int]) -> int:
    """The intersection of a family of bitmasks, 0 for an empty family: the
    vertices on every facet.  A family with such a vertex v is a cone
    v * lk(v), so it is contractible."""
    it = iter(masks)
    apex = next(it, 0)
    for m in it:
        apex &= m
        if not apex:
            break
    return apex


def _link_masks(facet_masks: frozenset[int], face: int) -> frozenset[int]:
    """The facets through ``face``, less ``face``: the link's facets, an
    antichain again."""
    return frozenset(fm ^ face for fm in facet_masks if fm & face == face)


def _deletion_masks(facet_masks: frozenset[int], drop: int) -> frozenset[int]:
    """The maximal faces of the family with the bits of ``drop`` removed;
    ``facet_masks`` itself when nothing is dropped (callers pass an
    antichain)."""
    if not drop:
        return facet_masks
    return _maximal_masks(fm & ~drop for fm in facet_masks)


def _vertices(mask: int) -> list[int]:
    """The vertices of a mask, smallest first."""
    return [b.bit_length() for b in _bits(mask)]


def mask_to_face(mask: int) -> frozenset[int]:
    return frozenset(_vertices(mask))


def _face_key(mask: int) -> tuple[int, list[int]]:
    """Size first, then lexicographic vertex order: the one order of faces
    in files, ids and enumerations."""
    return mask.bit_count(), _vertices(mask)


def _face_text(mask: int) -> str:
    """The vertices comma-joined, `-` for the empty face."""
    return ",".join(map(str, _vertices(mask))) or "-"


def _face_masks(facet_masks: Iterable[int]) -> set[int]:
    """Every face of the family: each submask of each facet, the empty face
    included.  This is the one face walk."""
    faces = {0}
    for fm in facet_masks:
        sub = fm
        while sub:
            faces.add(sub)
            sub = (sub - 1) & fm
    return faces


# -- standard shapes ----------------------------------------------------------


def full_simplex(n: int) -> SimplicialComplex:
    """The full simplex on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    return SimplicialComplex.from_facets([range(1, n + 1)], vertex_count=n)


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all d-subsets of {1..d+1}."""
    if d < 1:
        raise ValueError("need d >= 1")
    return SimplicialComplex.from_facets(
        combinations(range(1, d + 2), d), vertex_count=d + 1
    )


def cycle(m: int) -> SimplicialComplex:
    """The m-cycle graph C_m on vertices 1..m."""
    if m < 3:
        raise ValueError("need m >= 3")
    edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    return SimplicialComplex.from_facets(edges, vertex_count=m)


def path(m: int) -> SimplicialComplex:
    """The path graph on vertices 1..m."""
    if m < 2:
        raise ValueError("need m >= 2")
    return SimplicialComplex.from_facets([(i, i + 1) for i in range(1, m)], vertex_count=m)


def complete_graph(m: int) -> SimplicialComplex:
    """The complete graph K_m."""
    if m < 2:
        raise ValueError("need m >= 2")
    return SimplicialComplex.from_facets(combinations(range(1, m + 1), 2), vertex_count=m)


def real_projective_plane() -> SimplicialComplex:
    """The minimal 6-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
        (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
    ]
    return SimplicialComplex.from_facets(facets, vertex_count=6)


# -- facet file format ---------------------------------------------------------
#
# Optional header line `n <int>`; one facet per line as space-separated
# positive integers; `#` starts a comment line.  An empty facet list with a
# header denotes the empty complex {emptyset}.


def parse_facet_file(text: str) -> SimplicialComplex:
    n: int | None = None
    facets: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None or facets:
                raise ParseError(f"line {lineno}: header must be the first content line")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: header is `n <int>`")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be >= 0")
            continue
        try:
            verts = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: facet entries must be integers") from None
        if any(v < 1 for v in verts):
            raise ParseError(f"line {lineno}: vertices are positive integers")
        if len(set(verts)) != len(verts):
            raise ParseError(f"line {lineno}: repeated vertex in facet")
        facets.append(verts)
    if n is None and not facets:
        raise ParseError("empty input: need a header or at least one facet")
    if n is not None:
        for verts in facets:
            if any(v > n for v in verts):
                raise ParseError(f"facet {verts} exceeds declared vertex count {n}")
    return SimplicialComplex.from_facets(facets, vertex_count=n)


def format_facet_file(delta: SimplicialComplex) -> str:
    if delta.is_void:
        raise VoidComplexError("the void complex has no file form")
    lines = [f"n {delta.vertex_count}"]
    for f in sorted(delta.facet_masks, key=_face_key):
        lines.append(" ".join(map(str, _vertices(f))))
    return "\n".join(lines) + "\n"
