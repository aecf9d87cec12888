"""Finite simplicial complexes on vertex set {1..n}, stored by facets.

A complex is determined by its maximal faces, stored as bitmasks (vertex v
on bit v-1); all other faces are enumerated on demand.  Two degenerate
values are distinguished: the empty complex, whose only face is the empty
set, and the void complex, which has no faces at all (its Stanley-Reisner
ring is the zero ring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InvalidFaceError, ParseError, VoidComplexError

_EMPTY: frozenset[int] = frozenset()


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
        if self.is_void:
            return False
        if not f:
            return True
        return any(f <= g for g in self.facets)

    def faces(self, i: int) -> set[frozenset[int]]:
        """All faces of dimension i; i = -1 yields {emptyset} unless void."""
        if self.is_void:
            return set()
        if i == -1:
            return {_EMPTY}
        if i < -1:
            return set()
        out: set[frozenset[int]] = set()
        for f in self.facets:
            if len(f) >= i + 1:
                for c in combinations(sorted(f), i + 1):
                    out.add(frozenset(c))
        return out

    def all_faces(self) -> Iterator[frozenset[int]]:
        """Every face including the empty one (nothing for the void complex)."""
        if self.is_void:
            return
        seen: set[frozenset[int]] = set()
        yield _EMPTY
        for f in self.facets:
            vs = sorted(f)
            for k in range(1, len(vs) + 1):
                for c in combinations(vs, k):
                    fc = frozenset(c)
                    if fc not in seen:
                        seen.add(fc)
                        yield fc

    def face_counts(self) -> dict[int, int]:
        """Number of i-faces for i = -1 .. dim (empty for the void complex)."""
        if self.is_void:
            return {}
        counts: dict[int, int] = {-1: 1}
        for f in self.all_faces():
            if f:
                counts[len(f) - 1] = counts.get(len(f) - 1, 0) + 1
        return counts

    def reduced_euler_characteristic(self) -> int:
        """Sum of (-1)^i over face dimensions i, including the empty face."""
        return sum((-1) ** i * c for i, c in self.face_counts().items())

    @property
    def vertices(self) -> frozenset[int]:
        """Vertices that are actually faces (not the ambient set)."""
        out: set[int] = set()
        for f in self.facets:
            out |= f
        return frozenset(out)

    # -- derived complexes ---------------------------------------------------

    def induced_subcomplex(self, keep: Iterable[int]) -> "SimplicialComplex":
        """Faces contained in ``keep``, re-indexed onto 1..#keep order-preservingly."""
        w = sorted(set(keep))
        if any(v < 1 or v > self.vertex_count for v in w):
            raise ValueError("vertex subset out of range")
        if self.is_void:
            return SimplicialComplex.void(len(w))
        relabel = {v: i + 1 for i, v in enumerate(w)}
        return SimplicialComplex.from_facets(
            ({relabel[v] for v in f if v in relabel} for f in self.facets), vertex_count=len(w)
        )

    def delete_vertices(self, drop: Iterable[int]) -> "SimplicialComplex":
        """Induced subcomplex on the complement of ``drop``."""
        d = set(drop)
        return self.induced_subcomplex(v for v in range(1, self.vertex_count + 1) if v not in d)

    def restriction_labels(self, keep: Iterable[int]) -> tuple[int, ...]:
        """Original labels in re-indexed order: entry k-1 is the old label of new vertex k."""
        return tuple(sorted(set(keep)))

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of a face, on the remaining vertices re-indexed onto 1..#rest."""
        f = frozenset(face)
        if not self.contains_face(f):
            raise InvalidFaceError(f"{sorted(f)} is not a face")
        rest = sorted(v for v in range(1, self.vertex_count + 1) if v not in f)
        relabel = {v: i + 1 for i, v in enumerate(rest)}
        return SimplicialComplex.from_facets(
            ({relabel[v] for v in g - f} for g in self.facets if f <= g), vertex_count=len(rest)
        )

    def skeleton(self, i: int) -> "SimplicialComplex":
        """All faces of dimension <= i, on the same vertex set."""
        if self.is_void:
            return self
        if i < 0:
            return SimplicialComplex.empty(self.vertex_count)
        if i >= self.dimension():
            return self
        return SimplicialComplex.from_facets(
            (c for f in self.facets for c in combinations(sorted(f), min(len(f), i + 1))),
            vertex_count=self.vertex_count,
        )


def _mask(face: Iterable[int]) -> int:
    m = 0
    for v in face:
        m |= 1 << (v - 1)
    return m


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


def mask_to_face(mask: int) -> frozenset[int]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


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
    for f in sorted(delta.facets, key=lambda f: (len(f), sorted(f))):
        lines.append(" ".join(str(v) for v in sorted(f)))
    return "\n".join(lines) + "\n"
