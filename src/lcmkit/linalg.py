"""Exact linear algebra over Q and GF(p), boundary ranks, reduced homology.

Ranks are computed exactly by one sparse kernel, ``_rank_rows``, for both
fields.  It takes rows as ``{column: int}`` dicts, shortest first, and
pivots only on units of the field: any nonzero residue over GF(p), only
+-1 over Q, so every entry stays an exact int.  Over Q the few rows left
with no +-1 entry form a small core that goes to fraction-free (Bareiss)
elimination.  No floating point anywhere.  The public ``rank``, the
relative boundary ranks of ``_homology_dims`` from cardinality 3 up and the
Koszul ranks of ``squarefree`` all enter there.  Boundary and Koszul rows
are ints by construction (a squarefree module refuses any other map
entry).  Only the public ``rank`` can carry Fractions: it checks once per
matrix whether every entry is an int and converts only a matrix that is
not (denominators cleared row by row over Q, ``FieldSpec.normalize`` over
GF(p)).  Boundary rows are assembled by one function, on bitmask faces.
Reduced simplicial homology dimensions follow from boundary ranks, except
on a cone: a family whose facets all share a vertex v is v * lk(v),
contractible, so ``_homology_dims`` answers zero in every degree with no
rank.  That answer holds over every field and is certified; a single facet
(a simplex) is the smallest cone.  Every other family is ranked relative
to the closed star of its lowest vertex, which is a cone, so that
H~_*(Delta) = H_*(Delta, st v) over every field: only the faces outside
the star are listed, and their rows are the +-1 boundary rows with the
star columns dropped.  The two lowest ranks take no matrix: onto the empty
face (which lies in the star) the rank is 0, and from edges to vertices it
is #relative vertices - (#components - 1), from one union-find
(``_components``); both are exact over every field, so they leave
``_taint`` alone.  A skeleton of a simplex has relative faces in its top
cardinality only and takes no rank; a graph or a point set lists no faces
at all and reads its two ranks off the absolute complex (1 onto the empty
face once there is a vertex, #vertices - #components from the edges).

A Q rank of int rows whose Bareiss core stayed empty is certified for
every field.  Each row operation adds an integer multiple of a pivot row
with a +-1 pivot, so the row lattice is unchanged; each pivot row is 1 on
its own column and 0 on the columns of earlier pivots, so the pivot rows
have a unitriangular r x r minor and the rank is r mod every prime (all
Smith invariants are 1).  Every step that breaks this bumps the counter
``_taint``: a Q rank that reached the core, rows that ``rank`` converted,
and a Q value read from a characteristic-0 cache key.
``_certified`` alone decides whether a value holds over every field: it
was computed over Q and the counter did not move around the computation.

One global cache makes the repeated link/restriction lookups of the
Cohen-Macaulay sweeps cheap: it holds the homology dimensions computed here
and the CM verdicts and vertex-deletion thresholds of ``cm``, keyed by
(computing function, facet family, characteristic), with the search's cap
appended for a threshold, and ``_cached_canonical`` is the only code that
reads or writes it.  The characteristic is ``None`` for a value that holds
over every field: one computed over Q with no taint inside.  Anything else,
every GF(p) value included, goes under its own characteristic, and a lookup
tries ``None`` before it.  A simplicial isomorphism keeps every one of
these values, so any bijective relabelling of the family onto bits 0..k-1
is a sound key.  A family is looked up raw first and relabelled only on a
miss, by one of two keys.  Homology and CM verdicts keep the vertex order
(``_canonical_masks``): one cheap pass, and the links of equal-size faces
of a skeleton share one entry.  A deletion threshold first sorts the
vertices by the number of facets of each size through them
(``_invariant_masks``), ties in vertex order, so isomorphic families that
differ in more than the placement of their vertices meet too: one pass of
the enum-sweep benchmark ran 625 threshold searches in place of 7,451, and
runs 276 now that a family that is not pure skips the search.
That sort costs far more than the order-preserving pass, so it pays only
where one lookup stands for a whole deletion search; on every homology or
Reisner miss it made the big-complexes and poset-routes benchmarks 15% and
22% slower.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .complexes import SimplicialComplex, _apex, _bits, _face_masks, _relabel_masks, _support
from .errors import VoidComplexError

_MAX_PRIME = 2**31

# Bumped by every step whose Q result need not hold over GF(p); see the
# module docstring.
_taint = 0


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q (characteristic 0) or GF(p) for a prime p.
    A characteristic that is not exactly an ``int`` (a float, a bool) is
    refused: it would reach the exact kernel, or share Q's cache keys."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if type(p) is not int:
            raise ValueError(f"characteristic {p!r} is not an integer")
        if p == 0:
            return
        if p >= _MAX_PRIME:
            raise ValueError(f"prime fields are limited to p < 2^31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, flag: str) -> "FieldSpec":
        """Parse the CLI syntax: `q` for Q, `p:<prime>` for GF(p)."""
        if flag == "q":
            return cls(0)
        if flag.startswith("p:"):
            try:
                return cls(int(flag[2:]))
            except ValueError as e:
                raise ValueError(f"bad field flag {flag!r}: {e}") from None
        raise ValueError(f"bad field flag {flag!r}: expected `q` or `p:<prime>`")

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime-field"

    def label(self) -> str:
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"

    def normalize(self, value):
        """Canonical representative of ``value`` in this field; over GF(p) a
        fraction's denominator is inverted.  Over every field a value that is
        not exactly an ``int`` or a ``Fraction`` (a float, a bool, a str) is
        refused with ``ValueError``, as ``rank`` refuses it: over GF(p) a
        float would be truncated."""
        if type(value) is not int and type(value) is not Fraction:
            raise ValueError(f"field element {value!r} is not an int or a Fraction")
        p = self.characteristic
        if not p:
            return value
        if type(value) is Fraction:
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, -1, p) % p
        return int(value) % p


QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)


class SparseMatrix:
    """Sparse matrix with exact entries: ints or Fractions, the only entries
    ``rank`` takes."""

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], object] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of bounds")
            if v != 0:
                self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, data: list[list]) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if data else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v != 0:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    def to_rows(self) -> list[list]:
        data = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            data[r][c] = v
        return data

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def rank(matrix: SparseMatrix, fieldspec: FieldSpec) -> int:
    """Exact rank of ``matrix`` over the given field.

    Rows of ints go to ``_rank_rows`` as they are.  Fraction entries make a
    converted copy: denominators cleared row by row over Q (row scaling
    preserves rank), or every entry put through ``FieldSpec.normalize`` over
    GF(p).  A converted matrix is not certified for every field.  Any other
    entry (a float, a bool, a str) is refused with ``ValueError``: over
    GF(p) a float would be truncated, and over Q it has no denominator to
    clear."""
    global _taint
    by_row: dict[int, dict[int, object]] = {}
    for (r, c), v in matrix.entries.items():
        by_row.setdefault(r, {})[c] = v
    rows = list(by_row.values())
    if not all(type(v) is int for row in rows for v in row.values()):
        bad = [v for row in rows for v in row.values() if type(v) is not int and type(v) is not Fraction]
        if bad:
            raise ValueError(f"matrix entry {bad[0]!r} is not an int or a Fraction")
        _taint += 1
        if fieldspec.characteristic:
            rows = [{c: fieldspec.normalize(v) for c, v in row.items()} for row in rows]
        else:
            scaled = []
            for row in rows:
                scale = lcm(*(v.denominator for v in row.values()))
                scaled.append({c: int(v * scale) for c, v in row.items()})
            rows = scaled
    return _rank_rows(rows, fieldspec)


def _rank_rows(rows: list[dict[int, int]], fieldspec: FieldSpec) -> int:
    """Exact rank of sparse int rows (column -> entry) over the field.

    Rows are taken shortest first and pivot only on units of the field: any
    nonzero residue over GF(p), only +-1 over Q, so every entry stays an
    exact int.  A pivot row is stored without its pivot column and scaled so
    that the pivot entry is 1.  Over Q the rows left with no +-1 entry are
    reduced against every pivot, and that leftover core goes to Bareiss
    (Dumas, Saunders and Villard, J. Symb. Comput. 2001).  A Q rank with an
    empty core holds over every field; one with a core bumps ``_taint``.
    Over Q every entry must be nonzero; the rows are consumed.
    """
    global _taint
    p = fieldspec.characteristic
    if p:
        rows = [{c: r for c, v in row.items() if (r := v % p)} for row in rows]
    rows.sort(key=len)
    index: dict[int, int] = {}  # pivot column -> position in ``pivots``
    pivots: list[tuple[int, dict[int, int]]] = []
    core = []
    for row in rows:
        _eliminate(row, index, pivots, p)
        if not row:
            continue
        if p:
            c = next(iter(row))
            inv = pow(row.pop(c), -1, p)
            if inv != 1:
                row = {x: v * inv % p for x, v in row.items()}
        else:
            for c, a in row.items():
                if a == 1 or a == -1:
                    break
            else:
                core.append(row)
                continue
            del row[c]
            if a == -1:
                row = {x: -v for x, v in row.items()}
        index[c] = len(pivots)
        pivots.append((c, row))
    if not core:
        return len(pivots)
    _taint += 1  # a core forms only over Q: over GF(p) every nonzero residue is a pivot
    cols: dict[int, int] = {}
    for row in core:
        _eliminate(row, index, pivots, 0)
        for c in row:
            cols.setdefault(c, len(cols))
    dense = []
    for row in core:
        if row:
            line = [0] * len(cols)
            for c, v in row.items():
                line[cols[c]] = v
            dense.append(line)
    return len(pivots) + _rank_bareiss(dense)


def _eliminate(row: dict[int, int], index: dict[int, int],
               pivots: list[tuple[int, dict[int, int]]], p: int) -> None:
    """Clear every pivot column of ``row`` in place, in pivot order.  A pivot
    row has no entry in an earlier pivot's column, so each step brings in
    only later pivot columns."""
    heap = [index[c] for c in row if c in index]
    if not heap:
        return
    heapify(heap)
    while heap:
        c, prow = pivots[heappop(heap)]
        f = row.pop(c, 0)
        if not f:
            continue  # already cleared, or pushed twice
        for x, v in prow.items():
            old = row.get(x)
            if old is None:
                row[x] = -f * v % p if p else -f * v
                k = index.get(x)
                if k is not None:
                    heappush(heap, k)
            else:
                w = (old - f * v) % p if p else old - f * v
                if w:
                    row[x] = w
                else:
                    del row[x]


def _certified(compute, data, fieldspec: FieldSpec, *extra):
    """``(compute(data, fieldspec, *extra), free)``, free when the value
    holds over every field: it was computed over Q and no step inside bumped
    ``_taint``."""
    before = _taint
    value = compute(data, fieldspec, *extra)
    return value, _taint == before and not fieldspec.characteristic


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Bareiss fraction-free elimination on dense int rows; mutates ``rows``."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        prow = rows[r]
        for i in range(r + 1, m):
            # every row below, a zero pivot-column entry included, takes the
            # one exact update (p*a - f*b) / prev
            f = rows[i][c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], prow)]
        prev = p
        r += 1
        if r == m:
            break
    return r


# -- boundary ranks and homology ------------------------------------------------


@dataclass(frozen=True)
class HomologyVector:
    """Dimensions of reduced homology, indexed i = -1, 0, .., top_dim."""

    dims: tuple[int, ...]

    def degree(self, i: int) -> int:
        j = i + 1
        if 0 <= j < len(self.dims):
            return self.dims[j]
        return 0

    __getitem__ = degree

    @property
    def top_dim(self) -> int:
        return len(self.dims) - 2

    def as_dict(self) -> dict[int, int]:
        return {i - 1: d for i, d in enumerate(self.dims)}

    def is_zero(self) -> bool:
        return not any(self.dims)


def reduced_homology(delta: SimplicialComplex, fieldspec: FieldSpec) -> HomologyVector:
    """Reduced homology dimensions of a nonvoid complex over the field."""
    if delta.is_void:
        raise VoidComplexError("the void complex has no homology")
    return HomologyVector(homology_dims_of_facets(delta.facet_masks, fieldspec))


# The one cache, keyed by (computing function, facet bitmask family,
# characteristic, or None for a value that holds over every field), plus the
# cap for a deletion threshold.  Link and restriction families repeat heavily
# across Cohen-Macaulay sweeps, and many more of them are equal up to
# relabelling; see ``_cached_canonical``.
_CACHE: dict[tuple, object] = {}


def homology_dims_of_facets(facet_masks: frozenset[int], fieldspec: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dims (degree -1 first) of the complex generated by
    ``facet_masks``; the empty family means the empty complex {emptyset}."""
    return _cached_canonical(_homology_dims, facet_masks, fieldspec)


def _cached_canonical(compute, facet_masks: frozenset[int], fieldspec: FieldSpec, *extra,
                      invariant: bool = False):
    """``compute(family, fieldspec, *extra)`` through the one cache, for a
    value that a simplicial isomorphism keeps (homology dimensions, CM
    verdicts, deletion thresholds).  ``extra`` (the cap of a deletion
    search) is part of the key.

    The raw key is looked up first, so a family seen before is never
    relabelled again.  On a miss the relabelled key is looked up, and the
    value is stored under both keys: under ``None`` when it was computed
    over Q with no taint inside (or read from a ``None`` key), otherwise
    under the characteristic.

    By default the relabelling keeps the vertex order
    (``_canonical_masks``): cheap, and the value is computed on the
    relabelled family.  With ``invariant`` it sorts the vertices by an
    isomorphism invariant first (``_invariant_masks``), which joins many
    more families in one entry but costs more per miss; the deletion
    search, where one lookup stands for a whole search, uses it.  Its value
    is computed on the caller's own family, so the search's inner lookups
    reuse the entries the caller already has under its own labels; run on
    the relabelled family, the order-complex searches of poset-routes
    missed the Reisner entries of the atom-deletion searches and took
    8-13% longer.
    """
    p = fieldspec.characteristic
    hit, free = _lookup(compute, facet_masks, p, extra)
    if hit is None:
        canon = (_invariant_masks if invariant else _canonical_masks)(facet_masks)
        if canon is not facet_masks:
            hit, free = _lookup(compute, canon, p, extra)
        if hit is None:
            hit, free = _certified(compute, facet_masks if invariant else canon, fieldspec, *extra)
            _CACHE[(compute, canon, None if free else p) + extra] = hit
        _CACHE[(compute, facet_masks, None if free else p) + extra] = hit
    return hit


def _lookup(compute, facet_masks: frozenset[int], p: int, extra: tuple):
    """``(value or None, whether it holds over every field)`` from the
    ``None`` key, else from the key of characteristic p.  A Q value found
    only under 0 was not certified, so reading it bumps ``_taint``."""
    global _taint
    hit = _CACHE.get((compute, facet_masks, None) + extra)
    if hit is not None:
        return hit, True
    hit = _CACHE.get((compute, facet_masks, p) + extra)
    if hit is not None and not p:
        _taint += 1
    return hit, False


def _canonical_masks(facet_masks: frozenset[int]) -> frozenset[int]:
    """The family with its vertex support mapped, in order, onto bits
    0..k-1; ``facet_masks`` itself when the support already is 0..k-1."""
    support = _support(facet_masks)
    if not support & (support + 1):
        return facet_masks
    return frozenset(_relabel_masks(facet_masks, support))


def _invariant_masks(facet_masks: frozenset[int]) -> frozenset[int]:
    """The family with its support vertices sorted by the number of facets
    of each size through them, ties in vertex order, and mapped onto bits
    0..k-1.  A simplicial isomorphism keeps those counts, and ties in vertex
    order make families that differ by an order-preserving relabelling share
    the key.  When the sorted order is increasing this is
    ``_canonical_masks``: the family itself on a support 0..k-1, else the
    run-based ``_relabel_masks``."""
    # count of facets of size s through a vertex in the bits from s*shift up
    shift = len(facet_masks).bit_length()
    weight: dict[int, int] = {}
    for fm in facet_masks:
        w = 1 << shift * fm.bit_count()
        rem = fm
        while rem:
            b = rem & -rem
            weight[b] = weight.get(b, 0) + w
            rem ^= b
    bits = sorted(weight)
    order = sorted(bits, key=weight.get)  # a stable sort: ties stay in vertex order
    if order == bits:
        return _canonical_masks(facet_masks)
    new = {b: 1 << i for i, b in enumerate(order)}
    out = []
    for fm in facet_masks:
        m = 0
        rem = fm
        while rem:
            b = rem & -rem
            m |= new[b]
            rem ^= b
        out.append(m)
    return frozenset(out)


def faces_by_card(facet_masks: frozenset[int]) -> list[list[int]]:
    """All face bitmasks grouped by cardinality, each group in increasing
    order (index 0 holds the empty face)."""
    top = max(map(int.bit_count, facet_masks), default=0)
    return _by_card(_face_masks(facet_masks), top)


def _by_card(faces, top: int) -> list[list[int]]:
    """The face bitmasks grouped by cardinality 0..top, each group in
    increasing order."""
    by_card: list[list[int]] = [[] for _ in range(top + 1)]
    for m in sorted(faces):
        by_card[m.bit_count()].append(m)
    return by_card


def _homology_dims(facet_masks: frozenset[int], fieldspec: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dims (degree -1 first) from the boundary ranks.

    A graph or a point set (no facet of more than 2 vertices) lists no
    faces: the map from vertices to the empty face has rank 1 whenever
    there is a vertex, and the map from edges to vertices has rank
    #vertices - #components, since the coboundary on 0-cochains has the
    locally constant functions as its kernel (``_components``).

    Any other family that is not a cone is ranked relative to the closed
    star st(v) of v, the lowest vertex: the faces F with F + v a face.  The
    star is a cone, so its augmented chain complex is acyclic over Z and
    H~_*(Delta) = H_*(Delta, st v) over every field.  The relative faces
    (``_relative_faces``) are those of the facets that avoid v, less the
    faces of lk(v); with r_k of them of cardinality k and rho_k the rank of
    the relative boundary from cardinality k, H~_{k-1} = r_k - rho_k -
    rho_{k+1}.  rho_1 = 0, as the empty face lies in the star, and rho_2 =
    r_1 - (#components - 1), by the same union-find over the relative edges
    and the edges from v to the rest of its star.  From cardinality 3 up the
    relative rows, the +-1 rows with the star columns dropped, go to
    ``_rank_rows``; a level next to an empty one takes no rank, so a
    skeleton, whose relative faces are all top faces, takes none at all."""
    if not facet_masks:
        return (1,)  # the empty complex: only the empty face
    top = max(map(int.bit_count, facet_masks))  # top cardinality; dimension is top-1
    if _apex(facet_masks):  # a cone, a simplex included: contractible
        return (0,) * (top + 1)
    vertices = _support(facet_masks)
    ranks = [0] * (top + 2)  # ranks[k] = rank of boundary from card k to card k-1
    if top <= 2:
        edges = [m for m in facet_masks if m.bit_count() == 2]
        counts = [1, vertices.bit_count(), len(edges)]
        if top >= 1:
            ranks[1] = 1
        if top >= 2:
            ranks[2] = counts[1] - _components(vertices, edges)
    else:
        v = vertices & -vertices
        link = [fm ^ v for fm in facet_masks if fm & v]
        by_card = _relative_faces(facet_masks, v, link, top)
        counts = list(map(len, by_card))
        spokes = [v | b for b in _bits(_support(link))]
        ranks[2] = counts[1] - (_components(vertices, by_card[2] + spokes) - 1)
        for k in range(3, top + 1):
            if by_card[k] and by_card[k - 1]:
                # rank of the transpose equals the rank
                ranks[k] = _rank_rows(_boundary_rows(by_card[k], by_card[k - 1]), fieldspec)
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


def _relative_faces(facet_masks: frozenset[int], v: int, link: list[int], top: int) -> list[list[int]]:
    """The faces outside the closed star of the vertex bit ``v``, whose link
    has the facets ``link``, grouped by cardinality 0..top as in
    ``faces_by_card``.  A face through v lies in the star, and one that
    avoids v lies in it when it is a face of the link, so the relative
    faces are those of the facets that avoid v, less the link's faces.
    They form an up-set: the walk goes down from those facets and stops at
    the first link face."""
    star = _face_masks(link)
    faces = set()
    stack = [fm for fm in facet_masks if not fm & v]
    faces.update(stack)
    while stack:
        cell = stack.pop()
        rem = cell
        while rem:
            bit = rem & -rem
            face = cell ^ bit
            if face not in faces and face not in star:
                faces.add(face)
                stack.append(face)
            rem ^= bit
    return _by_card(faces, top)


def _components(vertices: int, edges: list[int]) -> int:
    """Number of connected components of the graph on the vertex bits of
    ``vertices`` with the 2-bit masks ``edges``, by one union-find over the
    edges: every edge that joins two components is one merge."""
    parent: dict[int, int] = {}
    merges = 0
    for e in edges:
        a = e & -e
        b = e ^ a
        while a in parent:
            a = parent[a]
        while b in parent:
            b = parent[b]
        if a != b:
            parent[a] = b
            merges += 1
    return vertices.bit_count() - merges


def _boundary_rows(cells: list[int], below: list[int]) -> list[dict[int, int]]:
    """One sparse row per cell (a face bitmask) over the positions in
    ``below``: the face missing the cell's j-th smallest vertex gets the
    sign (-1)^j.  A face not in ``below`` (one of the star, for relative
    rows) gets no entry."""
    index = {m: i for i, m in enumerate(below)}
    rows = []
    for cell in cells:
        row = {}
        sign = 1
        rem = cell
        while rem:
            bit = rem & (-rem)
            i = index.get(cell ^ bit)
            if i is not None:
                row[i] = sign
            sign = -sign
            rem ^= bit
        rows.append(row)
    return rows
