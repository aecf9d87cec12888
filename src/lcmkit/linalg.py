"""Exact linear algebra over Q and GF(p), boundary matrices, reduced homology.

Ranks are computed exactly by one sparse kernel, ``_rank_rows``, for both
fields.  It takes rows as ``{column: int}`` dicts, shortest first, and
pivots only on units of the field: any nonzero residue over GF(p), only
+-1 over Q, so every entry stays an exact int.  Over Q the few rows left
with no +-1 entry form a small core that goes to fraction-free (Bareiss)
elimination.  No floating point anywhere.  The public ``rank``, the
boundary ranks of ``_homology_dims`` and the Koszul ranks of ``squarefree``
all enter there.  Only ``rank`` and the Koszul route can carry Fractions;
they pass their rows through ``_int_rows`` first, which checks once per
matrix whether every entry is an int and converts only a matrix that is not
(denominators cleared row by row over Q, ``FieldSpec.normalize`` over
GF(p)).  Boundary rows are assembled once, on bitmask faces, for both the
ranks and ``boundary_matrix``.  Reduced simplicial homology dimensions
follow from the boundary ranks, except on a cone: a family whose facets all
share a vertex v is v * lk(v), contractible, so ``_homology_dims`` answers
zero in every degree with no rank.  That answer holds over every field and
is certified; a single facet (a simplex) is the smallest cone.

A Q rank of int rows whose Bareiss core stayed empty is certified for
every field.  Each row operation adds an integer multiple of a pivot row
with a +-1 pivot, so the row lattice is unchanged; each pivot row is 1 on
its own column and 0 on the columns of earlier pivots, so the pivot rows
have a unitriangular r x r minor and the rank is r mod every prime (all
Smith invariants are 1).  Every step that breaks this bumps the counter
``_taint``: a Q rank that reached the core, rows that ``_int_rows``
converted, and a Q value read from a characteristic-0 cache key.
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
the enum-sweep benchmark runs 625 threshold searches in place of 7,451.
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

from .complexes import SimplicialComplex, _apex, _face_key, _face_masks, _relabel_masks, _support
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
    """The coefficient field: Q (characteristic 0) or GF(p) for a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
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
        fraction's denominator is inverted."""
        p = self.characteristic
        if not p:
            return value
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, -1, p) % p
        return int(value) % p


QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)


class SparseMatrix:
    """Sparse matrix with exact entries (ints or Fractions)."""

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
    """Exact rank of ``matrix`` over the given field."""
    rows: dict[int, dict[int, object]] = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v
    return _rank_rows(_int_rows(list(rows.values()), fieldspec), fieldspec)


def _int_rows(rows: list[dict], fieldspec: FieldSpec) -> list[dict[int, int]]:
    """``rows`` themselves when every entry is an int; otherwise a copy with
    denominators cleared row by row over Q (row scaling preserves rank) or
    every entry put through ``FieldSpec.normalize`` over GF(p).  A converted
    matrix is not certified for every field."""
    global _taint
    if all(type(v) is int for row in rows for v in row.values()):
        return rows
    _taint += 1
    if fieldspec.characteristic:
        return [{c: fieldspec.normalize(v) for c, v in row.items()} for row in rows]
    scaled = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row.values()))
        scaled.append({c: int(v * scale) for c, v in row.items()})
    return scaled


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
            f = rows[i][c]
            ri = rows[i]
            # rows with a zero pivot entry still need the exact p/prev rescale
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(ri, prow)]
            elif prev != 1 and p != prev:
                rows[i] = [(p * a) // prev for a in ri]
            elif p != prev:
                rows[i] = [p * a for a in ri]
        prev = p
        r += 1
        if r == m:
            break
    return r


# -- boundary matrices and homology ---------------------------------------------


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


def boundary_matrix(delta: SimplicialComplex, i: int, fieldspec: FieldSpec) -> SparseMatrix:
    """Matrix of the i-th boundary map, bases in lexicographic vertex-tuple order.

    Rows are indexed by (i-1)-faces, columns by i-faces; i = 0 gives the
    augmentation onto the empty face.
    """
    if delta.is_void:
        raise VoidComplexError("the void complex has no boundary maps")
    if not 0 <= i <= delta.dimension():
        raise ValueError(f"need 0 <= i <= {delta.dimension()}")
    by_card = faces_by_card(delta.facet_masks)
    below, cells = (sorted(level, key=_face_key) for level in by_card[i : i + 2])
    entries = {
        (c, r): fieldspec.normalize(v)
        for r, row in enumerate(_boundary_rows(cells, below))
        for c, v in row.items()
    }
    return SparseMatrix(len(below), len(cells), entries)


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
    by_card: list[list[int]] = [[] for _ in range(top + 1)]
    for m in sorted(_face_masks(facet_masks)):
        by_card[m.bit_count()].append(m)
    return by_card


def _homology_dims(facet_masks: frozenset[int], fieldspec: FieldSpec) -> tuple[int, ...]:
    if not facet_masks:
        return (1,)  # the empty complex: only the empty face
    if _apex(facet_masks):  # a cone, a simplex included: contractible
        return (0,) * (max(map(int.bit_count, facet_masks)) + 1)
    by_card = faces_by_card(facet_masks)
    top = len(by_card) - 1  # top cardinality; dimension is top-1
    ranks = [0] * (top + 2)  # ranks[k] = rank of boundary from card k to card k-1
    for k in range(1, top + 1):
        # rank of the transpose equals the rank
        ranks[k] = _rank_rows(_boundary_rows(by_card[k], by_card[k - 1]), fieldspec)
    dims = []
    for k in range(0, top + 1):  # cardinality k <-> degree k-1
        dims.append(len(by_card[k]) - ranks[k] - ranks[k + 1])
    return tuple(dims)


def _boundary_rows(cells: list[int], below: list[int]) -> list[dict[int, int]]:
    """One sparse row per cell (a face bitmask) over the positions in
    ``below``: the face missing the cell's j-th smallest vertex gets the
    sign (-1)^j."""
    index = {m: i for i, m in enumerate(below)}
    rows = []
    for cell in cells:
        row = {}
        sign = 1
        rem = cell
        while rem:
            bit = rem & (-rem)
            row[index[cell ^ bit]] = sign
            sign = -sign
            rem ^= bit
        rows.append(row)
    return rows
