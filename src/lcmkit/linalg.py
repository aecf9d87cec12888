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
follow from the boundary ranks; a global cache keyed by the facet family
makes the repeated link/restriction homology lookups of the Cohen-Macaulay
sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .complexes import SimplicialComplex, mask_to_face
from .errors import VoidComplexError

_MAX_PRIME = 2**31


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
    every entry put through ``FieldSpec.normalize`` over GF(p)."""
    if all(type(v) is int for row in rows for v in row.values()):
        return rows
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
    (Dumas, Saunders and Villard, J. Symb. Comput. 2001).  Over Q every
    entry must be nonzero; the rows are consumed.
    """
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
    below, cells = (sorted(level, key=lambda m: sorted(mask_to_face(m))) for level in by_card[i : i + 2])
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


# Cache of homology computations keyed by (facet bitmask family, characteristic).
# Link and restriction families repeat heavily across Cohen-Macaulay sweeps.
_HOMOLOGY_CACHE: dict[tuple[frozenset[int], int], tuple[int, ...]] = {}


def homology_dims_of_facets(facet_masks: frozenset[int], fieldspec: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dims (degree -1 first) of the complex generated by
    ``facet_masks``; the empty family means the empty complex {emptyset}."""
    key = (facet_masks, fieldspec.characteristic)
    hit = _HOMOLOGY_CACHE.get(key)
    if hit is not None:
        return hit
    dims = _homology_dims(facet_masks, fieldspec)
    _HOMOLOGY_CACHE[key] = dims
    return dims


def faces_by_card(facet_masks: frozenset[int]) -> list[list[int]]:
    """All face bitmasks grouped by cardinality (index 0 holds the empty face)."""
    top = max((m.bit_count() for m in facet_masks), default=0)
    seen: set[int] = set()
    by_card: list[list[int]] = [[] for _ in range(top + 1)]
    for fm in facet_masks:
        sub = fm
        while True:
            if sub not in seen:
                seen.add(sub)
                by_card[sub.bit_count()].append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fm
    for level in by_card:
        level.sort()
    return by_card


def _homology_dims(facet_masks: frozenset[int], fieldspec: FieldSpec) -> tuple[int, ...]:
    if not facet_masks:
        return (1,)  # the empty complex: only the empty face
    # Single facet: a simplex, contractible unless it is the empty complex.
    if len(facet_masks) == 1:
        top = next(iter(facet_masks)).bit_count() - 1
        if top == -1:
            return (1,)
        return (0,) * (top + 2)
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
