"""Squarefree modules given by componentwise data, and their Betti numbers.

A squarefree module over a polynomial ring in n variables is stored by the
dimensions of its components at the 2^n squarefree degrees together with the
multiplication maps between adjacent components.  Betti numbers are computed
degree by degree as homology of the Koszul complex; from them we read off
projective dimension, Cohen-Macaulayness, the l-CM property under vertex
deletions, and the Betti table of the canonical module of a CM module.
"""

from __future__ import annotations

from itertools import combinations

from .cm import BettiTable, _check_betti_size, _smallest_failing_deletion
from .complexes import SimplicialComplex, _mask, mask_to_face
from .errors import (
    InvalidModuleError,
    ParseError,
    RequiresCohenMacaulayError,
    VoidComplexError,
    ZeroModuleError,
)
from .linalg import FieldSpec, _int_rows, _rank_rows

# rows of exact entries (ints, or Fractions over Q)
Matrix = tuple[tuple, ...]


def _as_matrix(rows, nrows: int, ncols: int) -> Matrix:
    mat = tuple(tuple(r) for r in rows)
    if len(mat) != nrows or any(len(r) != ncols for r in mat):
        raise ValueError(f"expected a {nrows}x{ncols} matrix")
    return mat


def _is_zero_matrix(mat: Matrix) -> bool:
    return all(v == 0 for row in mat for v in row)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # a: p x q, b: q x r -> p x r
    if not a or not b:
        return tuple(() for _ in a)
    r = len(b[0])
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(r))
        for arow in a
    )


class SquarefreeModule:
    """Component dimensions and multiplication maps on squarefree degrees.

    ``comp`` maps a degree F (frozenset of 1..n) to the k-dimension of the
    component there; zero components are not stored.  ``mult`` maps (F, j)
    with j not in F to the matrix of multiplication by the j-th variable,
    of shape comp[F + {j}] x comp[F]; maps that are absent or would touch a
    zero component are the zero map.
    """

    def __init__(self, n: int, comp: dict, mult: dict | None = None):
        if n < 0:
            raise ValueError("ambient variable count must be >= 0")
        self.n = n
        self.comp: dict[frozenset[int], int] = {}
        for deg, d in comp.items():
            f = frozenset(deg)
            if not all(isinstance(v, int) and 1 <= v <= n for v in f):
                raise ValueError(f"degree {sorted(f)} outside 1..{n}")
            if d < 0:
                raise ValueError("component dimensions must be >= 0")
            if d > 0:
                self.comp[f] = d
        self.mult: dict[tuple[frozenset[int], int], Matrix] = {}
        for (deg, j), mat in (mult or {}).items():
            f = frozenset(deg)
            if j in f or not 1 <= j <= n:
                raise ValueError(f"bad multiplication index {j} at degree {sorted(f)}")
            src = self.comp.get(f, 0)
            dst = self.comp.get(f | {j}, 0)
            m = _as_matrix(mat, dst, src)
            if src == 0 or dst == 0:
                continue  # maps into or out of a zero component carry nothing
            if not _is_zero_matrix(m):
                self.mult[(f, j)] = m

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.comp

    def component(self, deg) -> int:
        return self.comp.get(frozenset(deg), 0)

    def map_matrix(self, deg, j: int) -> Matrix:
        """The multiplication matrix at (deg, j), materializing zero maps."""
        f = frozenset(deg)
        hit = self.mult.get((f, j))
        if hit is not None:
            return hit
        dst = self.comp.get(f | {j}, 0)
        src = self.comp.get(f, 0)
        return tuple((0,) * src for _ in range(dst))

    def __eq__(self, other):
        return (
            isinstance(other, SquarefreeModule)
            and self.n == other.n
            and self.comp == other.comp
            and self.mult == other.mult
        )

    def __repr__(self):
        return f"SquarefreeModule(n={self.n}, {len(self.comp)} components)"

    def validate_over(self, fieldspec: FieldSpec) -> None:
        """Check the commutativity of the multiplication maps over the field."""
        for f in self.comp:
            others = [j for j in range(1, self.n + 1) if j not in f]
            for j, k in combinations(others, 2):
                if self.comp.get(f | {j, k}, 0) == 0:
                    continue
                left = _mat_mul(self.map_matrix(f | {j}, k), self.map_matrix(f, j))
                right = _mat_mul(self.map_matrix(f | {k}, j), self.map_matrix(f, k))
                for lrow, rrow in zip(left, right):
                    for a, b in zip(lrow, rrow):
                        if fieldspec.normalize(a - b) != 0:
                            raise InvalidModuleError(
                                f"maps at degree {sorted(f)} do not commute for "
                                f"variables {j},{k} over {fieldspec.label()}"
                            )


# -- constructions ---------------------------------------------------------------


def from_complex(delta: SimplicialComplex) -> SquarefreeModule:
    """The face ring of a complex as a squarefree module: one-dimensional
    components at the faces, identity maps along face inclusions."""
    if delta.is_void:
        raise VoidComplexError("the void complex has the zero face ring")
    comp = {f: 1 for f in delta.all_faces()}
    mult = {}
    for f in comp:
        for j in range(1, delta.vertex_count + 1):
            if j not in f and frozenset(f | {j}) in comp:
                mult[(f, j)] = ((1,),)
    return SquarefreeModule(delta.vertex_count, comp, mult)


def omega_module(n: int, deg) -> SquarefreeModule:
    """The module with a single one-dimensional component at the given degree."""
    f = frozenset(deg)
    if not all(1 <= v <= n for v in f):
        raise ValueError(f"degree {sorted(f)} outside 1..{n}")
    return SquarefreeModule(n, {f: 1})


def restrict(module: SquarefreeModule, keep) -> SquarefreeModule:
    """Restriction to the variables in ``keep``, relabeled onto 1..#keep."""
    w = sorted(set(keep))
    if any(v < 1 or v > module.n for v in w):
        raise ValueError("variable subset out of range")
    relabel = {v: i + 1 for i, v in enumerate(w)}
    wset = frozenset(w)
    comp = {
        frozenset(relabel[v] for v in f): d
        for f, d in module.comp.items()
        if f <= wset
    }
    mult = {
        (frozenset(relabel[v] for v in f), relabel[j]): mat
        for (f, j), mat in module.mult.items()
        if f <= wset and j in wset
    }
    return SquarefreeModule(len(w), comp, mult)


def delete_variables(module: SquarefreeModule, drop) -> SquarefreeModule:
    d = set(drop)
    return restrict(module, (v for v in range(1, module.n + 1) if v not in d))


def module_skeleton(module: SquarefreeModule, i: int) -> SquarefreeModule:
    """Quotient by all components in degrees of support size > i."""
    if i < 0:
        raise ValueError("skeleton index must be >= 0")
    comp = {f: d for f, d in module.comp.items() if len(f) <= i}
    mult = {
        (f, j): mat
        for (f, j), mat in module.mult.items()
        if len(f) + 1 <= i
    }
    return SquarefreeModule(module.n, comp, mult)


# -- Koszul homology ---------------------------------------------------------------


def koszul_betti(module: SquarefreeModule, fieldspec: FieldSpec) -> BettiTable:
    """Betti table of the module: the (i, F) entry is the dimension of the
    i-th homology of the Koszul complex in squarefree degree F."""
    _check_betti_size(module.n)
    module.validate_over(fieldspec)
    entries: dict[tuple[int, frozenset[int]], int] = {}
    if module.is_zero:
        return BettiTable(module.n, entries)
    # degrees as bitmasks; a map is keyed by its source degree and the bit of its variable
    comp = {_mask(f): d for f, d in module.comp.items()}
    mult = {(_mask(f), 1 << (j - 1)): mat for (f, j), mat in module.mult.items()}
    for deg in range(1 << module.n):
        if not any(s & deg == s for s in comp):
            continue
        homology = _koszul_degree(comp, mult, deg, fieldspec)
        if homology:
            face = mask_to_face(deg)
            for i, b in homology.items():
                entries[(i, face)] = b
    return BettiTable(module.n, entries)


def _koszul_degree(comp: dict[int, int], mult: dict[tuple[int, int], Matrix], deg: int,
                   fieldspec: FieldSpec) -> dict[int, int]:
    """Homology dimensions of the Koszul complex of one squarefree degree."""
    size = deg.bit_count()
    # basis of term i: pairs (G, b) with G a submask of deg, #G = i, b < comp[deg - G]
    bases: list[list[tuple[int, int]]] = [[] for _ in range(size + 1)]
    g = deg
    while True:
        d = comp.get(deg ^ g, 0)
        if d:
            bases[g.bit_count()].extend((g, b) for b in range(d))
        if not g:
            break
        g = (g - 1) & deg
    ranks = [0] * (size + 2)  # ranks[i] = rank of d_i : term i -> term i-1
    for i in range(1, size + 1):
        ranks[i] = _koszul_rank(mult, deg, bases[i], bases[i - 1], fieldspec)
    out: dict[int, int] = {}
    for i in range(size + 1):
        h = len(bases[i]) - ranks[i] - ranks[i + 1]
        if h:
            out[i] = h
    return out


def _koszul_rank(mult, deg: int, upper, lower, fieldspec: FieldSpec) -> int:
    """Rank of the Koszul differential sending (G, b) to
    sum over j in G of sign(j, G) * mult(deg - G, j)(e_b) at (G - {j}, .)."""
    if not upper or not lower:
        return 0
    col_index = {key: c for c, key in enumerate(lower)}
    rows = []
    for g, b in upper:
        # each j in G reaches its own column block G - {j}, so no entries add up
        row = {}
        src_deg = deg ^ g
        sign = 1
        rem = g
        while rem:
            bit = rem & (-rem)
            mat = mult.get((src_deg, bit))
            if mat is not None:
                target = g ^ bit
                for r, mrow in enumerate(mat):
                    v = mrow[b]
                    if v:
                        row[col_index[(target, r)]] = sign * v
            sign = -sign
            rem ^= bit
        rows.append(row)
    return _rank_rows(_int_rows(rows, fieldspec), fieldspec)


# -- dimension and Cohen-Macaulayness ------------------------------------------------


def module_dim(module: SquarefreeModule) -> int:
    """Krull dimension: the largest support size of a nonzero component."""
    if module.is_zero:
        raise ZeroModuleError("the zero module has no dimension")
    return max(len(f) for f in module.comp)


def is_module_cm(module: SquarefreeModule, fieldspec: FieldSpec,
                 table: BettiTable | None = None) -> bool:
    """Cohen-Macaulayness via projective dimension: pd = n - dim.

    The zero module counts as Cohen-Macaulay (vacuously)."""
    if module.is_zero:
        return True
    if table is None:
        table = koszul_betti(module, fieldspec)
    return table.projective_dimension() == module.n - module_dim(module)


def is_module_l_cm(module: SquarefreeModule, l: int, fieldspec: FieldSpec) -> bool:
    """True iff deleting any fewer than l variables leaves the zero module or
    a Cohen-Macaulay module of unchanged dimension."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return module_l_cm_threshold(module, fieldspec) > min(l - 1, module.n)


def max_module_l(module: SquarefreeModule, fieldspec: FieldSpec) -> int:
    """Largest l in [1, n] such that the module is l-CM; 0 when not CM."""
    return min(module_l_cm_threshold(module, fieldspec), module.n)


def module_l_cm_threshold(module: SquarefreeModule, fieldspec: FieldSpec) -> int:
    """Smallest number of deleted variables leaving a nonzero module that is
    not Cohen-Macaulay or has smaller dimension; n+1 when every deletion
    passes.  The module is l-CM exactly when this threshold is >= l.

    One Koszul table serves every deletion: the restriction to the kept
    variables W has the entries of the table at the degrees inside W
    (Yanagawa, J. Algebra 2000)."""
    if module.is_zero:
        raise ZeroModuleError("the l-CM property is checked on nonzero modules")
    table = koszul_betti(module, fieldspec)
    n = module.n
    d = module_dim(module)
    supports = [_mask(f) for f in module.comp]
    entries = [(i, _mask(deg)) for i, deg in table.entries]

    def fails(drop: int) -> bool:
        kept = [m.bit_count() for m in supports if not m & drop]
        if not kept:
            return False  # the zero module passes
        pd = max(i for i, m in entries if not m & drop)
        return max(kept) != d or pd != n - drop.bit_count() - d

    return _smallest_failing_deletion([1 << b for b in range(n)], n, fails)


# -- Betti-table characterizations ----------------------------------------------------


def thm25_condition_ii(table: BettiTable, n: int, d: int, l: int) -> bool:
    """Vanishing pattern characterizing l-CM for a CM module of dimension d:
    no entry at (i, F) with i > n - d - l + 1 and #F < i + d."""
    bound = n - d - l + 1
    for (i, deg) in table.entries:
        if i > bound and len(deg) < i + d:
            return False
    return True


def thm25_condition_iii(canonical_table: BettiTable, l: int) -> bool:
    """Vanishing pattern for the canonical module's table: no entry at (i, F)
    with i < l - 1 and #F > i."""
    for (i, deg) in canonical_table.entries:
        if i < l - 1 and len(deg) > i:
            return False
    return True


def canonical_betti(table: BettiTable, n: int, d: int) -> BettiTable:
    """Betti table of the canonical module of a CM module of dimension d:
    entry (i, F) equals the original entry at (n - d - i, complement of F)."""
    if table.projective_dimension() != n - d:
        raise RequiresCohenMacaulayError(
            "canonical Betti numbers require a Cohen-Macaulay module "
            f"(projective dimension {table.projective_dimension()}, expected {n - d})"
        )
    full = frozenset(range(1, n + 1))
    entries = {}
    for (i, deg), b in table.entries.items():
        entries[(n - d - i, full - deg)] = b
    return BettiTable(n, entries)


def is_2cm_via_canonical(module: SquarefreeModule, fieldspec: FieldSpec) -> bool:
    """2-CM test through the canonical module: true iff the canonical module is
    generated in degree zero (no generator in a nonempty squarefree degree)."""
    if module.is_zero:
        raise ZeroModuleError("the 2-CM test is for nonzero modules")
    table = koszul_betti(module, fieldspec)
    d = module_dim(module)
    if table.projective_dimension() != module.n - d:
        raise RequiresCohenMacaulayError("the canonical-module test requires a CM module")
    dual = canonical_betti(table, module.n, d)
    return all(not deg for (i, deg) in dual.entries if i == 0)


# -- module file format ----------------------------------------------------------------
#
#   n <int>
#   comp <F> <dim>          nonzero components; F is `-` or comma-joined vertices
#   map <F> <j> <rows>      nonzero maps; rows `;`-separated, entries space-separated


def _format_degree(deg: frozenset[int]) -> str:
    return ",".join(str(v) for v in sorted(deg)) if deg else "-"


def _parse_degree(text: str) -> frozenset[int]:
    if text == "-":
        return frozenset()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError(f"bad degree {text!r}") from None
    if any(p < 1 for p in parts) or len(set(parts)) != len(parts):
        raise ParseError(f"bad degree {text!r}")
    return frozenset(parts)


def format_module_file(module: SquarefreeModule) -> str:
    lines = [f"n {module.n}"]
    for f in sorted(module.comp, key=lambda f: (len(f), sorted(f))):
        lines.append(f"comp {_format_degree(f)} {module.comp[f]}")
    for (f, j), mat in sorted(module.mult.items(), key=lambda t: (len(t[0][0]), sorted(t[0][0]), t[0][1])):
        rows = " ; ".join(" ".join(str(v) for v in row) for row in mat)
        lines.append(f"map {_format_degree(f)} {j} {rows}")
    return "\n".join(lines) + "\n"


def parse_module_file(text: str) -> SquarefreeModule:
    n: int | None = None
    comp: dict[frozenset[int], int] = {}
    mult: dict[tuple[frozenset[int], int], tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "n" and len(parts) == 2:
                n = int(parts[1])
            elif parts[0] == "comp" and len(parts) == 3:
                comp[_parse_degree(parts[1])] = int(parts[2])
            elif parts[0] == "map" and len(parts) >= 3:
                deg = _parse_degree(parts[1])
                j = int(parts[2])
                rows = [
                    tuple(int(v) for v in chunk.split())
                    for chunk in " ".join(parts[3:]).split(";")
                ]
                mult[(deg, j)] = tuple(r for r in rows if r)
            else:
                raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"line {lineno}: bad integer in {line!r}") from None
    if n is None:
        raise ParseError("missing `n <int>` line")
    try:
        return SquarefreeModule(n, comp, mult)
    except ValueError as e:
        raise ParseError(str(e)) from None
