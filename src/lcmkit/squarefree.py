"""Squarefree modules given by componentwise data, and their Betti numbers.

A squarefree module over a polynomial ring in n variables is stored by the
dimensions of its components at the 2^n squarefree degrees together with the
multiplication maps between adjacent components, every degree as a bitmask
(vertex v on bit v-1), as complexes store their facets.  The vertex-set
views ``comp`` and ``mult`` are derived from the masks.  The commutativity
of the maps is scanned once, where outside maps enter (the constructor):
the entries where the two paths around a square differ are kept, each
derived module carries the ones of its parent that it keeps, and each field
only tests whether one of them survives reduction.  Betti numbers are
computed degree by degree as homology of the Koszul complex on the masks.
A table computed over Q whose every rank is certified by ``linalg`` holds
over every field; the module keeps it, and later fields copy it.  From the
tables we read off projective dimension, Cohen-Macaulayness, the l-CM
property under vertex deletions, and the Betti table of the canonical
module of a CM module.
"""

from __future__ import annotations

from itertools import chain, combinations

from .cm import BettiTable, _check_betti_size, _smallest_failing_deletion
from .complexes import SimplicialComplex, _bits, _face_key, _face_text, _mask, _relabel_masks, mask_to_face
from .errors import (
    InvalidModuleError,
    ParseError,
    RequiresCohenMacaulayError,
    VoidComplexError,
    ZeroModuleError,
)
from .linalg import FieldSpec, _certified, _int_rows, _rank_rows, faces_by_card

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

    A degree F (a subset of 1..n) is stored as its bitmask, vertex v on bit
    v-1.  ``comp_masks`` maps a degree mask to the k-dimension of the
    component there; zero components are not stored.  ``mult_masks`` maps
    (F, bit of j) with j not in F to the matrix of multiplication by the
    j-th variable, of shape comp[F + {j}] x comp[F]; maps that are absent,
    zero, or would touch a zero component are the zero map and not stored.
    ``comp`` and ``mult`` derive the same data keyed by vertex sets and
    variable numbers.  The constructor takes that vertex-set form and scans
    the maps for commutativity defects; ``_from_masks`` takes the stored
    form with defects the caller already knows.
    """

    # Koszul entries computed over Q with every rank certified: they hold
    # over every field (see ``koszul_betti``)
    _free_betti: dict | None = None

    def __init__(self, n: int, comp: dict, mult: dict | None = None):
        if n < 0:
            raise ValueError("ambient variable count must be >= 0")
        self.n = n
        self.comp_masks: dict[int, int] = {}
        seen: set[int] = set()
        for deg, d in comp.items():
            f = frozenset(deg)
            if not all(isinstance(v, int) and 1 <= v <= n for v in f):
                raise ValueError(f"degree {sorted(f)} outside 1..{n}")
            if not isinstance(d, int):
                raise ValueError(f"component dimension {d!r} at degree {sorted(f)} is not an integer")
            if d < 0:
                raise ValueError("component dimensions must be >= 0")
            fm = _mask(f)
            if fm in seen:
                raise ValueError(f"degree {sorted(f)} is given twice")
            seen.add(fm)
            if d > 0:
                self.comp_masks[fm] = d
        self.mult_masks: dict[tuple[int, int], Matrix] = {}
        seen_maps: set[tuple[int, int]] = set()
        for (deg, j), mat in (mult or {}).items():
            face = frozenset(deg)
            if j in face or not 1 <= j <= n:
                raise ValueError(f"bad multiplication index {j} at degree {sorted(face)}")
            f, bit = _mask(face), 1 << (j - 1)
            if (f, bit) in seen_maps:
                raise ValueError(f"the map at degree {sorted(face)} for variable {j} is given twice")
            seen_maps.add((f, bit))
            src = self.comp_masks.get(f, 0)
            dst = self.comp_masks.get(f | bit, 0)
            m = _as_matrix(mat, dst, src)
            # a map into or out of a zero component is a zero matrix
            if not _is_zero_matrix(m):
                self.mult_masks[(f, bit)] = m
        self._defects = _scan_defects(self)

    @classmethod
    def _from_masks(cls, n: int, comp_masks: dict, mult_masks: dict, defects: list) -> "SquarefreeModule":
        """A module from data already in stored form: nonzero components,
        nonzero maps between them, and the defects ``_scan_defects`` would
        find on them."""
        module = cls.__new__(cls)
        module.n, module.comp_masks, module.mult_masks = n, comp_masks, mult_masks
        module._defects = defects
        return module

    # -- basic structure ----------------------------------------------------

    @property
    def comp(self) -> dict[frozenset[int], int]:
        """The components keyed by vertex sets."""
        return {mask_to_face(f): d for f, d in self.comp_masks.items()}

    @property
    def mult(self) -> dict[tuple[frozenset[int], int], Matrix]:
        """The nonzero maps keyed by (vertex set, variable number)."""
        return {(mask_to_face(f), bit.bit_length()): mat
                for (f, bit), mat in self.mult_masks.items()}

    @property
    def is_zero(self) -> bool:
        return not self.comp_masks

    def component(self, deg) -> int:
        return self.comp_masks.get(_mask(deg), 0)

    def map_matrix(self, deg, j: int) -> Matrix:
        """The multiplication matrix at (deg, j), materializing zero maps."""
        return self._map(_mask(deg), 1 << (j - 1))

    def _map(self, f: int, bit: int) -> Matrix:
        hit = self.mult_masks.get((f, bit))
        if hit is not None:
            return hit
        src = self.comp_masks.get(f, 0)
        return tuple((0,) * src for _ in range(self.comp_masks.get(f | bit, 0)))

    def __eq__(self, other):
        return (
            isinstance(other, SquarefreeModule)
            and self.n == other.n
            and self.comp_masks == other.comp_masks
            and self.mult_masks == other.mult_masks
        )

    def __repr__(self):
        return f"SquarefreeModule(n={self.n}, {len(self.comp_masks)} components)"

    def validate_over(self, fieldspec: FieldSpec) -> None:
        """Check the commutativity of the multiplication maps over the field."""
        for f, jb, kb, diff in self._defects:
            if fieldspec.normalize(diff) != 0:
                raise InvalidModuleError(
                    f"maps at degree {sorted(mask_to_face(f))} do not commute for "
                    f"variables {jb.bit_length()},{kb.bit_length()} over {fieldspec.label()}"
                )


def _scan_defects(module: SquarefreeModule) -> list[tuple[int, int, int, object]]:
    """(F, bit of j, bit of k, a nonzero entry of x_k x_j - x_j x_k at F)
    for every entry where the two paths from F to F + {j, k} differ."""
    out = []
    for f in module.comp_masks:
        for jb, kb in combinations(_bits(((1 << module.n) - 1) ^ f), 2):
            if not module.comp_masks.get(f | jb | kb):
                continue
            left = _mat_mul(module._map(f | jb, kb), module._map(f, jb))
            right = _mat_mul(module._map(f | kb, jb), module._map(f, kb))
            for lrow, rrow in zip(left, right):
                out.extend((f, jb, kb, a - b) for a, b in zip(lrow, rrow) if a != b)
    return out


# -- constructions ---------------------------------------------------------------


def from_complex(delta: SimplicialComplex) -> SquarefreeModule:
    """The face ring of a complex as a squarefree module: one-dimensional
    components at the faces, identity maps along face inclusions."""
    if delta.is_void:
        raise VoidComplexError("the void complex has the zero face ring")
    comp = dict.fromkeys(chain(*faces_by_card(delta.facet_masks)), 1)
    full = (1 << delta.vertex_count) - 1
    mult = {(f, bit): ((1,),) for f in comp for bit in _bits(full ^ f) if f | bit in comp}
    # identity maps along the inclusions of a downward-closed family: both
    # paths around every square are the identity, so nothing to scan
    return SquarefreeModule._from_masks(delta.vertex_count, comp, mult, [])


def omega_module(n: int, deg) -> SquarefreeModule:
    """The module with a single one-dimensional component at the given degree."""
    return SquarefreeModule(n, {frozenset(deg): 1})


def restrict(module: SquarefreeModule, keep) -> SquarefreeModule:
    """Restriction to the variables in ``keep``, relabeled onto 1..#keep."""
    w = set(keep)
    if any(v < 1 or v > module.n for v in w):
        raise ValueError("variable subset out of range")
    wmask = _mask(w)
    kept = [f for f in module.comp_masks if f & wmask == f]
    new = dict(zip(kept, _relabel_masks(kept, wmask)))
    comp = {new[f]: module.comp_masks[f] for f in kept}
    # a map joins two stored components, so its target is kept exactly when
    # the map is, and the new bit of its variable is the difference
    mult = {(new[f], new[f | bit] ^ new[f]): mat
            for (f, bit), mat in module.mult_masks.items() if f | bit in new}
    # the restriction keeps exactly the squares inside the kept variables,
    # with the same maps, in the same order
    defects = [(*_relabel_masks((f, jb, kb), wmask), diff)
               for f, jb, kb, diff in module._defects if (f | jb | kb) & wmask == f | jb | kb]
    return SquarefreeModule._from_masks(len(w), comp, mult, defects)


def delete_variables(module: SquarefreeModule, drop) -> SquarefreeModule:
    return restrict(module, set(range(1, module.n + 1)).difference(drop))


def module_skeleton(module: SquarefreeModule, i: int) -> SquarefreeModule:
    """Quotient by all components in degrees of support size > i."""
    if i < 0:
        raise ValueError("skeleton index must be >= 0")
    comp = {f: d for f, d in module.comp_masks.items() if f.bit_count() <= i}
    mult = {key: mat for key, mat in module.mult_masks.items() if key[0].bit_count() < i}
    # the skeleton keeps exactly the squares whose top degree has at most i
    # elements, with the same maps, in the same order
    defects = [x for x in module._defects if (x[0] | x[1] | x[2]).bit_count() <= i]
    return SquarefreeModule._from_masks(module.n, comp, mult, defects)


# -- Koszul homology ---------------------------------------------------------------


def koszul_betti(module: SquarefreeModule, fieldspec: FieldSpec) -> BettiTable:
    """Betti table of the module: the (i, F) entry is the dimension of the
    i-th homology of the Koszul complex in squarefree degree F.

    A Q table whose every rank ``linalg`` certifies is kept on the module;
    any later field, once the maps are validated over it, copies it."""
    _check_betti_size(module.n)
    module.validate_over(fieldspec)
    entries = module._free_betti
    if entries is None:
        entries, free = _certified(_koszul_entries, module, fieldspec)
        if free:
            module._free_betti = entries
    return BettiTable(module.n, dict(entries))


def _koszul_entries(module: SquarefreeModule, fieldspec: FieldSpec) -> dict[tuple[int, int], int]:
    """The Betti entries keyed by (i, degree bitmask)."""
    entries: dict[tuple[int, int], int] = {}
    for deg in range(1 << module.n):
        if not any(s & deg == s for s in module.comp_masks):
            continue
        for i, b in _koszul_degree(module.comp_masks, module.mult_masks, deg, fieldspec).items():
            entries[(i, deg)] = b
    return entries


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
    return max(f.bit_count() for f in module.comp_masks)


def is_module_cm(module: SquarefreeModule, fieldspec: FieldSpec) -> bool:
    """Cohen-Macaulayness via projective dimension: pd = n - dim.

    The zero module counts as Cohen-Macaulay (vacuously)."""
    if module.is_zero:
        return True
    return koszul_betti(module, fieldspec).projective_dimension() == module.n - module_dim(module)


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
    entries = list(koszul_betti(module, fieldspec).entry_masks)
    n = module.n
    d = module_dim(module)
    def fails(drop: int) -> bool:
        kept = [m.bit_count() for m in module.comp_masks if not m & drop]
        if not kept:
            return False  # the zero module passes
        pd = max(i for i, deg in entries if not deg & drop)
        return max(kept) != d or pd != n - drop.bit_count() - d

    return _smallest_failing_deletion([1 << b for b in range(n)], n, fails)


# -- Betti-table characterizations ----------------------------------------------------


def thm25_condition_ii(table: BettiTable, n: int, d: int, l: int) -> bool:
    """Vanishing pattern characterizing l-CM for a CM module of dimension d:
    no entry at (i, F) with i > n - d - l + 1 and #F < i + d."""
    bound = n - d - l + 1
    return not any(i > bound and deg.bit_count() < i + d for i, deg in table.entry_masks)


def thm25_condition_iii(canonical_table: BettiTable, l: int) -> bool:
    """Vanishing pattern for the canonical module's table: no entry at (i, F)
    with i < l - 1 and #F > i."""
    return not any(i < l - 1 and deg.bit_count() > i for i, deg in canonical_table.entry_masks)


def canonical_betti(table: BettiTable, n: int, d: int) -> BettiTable:
    """Betti table of the canonical module of a CM module of dimension d:
    entry (i, F) equals the original entry at (n - d - i, complement of F)."""
    if table.projective_dimension() != n - d:
        raise RequiresCohenMacaulayError(
            "canonical Betti numbers require a Cohen-Macaulay module "
            f"(projective dimension {table.projective_dimension()}, expected {n - d})"
        )
    full = (1 << n) - 1
    return BettiTable(n, {(n - d - i, full ^ deg): b for (i, deg), b in table.entry_masks.items()})


def is_2cm_via_canonical(module: SquarefreeModule, fieldspec: FieldSpec) -> bool:
    """2-CM test through the canonical module: true iff the canonical module is
    generated in degree zero (no generator in a nonempty squarefree degree).
    ``canonical_betti`` refuses a module that is not Cohen-Macaulay."""
    if module.is_zero:
        raise ZeroModuleError("the 2-CM test is for nonzero modules")
    dual = canonical_betti(koszul_betti(module, fieldspec), module.n, module_dim(module))
    return all(not deg for (i, deg) in dual.entry_masks if i == 0)


# -- module file format ----------------------------------------------------------------
#
#   n <int>
#   comp <F> <dim>          nonzero components; F is `-` or comma-joined vertices
#   map <F> <j> <rows>      nonzero maps; rows `;`-separated, entries space-separated


def _parse_degree(text: str, lineno: int) -> frozenset[int]:
    if text == "-":
        return frozenset()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError(f"line {lineno}: bad degree {text!r}") from None
    if any(p < 1 for p in parts) or len(set(parts)) != len(parts):
        raise ParseError(f"line {lineno}: bad degree {text!r}")
    return frozenset(parts)


def format_module_file(module: SquarefreeModule) -> str:
    lines = [f"n {module.n}"]
    for f in sorted(module.comp_masks, key=_face_key):
        lines.append(f"comp {_face_text(f)} {module.comp_masks[f]}")
    for f, bit in sorted(module.mult_masks, key=lambda key: (_face_key(key[0]), key[1])):
        rows = " ; ".join(" ".join(str(v) for v in row) for row in module.mult_masks[(f, bit)])
        lines.append(f"map {_face_text(f)} {bit.bit_length()} {rows}")
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
                if n is not None:
                    raise ParseError(f"line {lineno}: a second n line")
                n = int(parts[1])
            elif parts[0] == "comp" and len(parts) == 3:
                deg = _parse_degree(parts[1], lineno)
                if deg in comp:
                    raise ParseError(f"line {lineno}: a second comp line for degree {parts[1]}")
                comp[deg] = int(parts[2])
            elif parts[0] == "map" and len(parts) >= 3:
                deg = _parse_degree(parts[1], lineno)
                j = int(parts[2])
                if (deg, j) in mult:
                    raise ParseError(f"line {lineno}: a second map line for degree {parts[1]}, variable {j}")
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
