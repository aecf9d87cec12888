"""Squarefree modules given by componentwise data, and their Betti numbers.

A squarefree module over a polynomial ring in n variables is stored by the
dimensions of its components at the 2^n squarefree degrees together with the
multiplication maps between adjacent components, every degree as a bitmask
(vertex v on bit v-1), as complexes store their facets.  The vertex-set
views ``comp`` and ``mult`` are derived from the masks.  The commutativity
of the maps is scanned once, where outside maps enter (the constructor):
the entries where the two paths around a square differ are kept, each
derived module carries the ones of its parent that it keeps, and each field
only tests whether one of them survives reduction.  The face ring of a
complex takes one walk of its faces: an identity map from G - {b} to G for
each face G and vertex b of G, the covers of its face poset.  Every map
entry is an int (the constructor refuses anything else), so Betti numbers
are computed degree by degree as homology of the Koszul complex on the
masks, whose rows go to the rank kernel as they are.  Each stored matrix is
walked once per table, and each row's nonzero entries, taken once, list
the images, decide whether the map is a unit (a signed permutation matrix)
and give its inverse.  A degree F with an apex, a variable j in F that
acts as a unit (or zero to zero) from every degree G inside F - {j}, is
skipped: its Koszul complex is the mapping cone of an isomorphism, acyclic
over every field.  On a face ring this is the cone rule of Hochster's
formula, read off the maps alone.  Every other degree is reduced along its lowest
variable j before any row is built (algebraic Morse theory): each block
pair joined by a unit x_j cancels, and only the remaining blocks are
assembled and ranked, with the one correction through a cancelled pair
that a path can pick up.
A table computed over Q whose every rank is certified by ``linalg`` holds
over every field; the module keeps it, and later fields copy it.  From the
tables we read off projective dimension, Cohen-Macaulayness, the l-CM
property under vertex deletions, and the Betti table of the canonical
module of a CM module.
"""

from __future__ import annotations

from itertools import chain, combinations

from .cm import BettiTable, _check_betti_size, _is_l_cm, _max_l, _smallest_failing_deletion
from .complexes import SimplicialComplex, _bits, _content_lines, _face_key, _face_masks, _face_text, _mask, _relabel_masks, _subset_mask, mask_to_face
from .errors import (
    InvalidModuleError,
    ParseError,
    RequiresCohenMacaulayError,
    VoidComplexError,
    ZeroModuleError,
)
from .linalg import FieldSpec, _certified, _rank_rows

# rows of int entries
Matrix = tuple[tuple, ...]


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
    variable numbers.  The constructor takes that vertex-set form, refuses
    a variable count, degree vertex, map variable, component dimension or
    map entry that is not exactly an ``int`` (as the module file format
    does), and scans the maps for commutativity defects; ``_from_masks``
    takes the stored form with defects the caller already knows.  Integer
    maps lose no module over Q: with D a common denominator, rescaling the
    basis at degree F by D^-|F| multiplies every map by D.
    """

    # Koszul entries computed over Q with every rank certified: they hold
    # over every field (see ``koszul_betti``)
    _free_betti: dict | None = None

    def __init__(self, n: int, comp: dict, mult: dict | None = None):
        if type(n) is not int:
            raise ValueError(f"ambient variable count {n!r} is not an integer")
        if n < 0:
            raise ValueError("ambient variable count must be >= 0")
        self.n = n
        self.comp_masks: dict[int, int] = {}
        seen: set[int] = set()
        for deg, d in comp.items():
            f = _door_degree(deg, n)
            if type(d) is not int:
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
        for key, mat in (mult or {}).items():
            try:
                (deg, j), m = key, tuple(tuple(r) for r in mat)
            except (TypeError, ValueError):
                raise ValueError(f"map {key!r} needs a (degree, variable) key and a list of rows") from None
            face = _door_degree(deg, n)
            if type(j) is not int or j in face or not 1 <= j <= n:
                raise ValueError(f"bad multiplication index {j} at degree {sorted(face)}")
            f, bit = _mask(face), 1 << (j - 1)
            if (f, bit) in seen_maps:
                raise ValueError(f"the map at degree {sorted(face)} for variable {j} is given twice")
            seen_maps.add((f, bit))
            src = self.comp_masks.get(f, 0)
            dst = self.comp_masks.get(f | bit, 0)
            if len(m) != dst or any(len(r) != src for r in m):
                raise ValueError(f"expected a {dst}x{src} matrix")
            for v in chain.from_iterable(m):
                if type(v) is not int:
                    raise ValueError(f"map entry {v!r} at degree {sorted(face)} for variable {j} is not an integer")
            # a map into or out of a zero component is a zero matrix
            if any(map(any, m)):
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


def _door_degree(deg, n: int) -> frozenset:
    """A degree given to the module door: a set of int vertices in 1..n.
    A refused degree shows its vertices sorted, by their repr when they do
    not compare (as a str and an int do not)."""
    try:
        face = frozenset(deg)
    except TypeError:
        raise ValueError(f"degree {deg!r} is not a set of vertices") from None
    if all(type(v) is int and 1 <= v <= n for v in face):
        return face
    try:
        text = sorted(face)
    except TypeError:
        text = sorted(face, key=repr)
    raise ValueError(f"degree {text} outside 1..{n}")


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
    components at the faces, and the identity map x_b from G - {b} to G for
    each face G and each vertex b of G, the covers of its face poset."""
    if delta.is_void:
        raise VoidComplexError("the void complex has the zero face ring")
    # faces in increasing order list the maps at each degree by variable
    faces = sorted(_face_masks(delta.facet_masks))
    mult = {(g ^ b, b): ((1,),) for g in faces for b in _bits(g)}
    # identity maps along the inclusions of a downward-closed family: both
    # paths around every square are the identity, so nothing to scan
    return SquarefreeModule._from_masks(delta.vertex_count, dict.fromkeys(faces, 1), mult, [])


def omega_module(n: int, deg) -> SquarefreeModule:
    """The module with a single one-dimensional component at the given degree."""
    return SquarefreeModule(n, {frozenset(deg): 1})


def restrict(module: SquarefreeModule, keep) -> SquarefreeModule:
    """Restriction to the variables in ``keep``, relabeled onto 1..#keep."""
    wmask = _subset_mask(keep, module.n, "variable")
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
    return SquarefreeModule._from_masks(wmask.bit_count(), comp, mult, defects)


def delete_variables(module: SquarefreeModule, drop) -> SquarefreeModule:
    return restrict(module, set(range(1, module.n + 1)).difference(drop))


def module_skeleton(module: SquarefreeModule, i: int) -> SquarefreeModule:
    """Quotient by all components in degrees of support size > i."""
    if type(i) is not int:
        raise ValueError(f"skeleton index {i!r} is not an integer")
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
    """The Betti entries keyed by (i, degree bitmask).

    A degree F is skipped, with no rank computed, when it has an apex: a
    variable j in F whose map x_j: M_G -> M_{G+j} is a unit for every G
    inside F - {j}, that is, both components are zero or the stored map is
    a signed permutation matrix.  The Koszul complex at F is the mapping
    cone of x_j between the Koszul complexes on the variables of F - {j}
    in degrees F - {j} and F.  That chain map is then an isomorphism over
    every field, so the cone is acyclic over every field and certification
    needs no rank of it.  j is an apex of F exactly when its map at
    F - {j} is a unit and j is an apex of every F - {b} that contains it,
    so one pass in increasing order finds them all; a degree with no
    component at or below it has every variable of F as an apex.  On a
    face ring the rule fires exactly when the subcomplex induced on F is a
    cone.  Every other degree is reduced along its lowest variable and
    assembled from the entries and inverses that ``_koszul_maps`` lists
    once per table (``_koszul_degree``).  A cone is the case where that
    reduction leaves no block, so the apex pass is the cheap filter in
    front of it."""
    comp = module.comp_masks
    images, inverse = _koszul_maps(comp, module.mult_masks)
    apex = [0] * (1 << module.n)  # apex[F]: the apex bits of F
    entries: dict[tuple[int, int], int] = {}
    for deg in range(1 << module.n):
        a = rem = deg
        here = deg in comp
        while rem and a:
            bit = rem & -rem
            rem ^= bit
            src = deg ^ bit
            a &= apex[src] | bit
            if (here or src in comp) and (src, bit) not in inverse:
                a &= ~bit
        apex[deg] = a
        if a:
            continue
        for i, b in enumerate(_koszul_degree(comp, images, inverse, deg, fieldspec)):
            if b:
                entries[(i, deg)] = b
    return entries


def _koszul_maps(comp: dict[int, int], mult: dict[tuple[int, int], Matrix]) -> tuple[dict, dict]:
    """The stored maps read once per table, each row's nonzero hits taken
    once: ``images[G][b]`` lists (bit of j, r, v) for each nonzero entry v in
    row r, column b of x_j at G, and ``inverse[(G, bit of j)][r]`` is (b, v)
    for each unit map x_j at G, whose only entry in row r is v = +-1 in
    column b, so x_j^-1 sends e_r to v e_b.  A unit map is square with one
    entry +-1 in each row and in each column, and zeros elsewhere: a signed
    permutation, invertible over every field."""
    images: dict[int, list[list[tuple[int, int, int]]]] = {g: [[] for _ in range(d)] for g, d in comp.items()}
    inverse: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (g, bit), mat in mult.items():
        cols = images[g]
        unit = len(mat) == len(cols)
        found: list[tuple[int, int]] = []  # (b, v) for every hit, row by row
        for r, row in enumerate(mat):
            hits = [(b, v) for b, v in enumerate(row) if v]
            for b, v in hits:
                cols[b].append((bit, r, v))
            unit = unit and len(hits) == 1 and hits[0][1] in (1, -1)
            found += hits
        # a unit has one hit in each row, so found lists one (b, v) per row
        if unit and len({b for b, _ in found}) == len(mat):
            inverse[(g, bit)] = found
    return images, inverse


def _koszul_degree(comp: dict[int, int], images: dict, inverse: dict, deg: int,
                   fieldspec: FieldSpec) -> list[int]:
    """Homology dimensions of the Koszul complex of one squarefree degree,
    by homological index.

    Term i has one block comp[deg - G] for each G inside deg with #G = i.
    The differential sends basis vector b of block G to the sum over k in G
    of sign(k, G) * x_k(e_b) in block G - {k}, sign(k, G) = (-1)^(number of
    elements of G below k).  Before any row is built the complex is reduced
    along j, the lowest variable of deg (algebraic Morse theory: Skoldberg,
    Trans. AMS 2006; Joellenbeck and Welker, Mem. AMS 2009).  For each G
    without j the block pair (G + j, G) is joined by x_j: M_{deg-G-j} ->
    M_{deg-G}, with sign +1 as j is lowest; when that map is a unit the
    pair cancels, and only the other (critical) blocks get columns.  Each
    step that a unit's inverse takes back goes up, adding j, so a path
    zigzags at most once: a critical block G without j that steps into a
    cancelled G - {k} with entry a continues through the partner
    G - {k} + j, whose unit carries w = +-1 back, and adds -a * w times that
    block's entries into the critical blocks G - {k, k'} + j.  Every other
    path ends on a cancelled block with j and adds nothing.  The reduced
    complex is homotopy equivalent to the whole one over the integers, so
    its ranks give the homology over every field, and a rank certified
    over Q holds over every field as before."""
    if not deg:
        return [comp.get(0, 0)]
    j = deg & -deg
    size = deg.bit_count()
    dims = [0] * (size + 1)
    offset: dict[int, int] = {}  # critical G -> first column of its block in term #G
    rest = deg ^ j
    g = rest
    while True:
        upper = deg ^ g ^ j
        if (upper, j) not in inverse:
            i = g.bit_count()
            d = comp.get(upper | j)
            if d:
                offset[g] = dims[i]
                dims[i] += d
            d = comp.get(upper)
            if d:
                offset[g | j] = dims[i + 1]
                dims[i + 1] += d
        if not g:
            break
        g = (g - 1) & rest
    rows: list[list[dict[int, int]]] = [[] for _ in range(size + 1)]  # rows[i]: d_i
    for g in offset:
        if not g:
            continue
        out = rows[g.bit_count()]
        for image in images[deg ^ g]:
            row: dict[int, int] = {}
            zigzag = False
            for bit, r, v in image:
                if not bit & g:
                    continue
                h = g ^ bit
                a = -v if (g & (bit - 1)).bit_count() & 1 else v
                start = offset.get(h)
                if start is not None:
                    row[start + r] = a
                elif not h & j:
                    # an entry lands in h, so its block is nonzero and cancels
                    # with h + j: up by the inverse of that unit, then down
                    # by every other variable of h + j
                    zigzag = True
                    up = h | j
                    b, w = inverse[(deg ^ up, j)][r]
                    a *= -w
                    for bit2, r2, v2 in images[deg ^ up][b]:
                        start = offset.get(up ^ bit2) if bit2 & h else None
                        if start is not None:
                            c = start + r2
                            row[c] = row.get(c, 0) + (-a * v2 if (up & (bit2 - 1)).bit_count() & 1 else a * v2)
            if zigzag:
                row = {c: v for c, v in row.items() if v}
            out.append(row)
    ranks = [0, *(_rank_rows(r, fieldspec) if any(r) else 0 for r in rows[1:]), 0]  # ranks[i]: rank of d_i
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(size + 1)]


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
    return _is_l_cm(l, module.n, _module_deletion_threshold, module, fieldspec)


def max_module_l(module: SquarefreeModule, fieldspec: FieldSpec) -> int:
    """Largest l in [1, n] such that the module is l-CM; 0 when not CM."""
    return _max_l(module_l_cm_threshold(module, fieldspec), module.n)


def module_l_cm_threshold(module: SquarefreeModule, fieldspec: FieldSpec) -> int:
    """Smallest number of deleted variables leaving a nonzero module that is
    not Cohen-Macaulay or has smaller dimension; n+1 when every deletion
    passes.  The module is l-CM exactly when this threshold is >= l."""
    return _module_deletion_threshold(module, fieldspec, module.n)


def _module_deletion_threshold(module: SquarefreeModule, fieldspec: FieldSpec, cap: int) -> int:
    """The deletion search with the given cap: the smallest failing deletion
    of at most cap variables, cap+1 when none fails.

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

    return _smallest_failing_deletion(0, [1 << b for b in range(n)], cap, int.__or__, fails)


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
    for lineno, line in _content_lines(text):
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
