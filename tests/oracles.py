"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the definitions,
without touching lcmkit internals: Smith normal form over the integers for
homology ranks, plain Gaussian elimination over Fractions for matrix ranks,
a combinations-based face/boundary enumeration, the whole-family filter
for facet deletions, Koszul Betti tables of squarefree modules from dense
differentials, and l-CM thresholds and Betti tables that rebuild every
deletion or induced subcomplex through lcmkit's public constructions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from lcmkit.cm import BettiTable, is_cohen_macaulay
from lcmkit.linalg import reduced_homology
from lcmkit.posets import delete_atoms, order_complex
from lcmkit.squarefree import delete_variables, is_module_cm, module_dim


def gauss_rank_fractions(rows) -> int:
    """Rank by textbook Gaussian elimination over the rationals."""
    mat = [[Fraction(v) for v in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r


def snf_diagonal(rows) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix."""
    mat = [[int(v) for v in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag = []
    r = c = 0
    while r < m and c < n:
        best = None
        for i in range(r, m):
            for j in range(c, n):
                if mat[i][j] != 0 and (best is None or abs(mat[i][j]) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[r], mat[bi] = mat[bi], mat[r]
        for row in mat:
            row[c], row[bj] = row[bj], row[c]
        while True:
            moved = False
            for i in range(r + 1, m):
                if mat[i][c] % mat[r][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    for j in range(n):
                        mat[i][j] -= q * mat[r][j]
                    mat[r], mat[i] = mat[i], mat[r]
                    moved = True
                    break
            if moved:
                continue
            for i in range(r + 1, m):
                q = mat[i][c] // mat[r][c]
                for j in range(n):
                    mat[i][j] -= q * mat[r][j]
            for j in range(c + 1, n):
                if mat[r][j] % mat[r][c] != 0:
                    q = mat[r][j] // mat[r][c]
                    for i in range(m):
                        mat[i][j] -= q * mat[i][c]
                    for i in range(m):
                        mat[i][c], mat[i][j] = mat[i][j], mat[i][c]
                    moved = True
                    break
            if moved:
                continue
            for j in range(c + 1, n):
                q = mat[r][j] // mat[r][c]
                for i in range(m):
                    mat[i][j] -= q * mat[i][c]
            break
        diag.append(abs(mat[r][c]))
        r += 1
        c += 1
    return diag


def all_faces(facets):
    out = set()
    for f in facets:
        fs = sorted(f)
        for k in range(len(fs) + 1):
            out.update(combinations(fs, k))
    return out


def boundary_rows(facets, k):
    """Integer boundary matrix from k-cardinality faces to (k-1)-cardinality
    faces, rows indexed by the smaller faces."""
    faces = all_faces(facets)
    small = sorted(f for f in faces if len(f) == k - 1)
    big = sorted(f for f in faces if len(f) == k)
    idx = {f: i for i, f in enumerate(small)}
    rows = [[0] * len(big) for _ in small]
    for j, cell in enumerate(big):
        for t, v in enumerate(cell):
            rows[idx[tuple(x for x in cell if x != v)]][j] = (-1) ** t
    return rows


@lru_cache(maxsize=1024)
def _boundary_diagonals(facets: tuple) -> tuple:
    """The Smith diagonal of every boundary map of the complex, lowest first;
    kept for the last few complexes, so asking the same complex over several
    fields runs one integer elimination."""
    top = max(map(len, facets))
    return tuple(snf_diagonal(boundary_rows(facets, k + 1)) for k in range(top))


def homology_via_snf(facets, p: int) -> dict[int, int]:
    """Reduced homology dims over GF(p) (p = 0 for Q) from integer SNF ranks."""
    faces = all_faces(facets)
    if not faces:
        return {}
    top = max(len(f) for f in faces) - 1
    ranks = {}
    diagonals = _boundary_diagonals(tuple(sorted(tuple(sorted(f)) for f in facets)))
    for k, diag in enumerate(diagonals):
        ranks[k + 1] = len(diag) if p == 0 else sum(1 for x in diag if x % p)
    ranks[top + 2] = 0
    out = {}
    for i in range(-1, top + 1):
        ci = sum(1 for f in faces if len(f) == i + 1)
        out[i] = ci - ranks.get(i + 1, 0) - ranks.get(i + 2, 0)
    return out


def is_cm_by_definition(delta, p: int) -> bool:
    """Reisner's criterion face by face: every link, the complex itself
    included, has zero reduced homology (SNF oracle, GF(p) or Q for p = 0)
    below its dimension."""
    for face in delta.all_faces():
        link_facets = [tuple(sorted(f - face)) for f in delta.facets if face <= f]
        link_facets = [
            f for f in link_facets
            if not any(f != g and set(f) <= set(g) for g in link_facets)
        ]
        if not any(link_facets):
            continue  # link is the empty complex: nothing below its dimension
        hom = homology_via_snf(link_facets, p)
        top = max(len(f) for f in link_facets) - 1
        if any(h for i, h in hom.items() if i < top):
            return False
    return True


def hochster_betti_by_degree(delta, fieldspec) -> BettiTable:
    """Hochster's formula one degree at a time, nothing pruned: every
    induced subcomplex is rebuilt from the whole complex and its homology
    read, cones included."""
    n = delta.vertex_count
    entries = {}
    for size in range(n + 1):
        for keep in combinations(range(1, n + 1), size):
            dims = reduced_homology(delta.induced_subcomplex(keep), fieldspec).dims
            for j, h in enumerate(dims):
                if h:  # homology degree j-1 contributes at index #F - (j-1) - 1
                    entries[(size - j, sum(1 << (v - 1) for v in keep))] = h
    return BettiTable(n, entries)


def koszul_betti_by_definition(module, fieldspec) -> BettiTable:
    """Betti table of a squarefree module from the dense Koszul complex of
    every degree F: term i has a basis vector (G, b) for each G inside F
    with #G = i and b < dim M_{F-G}, and (G, b) goes to the sum over the
    t-th smallest j of G of (-1)^t * x_j e_b at (G - {j}, .).  Ranks come
    from the Smith normal form: over Q its nonzero diagonal entries, over
    GF(p) the ones p does not divide."""
    n = module.n
    p = fieldspec.characteristic
    entries = {}
    for size in range(n + 1):
        for deg in combinations(range(1, n + 1), size):
            basis = [[(g, b) for g in combinations(deg, i)
                      for b in range(module.component(set(deg) - set(g)))] for i in range(size + 1)]
            ranks = [0] * (size + 2)
            for i in range(1, size + 1):
                index = {key: r for r, key in enumerate(basis[i - 1])}
                rows = [[0] * len(basis[i]) for _ in basis[i - 1]]
                for c, (g, b) in enumerate(basis[i]):
                    for t, j in enumerate(g):
                        mat = module.map_matrix(set(deg) - set(g), j)
                        for r, mrow in enumerate(mat):
                            rows[index[(tuple(v for v in g if v != j), r)]][c] += (-1) ** t * mrow[b]
                diag = snf_diagonal(rows)
                ranks[i] = len(diag) if p == 0 else sum(1 for x in diag if x % p)
            for i in range(size + 1):
                h = len(basis[i]) - ranks[i] - ranks[i + 1]
                if h:
                    entries[(i, sum(1 << (v - 1) for v in deg))] = h
    return BettiTable(n, entries)


def deletion_by_whole_family(facet_masks, drop):
    """The maximal faces of a facet bitmask family with the bits of ``drop``
    removed, by cutting every facet and filtering the whole cut family; the
    family itself when nothing is dropped."""
    if not drop:
        return facet_masks
    cut = {m & ~drop for m in facet_masks}
    return frozenset(m for m in cut if not any(m != o and m & o == m for o in cut))


def poset_threshold_by_definition(poset, fieldspec) -> int:
    """Smallest #W such that deleting the atoms W gives a poset of smaller
    rank or with a non-CM order complex; #atoms + 1 if there is none."""
    n = poset.vertex_count
    for size in range(n + 1):
        for drop in combinations(range(1, n + 1), size):
            cut = delete_atoms(poset, drop)
            if cut.max_rank() != poset.max_rank() or not is_cohen_macaulay(
                order_complex(cut), fieldspec
            ):
                return size
    return n + 1


def module_threshold_by_definition(module, fieldspec) -> int:
    """Smallest #W such that deleting the variables W gives a nonzero module
    of smaller dimension or one that is not CM by its own Koszul table;
    n + 1 if there is none."""
    n = module.n
    d = module_dim(module)
    for size in range(n + 1):
        for drop in combinations(range(1, n + 1), size):
            cut = delete_variables(module, drop)
            if not cut.is_zero and (module_dim(cut) != d or not is_module_cm(cut, fieldspec)):
                return size
    return n + 1


def simplicial_poset_defects(size: int, bottom: int, covers) -> set[str]:
    """The parts of the definition of a simplicial poset that a cover set on
    elements 0..size-1 breaks: the pairs generate a partial order, they are
    exactly its covering pairs, ``bottom`` lies below everything, and each
    interval [bottom, x] is a boolean lattice, that is y -> (atoms <= y) is
    a bijection onto the subsets of the atoms <= x ("interval size",
    "shared support") that preserves and reflects the order ("order")."""
    above = {x: {x} for x in range(size)}  # above[x]: every y with x <= y
    for x in range(size):
        frontier = [x]
        while frontier:
            a = frontier.pop()
            for lo, hi in covers:
                if lo == a and hi not in above[x]:
                    above[x].add(hi)
                    frontier.append(hi)

    def leq(x, y):
        return y in above[x]

    if any(leq(y, x) for x in range(size) for y in above[x] if y != x):
        return {"not a partial order"}
    defects = set()
    if any(not leq(bottom, x) for x in range(size)):
        defects.add("no least element")
    if any(leq(lo, c) and leq(c, hi) for lo, hi in covers for c in range(size) if c not in (lo, hi)):
        defects.add("a pair is not a cover")
    if defects:
        return defects
    atoms = [a for a in range(size) if a != bottom
             and not any(c not in (a, bottom) and leq(c, a) for c in range(size))]
    for x in range(size):
        interval = [y for y in range(size) if leq(y, x)]
        atoms_below = {y: frozenset(a for a in atoms if leq(a, y)) for y in interval}
        if len(interval) != 2 ** len(atoms_below[x]):
            defects.add("interval size")
        if len(set(atoms_below.values())) != len(interval):
            defects.add("shared support")
        if any(leq(y, z) != (atoms_below[y] <= atoms_below[z]) for y in interval for z in interval):
            defects.add("order")
    return defects


def is_simplicial_poset_by_definition(size: int, bottom: int, covers) -> bool:
    """A finite poset with a least element whose lower intervals are boolean
    lattices, given by its covering pairs."""
    return not simplicial_poset_defects(size, bottom, covers)
