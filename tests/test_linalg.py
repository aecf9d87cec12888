import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit import linalg
from lcmkit.complexes import (
    SimplicialComplex,
    _apex,
    _bits,
    _face_key,
    _support,
    _vertices,
    boundary_simplex,
    cycle,
    full_simplex,
    real_projective_plane,
)
from lcmkit.errors import VoidComplexError
from lcmkit.linalg import (
    FieldSpec,
    SparseMatrix,
    faces_by_card,
    homology_dims_of_facets,
    rank,
    reduced_homology,
)
from lcmkit.sweeps import enumerate_complexes, random_complex

from oracles import boundary_rows, gauss_rank_fractions, homology_via_snf, snf_diagonal
from record_verdicts import cross_polytope, join

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)


def test_fieldspec():
    assert QQ.kind == "rationals" and QQ.characteristic == 0
    assert GF2.kind == "prime-field" and GF2.label() == "GF(2)"
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("p:5") == FieldSpec.prime(5)
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31 + 11)
    with pytest.raises(ValueError):
        FieldSpec.parse("z")
    with pytest.raises(ValueError, match="^bad field flag 'p:x': "):
        FieldSpec.parse("p:x")
    for p in (1, -3, 9):  # below 2, and odd with an odd factor
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            FieldSpec(p)
    # a characteristic that is not exactly an int: 2.0 reached the exact
    # kernel (pow() refused its float modulus), and False read as Q and
    # shared Q's cache keys
    for p in (2.0, False, True, 0.0, Fraction(3)):
        with pytest.raises(ValueError, match="is not an integer$"):
            FieldSpec(p)


def test_rank_examples():
    ident = SparseMatrix.from_rows([[1, 0], [0, 1]])
    assert rank(ident, GF2) == 2
    ones = SparseMatrix.from_rows([[1, 1], [1, 1]])
    assert rank(ones, GF2) == 1
    two = SparseMatrix.from_rows([[2]])
    assert rank(two, GF2) == 0
    assert rank(two, QQ) == 1


def test_rank_against_fraction_gauss_oracle():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        mat = SparseMatrix.from_rows(rows)
        assert rank(mat, QQ) == gauss_rank_fractions(rows)


def test_rank_with_fraction_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    mat = SparseMatrix.from_rows(rows)
    assert rank(mat, QQ) == gauss_rank_fractions(rows)


def test_fraction_entries_over_prime_fields():
    gf3 = FieldSpec.prime(3)
    assert rank(SparseMatrix.from_rows([[Fraction(1, 2)]]), gf3) == 1
    assert rank(SparseMatrix.from_rows([[Fraction(2, 3)]]), GF2) == 0
    assert gf3.normalize(Fraction(1, 2)) == 2  # inverse of 2 mod 3
    with pytest.raises(ZeroDivisionError):
        rank(SparseMatrix.from_rows([[Fraction(1, 2)]]), GF2)


def torsion_rows(rng: random.Random, t: int) -> list[list[int]]:
    """Random integer rows; about half are t times an earlier row plus a
    little noise, so that the rank mod t drops below the rank over Q."""
    n = rng.randint(1, 6)
    rows: list[list[int]] = []
    for _ in range(rng.randint(1, 6)):
        if rows and rng.random() < 0.5:
            rows.append([t * v + rng.choice((0, 0, 0, 1, -1)) for v in rng.choice(rows)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(n)])
    return rows


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), p=st.sampled_from([0, 2, 3]), mixed=st.booleans())
def test_rank_against_oracles_on_torsion_matrices(seed, p, mixed):
    rng = random.Random(seed)
    rows = torsion_rows(rng, p or rng.choice((2, 3)))
    if p:
        want = sum(1 for d in snf_diagonal(rows) if d % p)
    else:
        want = gauss_rank_fractions(rows)
    entries = rows
    if mixed:
        # The first row gets Fractions with denominator 1 for its 0/1
        # entries, every other row is divided by a unit of Q, GF(2) and
        # GF(3): the rank is unchanged, but the entries are no longer all
        # ints.
        entries = [[Fraction(v) if v in (0, 1) else v for v in rows[0]]]
        for row in rows[1:]:
            unit = rng.choice((1, 5, 7))
            entries.append([Fraction(v, unit) for v in row])
    assert rank(SparseMatrix.from_rows(entries), FieldSpec(p)) == want


LARGE_PRIME = 2**31 - 1


def sparse_rows(rng: random.Random, unitless: float) -> list[list[int]]:
    """Random sparse rows up to 30x40, mostly 0/+-1 with some +-2/+-3.  A
    ``unitless`` share of the rows has no +-1 entry, and some rows are
    2a + 3b for earlier rows a, b, so unit pivots run out over Q and the
    leftover core holds dependent rows too.  Matrices with no unit row at
    all stay within 12x16, where the Smith form oracle is still fast."""
    if unitless < 1:
        m, n = rng.randint(1, 30), rng.randint(1, 40)
    else:
        m, n = rng.randint(1, 12), rng.randint(1, 16)
    rows: list[list[int]] = []
    for _ in range(m):
        if len(rows) >= 2 and rng.random() < 0.2:
            a, b = rng.sample(rows, 2)
            rows.append([2 * x + 3 * y for x, y in zip(a, b)])
            continue
        pool = (2, -2, 3, -3) if rng.random() < unitless else (1, -1, 1, -1, 1, -1, 2, -2, 3, -3)
        density = rng.uniform(0.05, 0.3)
        rows.append([rng.choice(pool) if rng.random() < density else 0 for _ in range(n)])
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), unitless=st.sampled_from([0.0, 0.3, 1.0]))
def test_rank_against_oracles_on_sparse_matrices(seed, unitless):
    rows = sparse_rows(random.Random(seed), unitless)
    mat = SparseMatrix.from_rows(rows)
    assert rank(mat, QQ) == gauss_rank_fractions(rows)
    diagonal = snf_diagonal(rows)
    for p in (2, 3, LARGE_PRIME):
        assert rank(mat, FieldSpec(p)) == sum(1 for d in diagonal if d % p)


def test_rank_without_unit_entries(monkeypatch):
    # no +-1 anywhere: over Q every row goes to the Bareiss core
    rows = [[2, 0, 3, 0], [0, 2, 0, 3], [4, 6, 6, 9], [3, 3, 0, 2]]
    cores = []
    real = linalg._rank_bareiss
    monkeypatch.setattr(linalg, "_rank_bareiss", lambda dense: cores.append(len(dense)) or real(dense))
    mat = SparseMatrix.from_rows(rows)
    assert rank(mat, QQ) == gauss_rank_fractions(rows) == 3
    assert cores == [4]
    diagonal = snf_diagonal(rows)
    for p in (2, 3, LARGE_PRIME):
        assert rank(mat, FieldSpec(p)) == sum(1 for d in diagonal if d % p)
    assert cores == [4]  # prime fields never reach the core


def boundary(delta: SimplicialComplex, i: int, fieldspec: FieldSpec = QQ) -> SparseMatrix:
    """The i-th boundary map of ``delta`` from the one row assembly,
    ``linalg._boundary_rows``, over full ``faces_by_card`` levels in
    ``_face_key`` order: rows by (i-1)-faces, columns by i-faces, entries
    normalized in the field; i = 0 is the augmentation onto the empty face."""
    below, cells = (sorted(level, key=_face_key) for level in faces_by_card(delta.facet_masks)[i : i + 2])
    entries = {
        (r, c): fieldspec.normalize(v)
        for c, row in enumerate(linalg._boundary_rows(cells, below))
        for r, v in row.items()
    }
    return SparseMatrix(len(below), len(cells), entries)


def oracle_boundary(delta: SimplicialComplex, i: int, p: int = 0) -> list[list[int]]:
    """The same map from ``oracles.boundary_rows``, reduced mod p when p > 0."""
    rows = boundary_rows([tuple(sorted(f)) for f in delta.facets], i + 1)
    return [[v % p for v in row] for row in rows] if p else rows


def certified_rank(matrix):
    """Rank over Q and whether the kernel certified it for every field."""
    return linalg._certified(rank, matrix, QQ)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), torsion=st.booleans())
def test_certified_ranks_hold_over_every_field(seed, torsion):
    # a certified Q rank comes from an elimination with +-1 pivots only, so
    # every Smith invariant is 1 and the rank is the same mod every prime
    rng = random.Random(seed)
    rows = torsion_rows(rng, rng.choice((2, 3))) if torsion else sparse_rows(rng, 0.0)
    mat = SparseMatrix.from_rows(rows)
    r, certified = certified_rank(mat)
    if certified:
        assert all(abs(d) == 1 for d in snf_diagonal(rows))
        for p in (2, 3, LARGE_PRIME):
            assert rank(mat, FieldSpec(p)) == r


def test_torsion_and_converted_entries_are_not_certified():
    assert certified_rank(SparseMatrix.from_rows([[2]])) == (1, False)
    # H_1(RP²; Z) = Z/2: the rank of the second boundary map drops mod 2
    d2 = boundary(real_projective_plane(), 2)
    assert certified_rank(d2) == (10, False)
    assert rank(d2, GF2) == 9
    assert certified_rank(SparseMatrix.from_rows([[1, 0], [0, -1]])) == (2, True)
    assert certified_rank(boundary(boundary_simplex(3), 2)) == (3, True)
    # Fractions are converted first, so nothing is certified
    assert certified_rank(SparseMatrix.from_rows([[Fraction(1, 2)]])) == (1, False)
    assert certified_rank(SparseMatrix.from_rows([[Fraction(1), 0], [0, 1]])) == (2, False)


@pytest.mark.parametrize("entry", [0.5, 1.0, True, "1"], ids=repr)
@pytest.mark.parametrize("p", [0, 3])
def test_rank_refuses_entries_that_are_not_ints_or_fractions(entry, p):
    # over GF(3) 0.5 was truncated to 0, so [[0.5, 1], [1, 2]] read rank 2
    # where Fraction(1, 2) gives 1; over Q a float raised AttributeError
    half = SparseMatrix.from_rows([[Fraction(1, 2), 1], [1, 2]])
    assert rank(half, FieldSpec(p)) == 1
    with pytest.raises(ValueError, match=rf"^matrix entry {re.escape(repr(entry))} is not an int or a Fraction$"):
        rank(SparseMatrix.from_rows([[entry, 1], [1, 2]]), FieldSpec(p))


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(2, 0): 1})
    with pytest.raises(ValueError, match="^matrix dimensions must be >= 0$"):
        SparseMatrix(-1, 2)
    with pytest.raises(ValueError, match="^ragged rows$"):
        SparseMatrix.from_rows([[1, 0], [1]])
    m = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 0})
    assert (1, 1) not in m.entries  # zeros are not stored


def test_boundary_matrix_single_edge():
    edge = SimplicialComplex.from_facets([(1, 2)])
    d1 = boundary(edge, 1)
    assert d1.to_rows() == [[-1], [1]] == oracle_boundary(edge, 1)
    d0 = boundary(edge, 0)
    assert d0.to_rows() == [[1, 1]] == oracle_boundary(edge, 0)


def test_boundary_matrix_point_augmentation():
    pt = full_simplex(1)
    assert boundary(pt, 0).to_rows() == [[1]] == oracle_boundary(pt, 0)


def test_boundary_matrix_c4_rank():
    c4 = cycle(4)
    assert boundary(c4, 1).to_rows() == oracle_boundary(c4, 1)
    assert rank(boundary(c4, 1), QQ) == 3


def test_boundary_matrix_lex_basis_order():
    # rows: vertices (1),(2),(3),(4); cols: edges (1,2),(1,4),(2,3),(3,4)
    m = boundary(cycle(4), 1)
    assert m.to_rows() == [
        [-1, -1, 0, 0],
        [1, 0, -1, 0],
        [0, 0, 1, -1],
        [0, 1, 0, 1],
    ] == oracle_boundary(cycle(4), 1)
    m2 = boundary(cycle(4), 1, GF2)
    assert all(v == 1 for v in m2.entries.values())  # signs normalized mod 2
    assert m2.to_rows() == oracle_boundary(cycle(4), 1, 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), p=st.sampled_from([0, 2, 3]))
def test_boundary_matrix_matches_oracle(seed, p):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    pool = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
    delta = SimplicialComplex.from_facets(pool, vertex_count=n)
    for i in range(delta.dimension() + 1):
        assert boundary(delta, i, FieldSpec(p)).to_rows() == oracle_boundary(delta, i, p)


def test_boundary_squares_to_zero(fieldspec):
    p = fieldspec.characteristic
    for delta in [boundary_simplex(3), real_projective_plane(), cycle(5)]:
        for i in range(1, delta.dimension() + 1):
            hi = boundary(delta, i, fieldspec).to_rows()
            lo = boundary(delta, i - 1, fieldspec).to_rows()
            assert (hi, lo) == (oracle_boundary(delta, i, p), oracle_boundary(delta, i - 1, p))
            prod = [
                [sum(lo[r][k] * hi[k][c] for k in range(len(hi))) for c in range(len(hi[0]))]
                for r in range(len(lo))
            ]
            assert all((v if p == 0 else v % p) == 0 for row in prod for v in row)


def test_homology_point_and_simplex(fieldspec):
    assert reduced_homology(full_simplex(1), fieldspec).is_zero()
    assert reduced_homology(full_simplex(4), fieldspec).is_zero()


def test_homology_c4():
    h = reduced_homology(cycle(4), QQ)
    assert h.as_dict() == {-1: 0, 0: 0, 1: 1}


def test_homology_two_points(fieldspec):
    h = reduced_homology(boundary_simplex(1), fieldspec)
    assert h.as_dict() == {-1: 0, 0: 1}


def test_homology_empty_complex(fieldspec):
    h = reduced_homology(SimplicialComplex.empty(2), fieldspec)
    assert h.degree(-1) == 1 and h.top_dim == -1


def test_faces_by_card_of_the_empty_family_is_the_empty_face():
    assert faces_by_card(frozenset()) == [[0]]
    assert faces_by_card(frozenset({0b11}))[0] == [0]


def test_homology_rp2_frozen_and_oracle():
    rp2 = real_projective_plane()
    facets = [tuple(sorted(f)) for f in rp2.facets]
    for p, want in [(0, {-1: 0, 0: 0, 1: 0, 2: 0}), (2, {-1: 0, 0: 0, 1: 1, 2: 1})]:
        got = reduced_homology(rp2, FieldSpec(p)).as_dict()
        assert got == want
        assert homology_via_snf(facets, p) == want


@pytest.mark.parametrize("p", [0, 2])
def test_homology_of_a_large_simplex_skeleton(p):
    # the 5-skeleton of the 11-simplex is a wedge of C(11, 6) 5-spheres; dense
    # elimination takes seconds here, the sparse kernel a few milliseconds
    got = reduced_homology(full_simplex(12).skeleton(5), FieldSpec(p))
    assert got.dims == (0,) * 6 + (462,)


def test_homology_matches_snf_oracle_on_random_complexes(fieldspec):
    rng = random.Random(3)
    p = fieldspec.characteristic
    for _ in range(20):
        n = rng.randint(2, 6)
        pool = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 6))
        ]
        delta = SimplicialComplex.from_facets(pool, vertex_count=n)
        got = reduced_homology(delta, fieldspec).as_dict()
        want = homology_via_snf([tuple(sorted(f)) for f in delta.facets], p)
        assert got == want


def test_euler_consistency(fieldspec):
    for delta in [cycle(6), boundary_simplex(3), real_projective_plane()]:
        h = reduced_homology(delta, fieldspec)
        alt = sum((-1) ** i * d for i, d in h.as_dict().items())
        assert alt == delta.reduced_euler_characteristic()


def test_universal_coefficients_inequality():
    for delta in [real_projective_plane(), cycle(4), boundary_simplex(2)]:
        hq = reduced_homology(delta, QQ)
        h2 = reduced_homology(delta, GF2)
        for i in range(-1, delta.dimension() + 1):
            assert h2.degree(i) >= hq.degree(i)


def test_cone_homology_vanishes(fieldspec):
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 5)
        pool = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 5))
        ]
        apex = n + 1
        cone = SimplicialComplex.from_facets(
            [f | {apex} for f in pool], vertex_count=apex
        )
        assert reduced_homology(cone, fieldspec).is_zero()


def test_cone_rule(monkeypatch):
    # a family whose facets share a vertex is answered zero with no rank, and
    # the answer is certified for every field, even over a 2-torsion base
    rp2 = real_projective_plane()
    rp2_cone = frozenset(m | 1 << 6 for m in rp2.facet_masks)
    linalg._CACHE.clear()
    assert homology_dims_of_facets(rp2.facet_masks, GF2) == (0, 0, 1, 1)
    monkeypatch.setattr(linalg, "_rank_rows", None)  # any rank would raise
    assert homology_dims_of_facets(rp2_cone, GF2) == (0,) * 5  # degrees -1..3
    assert linalg._certified(linalg._homology_dims, rp2_cone, QQ) == ((0,) * 5, True)
    assert homology_dims_of_facets(frozenset(), QQ) == (1,)
    assert homology_dims_of_facets(frozenset({0b1011}), QQ) == (0,) * 4
    monkeypatch.undo()
    # all facets but one through vertex 1: the triangle's boundary, a circle
    assert homology_dims_of_facets(frozenset({0b011, 0b101, 0b110}), QQ) == (0, 0, 1)


def _all_matrix_dims(facet_masks, fieldspec):
    """Homology by the rank of every boundary matrix in ``_rank_rows``, after
    the same cone rule: the route before the two lowest ranks were read off
    the vertex and component counts."""
    if not facet_masks:
        return (1,)
    by_card = faces_by_card(facet_masks)
    top = len(by_card) - 1
    if _apex(facet_masks):
        return (0,) * (top + 1)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        ranks[k] = linalg._rank_rows(linalg._boundary_rows(by_card[k], by_card[k - 1]), fieldspec)
    return tuple(len(by_card[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


def _low_rank_families():
    # {emptyset} as the empty family and as the family of the empty face,
    # single points, every complex on <= 5 vertices, random graphs with
    # isolated vertices and several components, and RP²
    out = [frozenset(), frozenset({0}), frozenset({1}), frozenset({1 << 6})]
    out += [delta.facet_masks for n in range(1, 6) for delta in enumerate_complexes(n)]
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(2, 14)
        density = rng.choice((0.1, 0.2, 0.4))
        edges = {1 << a | 1 << b for a, b in combinations(range(n), 2) if rng.random() < density}
        covered = _support(edges)
        out.append(frozenset(edges) | {1 << v for v in range(n) if not covered >> v & 1})
    out.append(real_projective_plane().facet_masks)
    return out


def test_low_ranks_match_the_all_matrix_route_and_snf():
    # the rank 1 onto the empty face and #vertices - #components from the
    # edges give the same dims as a rank of every boundary matrix, and the
    # same certification for every field, over Q, GF(2) and GF(3)
    families = _low_rank_families()
    for masks in families:
        facets = [tuple(_vertices(m)) for m in masks] or [()]
        for p in (0, 2, 3):
            got = linalg._certified(linalg._homology_dims, masks, FieldSpec(p))
            assert got == linalg._certified(_all_matrix_dims, masks, FieldSpec(p)), (masks, p)
            want = homology_via_snf(facets, p)
            assert got[0] == tuple(want[i] for i in range(-1, len(got[0]) - 1)), (masks, p)
    # the random graphs: most have isolated vertices, many 3 or more components
    graphs = families[-61:-1]
    assert sum(1 for masks in graphs if 1 in map(int.bit_count, masks)) > 30
    assert sum(1 for masks in graphs if linalg._homology_dims(masks, QQ)[1] >= 2) > 20
    assert linalg._homology_dims(frozenset({0}), QQ) == (1,)
    assert linalg._homology_dims(frozenset({0b1, 0b100}), QQ) == (0, 1)


def _relative_families():
    # every complex on <= 5 vertices; seeded random complexes on 6-11
    # vertices, from facets of mixed sizes (most not pure) and from
    # random_complex; a copy of each random one moved onto spread-out
    # vertices in shuffled order, so that its lowest vertex is another one;
    # cross-polytopes, RP² and the join of RP² with the octahedron
    rng = random.Random(24)
    out = [delta.facet_masks for n in range(1, 6) for delta in enumerate_complexes(n)]
    randoms = []
    for _ in range(240):
        n = rng.randint(6, 11)
        pool = [rng.sample(range(1, n + 1), rng.randint(1, min(n, 5))) for _ in range(rng.randint(2, 9))]
        randoms.append(SimplicialComplex.from_facets(pool, vertex_count=n).facet_masks)
    for _ in range(120):
        n = rng.randint(6, 9)
        randoms.append(random_complex(n, rng.choice((0.4, 0.6, 0.8)), rng.randrange(2**31)).facet_masks)
    for masks in randoms:
        bits = _bits(_support(masks))
        spots = rng.sample(range(1, len(bits) + 4), len(bits))
        out += [masks, _moved(masks, {b: 1 << s for b, s in zip(bits, spots)})]
    rp2 = real_projective_plane()
    out += [cross_polytope(d).facet_masks for d in range(2, 6)]
    out += [rp2.facet_masks, join(rp2, cross_polytope(3)).facet_masks]
    return out


def test_relative_homology_matches_the_all_matrix_route_and_snf():
    # homology relative to the star of the lowest vertex gives the reduced
    # homology of every boundary matrix, with the same certification for
    # every field, over Q, GF(2) and GF(3); the Smith form oracle checks the
    # families of at most 200 faces, and the Euler-Poincare identity all
    families = _relative_families()
    snf_checked = 0
    for masks in families:
        delta = SimplicialComplex._from_masks(_support(masks).bit_length(), masks)
        facets = [tuple(_vertices(m)) for m in masks]
        small = len(linalg._face_masks(masks)) <= 200
        snf_checked += small
        for p in (0, 2, 3):
            got = linalg._certified(linalg._homology_dims, masks, FieldSpec(p))
            assert got == linalg._certified(_all_matrix_dims, masks, FieldSpec(p)), (masks, p)
            if small:
                want = homology_via_snf(facets, p)
                assert got[0] == tuple(want[i] for i in range(-1, len(got[0]) - 1)), (masks, p)
            euler = sum((-1) ** i * d for i, d in enumerate(got[0], start=-1))
            assert euler == delta.reduced_euler_characteristic(), (masks, p)
    assert snf_checked > len(families) * 0.9
    # 2-torsion in H_1(RP²; Z): no Q value of RP² or its join is certified
    rp2 = real_projective_plane()
    for masks in (rp2.facet_masks, join(rp2, cross_polytope(3)).facet_masks):
        assert linalg._certified(linalg._homology_dims, masks, QQ)[1] is False
    assert linalg._homology_dims(rp2.facet_masks, GF2) == (0, 0, 1, 1)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (9, 4), (10, 2), (12, 3), (12, 5)])
def test_skeleton_homology_takes_no_rank(monkeypatch, n, k):
    # every face of skel(n, k) outside the star of vertex 1 is a top face, so
    # the wedge of C(n-1, k+1) k-spheres is read off the face counts
    def refuse(rows, fieldspec):
        raise AssertionError("a skeleton took a rank")

    monkeypatch.setattr(linalg, "_rank_rows", refuse)
    masks = full_simplex(n).skeleton(k).facet_masks
    want = (0,) * (k + 1) + (comb(n - 1, k + 1),)
    assert linalg._certified(linalg._homology_dims, masks, QQ) == (want, True)
    assert linalg._homology_dims(masks, GF2) == want


def _moved(masks, new):
    """The family with each bit b moved to new[b]."""
    return frozenset(sum(new[b] for b in _bits(m)) for m in masks)


def _key_families():
    # every complex on <= 4 vertices and seeded random ones on 5-7 vertices
    rng = random.Random(15)
    out = [delta.facet_masks for n in range(1, 5) for delta in enumerate_complexes(n)]
    for _ in range(24):
        n = rng.randint(5, 7)
        out.append(random_complex(n, rng.choice((0.3, 0.5, 0.7)), rng.randrange(2**31)).facet_masks)
    return out


def test_invariant_key_is_a_relabelling():
    # the key of a deletion threshold is the family's image under some
    # bijection of its support onto bits 0..k-1, found here by brute force
    for masks in _key_families():
        key = linalg._invariant_masks(masks)
        bits = _bits(_support(masks))
        images = (_moved(masks, dict(zip(bits, (1 << i for i in perm))))
                  for perm in permutations(range(len(bits))))
        assert any(image == key for image in images), masks


def test_invariant_key_ignores_order_preserving_relabellings():
    # ties keep vertex order, so a family moved onto any vertices in the same
    # order reads the same key
    rng = random.Random(16)
    for masks in _key_families():
        key = linalg._invariant_masks(masks)
        bits = _bits(_support(masks))
        for extra in (0, 1, 3):
            spots = sorted(rng.sample(range(len(bits) + extra), len(bits)))
            moved = _moved(masks, {b: 1 << s for b, s in zip(bits, spots)})
            assert linalg._invariant_masks(moved) == key, masks


def test_void_complex_errors(fieldspec):
    with pytest.raises(VoidComplexError):
        reduced_homology(SimplicialComplex.void(), fieldspec)
