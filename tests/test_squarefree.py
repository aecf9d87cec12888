import random
import re
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit import squarefree
from lcmkit.cm import BETTI_CAP, BettiTable, hochster_betti, is_cohen_macaulay, is_l_cm, l_cm_threshold
from lcmkit.complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle,
    full_simplex,
    mask_to_face,
    path,
)
from lcmkit.errors import (
    InvalidModuleError,
    ParseError,
    RequiresCohenMacaulayError,
    TooLargeError,
    ZeroModuleError,
)
from lcmkit.linalg import FieldSpec, _certified, _rank_rows, faces_by_card
from lcmkit.posets import face_ring_module
from lcmkit.squarefree import (
    SquarefreeModule,
    _koszul_degree,
    _koszul_entries,
    _koszul_maps,
    _scan_defects,
    canonical_betti,
    delete_variables,
    format_module_file,
    from_complex,
    is_2cm_via_canonical,
    is_module_cm,
    is_module_l_cm,
    koszul_betti,
    max_module_l,
    module_dim,
    module_l_cm_threshold,
    module_skeleton,
    omega_module,
    parse_module_file,
    restrict,
    thm25_condition_ii,
    thm25_condition_iii,
)
from lcmkit.sweeps import complex_scope, enumerate_complexes, poset_instances, random_complex
from oracles import koszul_betti_by_definition, module_threshold_by_definition
from record_verdicts import MODULE_SNAPSHOT, render_modules

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)

E = frozenset()


def glued_edges_module():
    # two edges glued along both endpoints: components 1,1,1,2
    return SquarefreeModule(
        2,
        {E: 1, frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 2},
        {
            (E, 1): ((1,),),
            (E, 2): ((1,),),
            (frozenset({1}), 2): ((1,), (1,)),
            (frozenset({2}), 1): ((1,), (1,)),
        },
    )


def test_from_complex_components():
    m = from_complex(cycle(4))
    assert sum(m.comp.values()) == 9  # 1 + 4 vertices + 4 edges
    assert m.component(()) == 1
    assert m.component((1, 2)) == 1
    assert m.component((1, 3)) == 0
    empty = from_complex(SimplicialComplex.empty(0))
    assert empty.comp == {E: 1}
    two_pts = from_complex(boundary_simplex(1))
    assert two_pts.map_matrix((), 1) == ((1,),)
    assert two_pts.map_matrix((1,), 2) == ()  # target component is zero


def test_omega_module():
    om = omega_module(3, ())
    assert om.comp == {E: 1}
    om2 = omega_module(2, {1})
    assert om2.comp == {frozenset({1}): 1}
    with pytest.raises(ValueError):
        omega_module(2, {5})


def test_restrict():
    c4 = cycle(4)
    m = from_complex(c4)
    for keep in [(1, 2, 3), (2, 4), ()]:
        assert restrict(m, keep) == from_complex(c4.induced_subcomplex(keep))
    assert restrict(m, range(1, 5)) == m
    # one-component module vanishes whenever its degree is cut
    om = omega_module(3, {1, 2})
    assert restrict(om, {2, 3}).is_zero
    assert delete_variables(om, {1}).is_zero
    assert not delete_variables(om, {3}).is_zero
    for keep in [(0, 1), (5,)]:
        with pytest.raises(ValueError, match="^variable subset out of range$"):
            restrict(m, keep)


def test_module_skeleton():
    bd3 = boundary_simplex(3)
    m = from_complex(bd3)
    for i in range(0, 4):
        assert module_skeleton(m, i) == from_complex(bd3.skeleton(i - 1))
    assert module_skeleton(m, 5) == m
    assert module_skeleton(omega_module(3, {1, 2}), 1).is_zero
    with pytest.raises(ValueError, match="^skeleton index must be >= 0$"):
        module_skeleton(m, -1)


def test_koszul_omega_by_hand():
    t = koszul_betti(omega_module(2, {1}), QQ)
    assert t.entries == {(0, frozenset({1})): 1, (1, frozenset({1, 2})): 1}


def test_koszul_zero_module(fieldspec):
    assert koszul_betti(SquarefreeModule(3, {}), fieldspec).entries == {}


def test_koszul_matches_hochster(fieldspec):
    instances = [cycle(4), path(3), boundary_simplex(2), full_simplex(3),
                 SimplicialComplex.from_facets([(1, 2), (3, 4)])]
    for delta in instances:
        assert koszul_betti(from_complex(delta), fieldspec) == hochster_betti(delta, fieldspec)


def test_koszul_matches_hochster_exhaustive_n3(fieldspec):
    for delta in enumerate_complexes(3):
        assert koszul_betti(from_complex(delta), fieldspec) == hochster_betti(delta, fieldspec)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.integers(6, 8), density=st.floats(0.3, 0.9), seed=st.integers(0, 10**6))
def test_koszul_matches_hochster_on_random_complexes(n, density, seed):
    # Q first, so the GF(2) and GF(3) tables may be copies of the Q table
    delta = random_complex(n, density, seed)
    module = from_complex(delta)
    for fieldspec in (QQ, GF2, GF3):
        assert koszul_betti(module, fieldspec) == hochster_betti(delta, fieldspec)


def torsion_module():
    # multiplication by x_1 is 2
    return SquarefreeModule(1, {(): 1, (1,): 1}, {((), 1): ((2,),)})


def koszul_oracle_modules():
    # poset face rings (components of any dimension), their skeletons and
    # one-variable deletions, torsion, a free module not generated in degree
    # zero, and every one-component module on up to 3 variables
    rings = [face_ring_module(poset) for _, poset in poset_instances(random_count=20)]
    out = [torsion_module(), glued_edges_module()]
    out += [omega_module(n, deg) for n in range(4) for k in range(n + 1)
            for deg in combinations(range(1, n + 1), k)]
    for ring in rings:
        out.append(ring)
        out += [module_skeleton(ring, i) for i in range(module_dim(ring))]
        out += [delete_variables(ring, {v}) for v in range(1, ring.n + 1)]
    return out


@pytest.mark.parametrize("fieldspec", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_koszul_matches_definition_oracle(fieldspec):
    # fresh modules per field, so no table is copied from another field
    for module in koszul_oracle_modules():
        assert koszul_betti(module, fieldspec) == koszul_betti_by_definition(module, fieldspec), module


def unreduced_koszul_degree(comp, mult, deg, fieldspec):
    # the Koszul complex of one degree with every block: term i has one block
    # comp[deg - G] for each G inside deg with #G = i, and basis vector b of
    # block G goes to sign(j, G) * x_j(e_b) in block G - {j} for each j in G,
    # the sign alternating along the bits of G from +1
    size = deg.bit_count()
    dims = [0] * (size + 1)
    offset = {}  # G -> first column of its block in term #G
    for g in range(deg + 1):
        if g & deg == g and comp.get(deg ^ g, 0):
            offset[g] = dims[g.bit_count()]
            dims[g.bit_count()] += comp[deg ^ g]
    rows = [[] for _ in range(size + 1)]  # rows[i]: d_i
    for g in offset:
        src = deg ^ g
        for b in range(comp[src] if g else 0):
            row = {}
            sign = 1
            for j in range(deg.bit_length()):
                bit = 1 << j
                if not bit & g:
                    continue
                mat = mult.get((src, bit))
                if mat is not None:
                    for r, mrow in enumerate(mat):
                        if mrow[b]:
                            row[offset[g ^ bit] + r] = sign * mrow[b]
                sign = -sign
            rows[g.bit_count()].append(row)
    ranks = [0, *(_rank_rows(r, fieldspec) for r in rows[1:]), 0]  # ranks[i]: rank of d_i
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(size + 1)]


def unskipped_koszul_entries(module, fieldspec):
    # every degree through the unreduced assembly: no cone skipped, no pair
    # cancelled
    return {(i, deg): b for deg in range(1 << module.n)
            for i, b in enumerate(unreduced_koszul_degree(module.comp_masks, module.mult_masks, deg, fieldspec)) if b}


def signed_unit_modules():
    # maps that are units with a -1 entry: a rotation, and the face ring of
    # an edge with x_1 acting as -1 (both paths around the square are -1)
    rotation = SquarefreeModule(1, {(): 2, (1,): 2}, {((), 1): ((0, -1), (1, 0))})
    edge = SquarefreeModule(2, {(): 1, (1,): 1, (2,): 1, (1, 2): 1},
                            {((), 1): ((-1,),), ((), 2): ((1,),), ((1,), 2): ((1,),), ((2,), 1): ((-1,),)})
    return [rotation, edge]


def repeated_column_module():
    # square, one 1 in each row, but both in one column: rank 1, not a unit
    return SquarefreeModule(1, {(): 2, (1,): 2}, {((), 1): ((1, 0), (1, 0))})


def test_repeated_column_module_by_hand():
    assert koszul_betti(repeated_column_module(), QQ).entries == {
        (0, E): 2, (0, frozenset({1})): 1, (1, frozenset({1})): 1}


@pytest.mark.parametrize("fieldspec", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_koszul_cone_rule_changes_no_table(fieldspec):
    # skipping the degrees with an apex and reducing the others gives the
    # table of every unreduced degree, certified over every field exactly
    # when that one is, and the table from the definition;
    # test_koszul_matches_definition_oracle compares koszul_oracle_modules()
    # with the definition
    more = [from_complex(delta) for _, delta in complex_scope(max_n=4)]
    more += [repeated_column_module(), *signed_unit_modules()]
    for module in koszul_oracle_modules() + more:
        want = _certified(unskipped_koszul_entries, module, fieldspec)
        assert _certified(_koszul_entries, module, fieldspec) == want, module
    for module in more:
        want = koszul_betti_by_definition(module, fieldspec)
        assert BettiTable(module.n, _koszul_entries(module, fieldspec)) == want, module


def twisted(module, rng):
    # the same module in another basis: each component conjugated by a
    # signed permutation P, so x_j at G becomes P_{G+j} x_j P_G^-1
    perms = {}
    for f, d in module.comp_masks.items():
        order = rng.sample(range(d), d)
        perms[f] = [(order[c], rng.choice((1, -1))) for c in range(d)]  # P e_c = s e_order[c]
    mult = {}
    for (f, bit), mat in module.mult_masks.items():
        src, dst = perms[f], perms[f | bit]
        new = [[0] * len(src) for _ in dst]
        for r, row in enumerate(mat):
            for c, v in enumerate(row):
                new[dst[r][0]][src[c][0]] = dst[r][1] * v * src[c][1]
        mult[(mask_to_face(f), bit.bit_length())] = new
    return SquarefreeModule(module.n, module.comp, mult)


def twisted_modules(seed):
    # poset face rings (glued simplices have components of dimension 2 and
    # 3), their skeletons and deletions, and the hand-made modules whose
    # maps are not identities, each in two bases
    rng = random.Random(seed)
    base = [torsion_module(), repeated_column_module(), *signed_unit_modules(), glued_edges_module()]
    for _, poset in poset_instances(random_count=20):
        ring = face_ring_module(poset)
        base += [ring, module_skeleton(ring, max(module_dim(ring) - 1, 0)), delete_variables(ring, {1})]
    return [twisted(module, rng) for module in base for _ in range(2)]


@pytest.mark.parametrize("fieldspec", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_twisted_koszul_tables_match_the_unreduced_route(fieldspec):
    # in a twisted basis unit maps carry -1 entries and permutations, so the
    # inverse and the signs of the reduction's zigzag matter; the reduced
    # table, and whether it holds over every field, must be the unreduced
    # route's, and the table must be the definition's
    for module in twisted_modules(seed=7):
        reduced, free = _certified(_koszul_entries, module, fieldspec)
        assert (reduced, free) == _certified(unskipped_koszul_entries, module, fieldspec), module
        assert BettiTable(module.n, reduced) == koszul_betti_by_definition(module, fieldspec), module


def cone_degrees(delta):
    # F is a cone when a vertex of F lies on every facet of the subcomplex
    # induced on F, whose facets are the maximal traces of the facets on F
    out = set()
    for deg in range(1, 1 << delta.vertex_count):
        traces = {f & deg for f in delta.facet_masks} or {0}
        common = deg
        for t in traces:
            if not any(t != o and t & o == t for o in traces):
                common &= t
        if common:
            out.add(deg)
    return out


def test_koszul_skips_exactly_the_cones_of_face_rings(monkeypatch):
    computed = []

    def degree(comp, images, inverse, deg, fieldspec):
        computed.append(deg)
        return _koszul_degree(comp, images, inverse, deg, fieldspec)

    monkeypatch.setattr(squarefree, "_koszul_degree", degree)
    # every complex on at most 4 ambient variables, some of them no vertex
    complexes = [SimplicialComplex.empty(n) for n in range(5)]
    for n in range(1, 5):
        for delta in enumerate_complexes(n):
            complexes += [delta, SimplicialComplex(4, delta.facet_masks)] if n < 4 else [delta]
    for delta in complexes:
        computed.clear()
        _koszul_entries(from_complex(delta), QQ)
        assert set(range(1 << delta.vertex_count)) - set(computed) == cone_degrees(delta), delta


@pytest.mark.parametrize("order", [(QQ, GF2), (GF2, QQ)], ids=["Q-first", "GF2-first"])
def test_koszul_table_with_torsion_stays_with_q(order):
    # multiplication by x_1 is 2: invertible over Q, where the module is
    # free on one generator; zero over GF(2), where it splits as k + k(-{1})
    want = {
        QQ: {(0, E): 1},
        GF2: {(0, E): 1, (0, frozenset({1})): 1, (1, frozenset({1})): 1},
    }
    module = torsion_module()
    for fieldspec in order:
        assert koszul_betti(module, fieldspec).entries == want[fieldspec]


def test_copied_koszul_tables_are_fresh():
    module = from_complex(cycle(4))
    first = koszul_betti(module, QQ)
    first.entry_masks.clear()
    assert koszul_betti(module, GF2) == hochster_betti(cycle(4), GF2)


def test_koszul_betti_refuses_oversize_modules():
    assert BETTI_CAP == 16
    with pytest.raises(TooLargeError):
        koszul_betti(omega_module(17, {1}), QQ)


def test_betti_vanishes_above_degree_size(fieldspec):
    for delta in [cycle(5), boundary_simplex(2)]:
        table = koszul_betti(from_complex(delta), fieldspec)
        for (i, deg) in table.entries:
            assert i <= len(deg)


def test_module_dim_and_cm():
    m = from_complex(cycle(4))
    assert module_dim(m) == 2
    assert is_module_cm(m, QQ)
    assert module_dim(omega_module(4, {1, 3})) == 2
    assert is_module_cm(omega_module(4, {1, 3}), QQ)
    two_edges = from_complex(SimplicialComplex.from_facets([(1, 2), (3, 4)]))
    assert module_dim(two_edges) == 2
    assert not is_module_cm(two_edges, QQ)
    with pytest.raises(ZeroModuleError):
        module_dim(SquarefreeModule(2, {}))
    assert is_module_cm(SquarefreeModule(2, {}), QQ)  # zero module, vacuously


def test_is_module_l_cm(fieldspec):
    n = 3
    for k in range(0, n + 1):
        for deg in combinations(range(1, n + 1), k):
            om = omega_module(n, deg)
            for l in range(1, n + 2):
                assert is_module_l_cm(om, l, fieldspec)
    c4 = from_complex(cycle(4))
    assert is_module_l_cm(c4, 2, fieldspec)
    assert not is_module_l_cm(c4, 3, fieldspec)
    with pytest.raises(ZeroModuleError):
        is_module_l_cm(SquarefreeModule(2, {}), 1, fieldspec)
    with pytest.raises(ValueError, match="^l must be >= 1$"):
        is_module_l_cm(c4, 0, fieldspec)
    # no deletion fails, and l - 1 past n asks for no more than n variables
    assert is_module_l_cm(omega_module(2, ()), 4, fieldspec)


def test_module_l_cm_equals_complex_l_cm(fieldspec):
    for delta in [cycle(4), path(3), boundary_simplex(2),
                  SimplicialComplex.from_facets([(1, 2), (3, 4)])]:
        m = from_complex(delta)
        for l in range(1, delta.vertex_count + 2):
            assert is_module_l_cm(m, l, fieldspec) == is_l_cm(delta, l, fieldspec)


def test_module_threshold_matches_definition_oracle(fieldspec):
    for n in range(1, 5):
        for delta in enumerate_complexes(n):
            m = from_complex(delta)
            threshold = module_l_cm_threshold(m, fieldspec)
            assert threshold == module_threshold_by_definition(m, fieldspec)
            assert threshold == l_cm_threshold(delta, fieldspec)


def test_restriction_consistency_module_level(fieldspec):
    for delta in [cycle(5), boundary_simplex(3)]:
        m = from_complex(delta)
        big = koszul_betti(m, fieldspec)
        keep = tuple(range(1, delta.vertex_count))  # order-preserving relabel is identity
        small = koszul_betti(restrict(m, keep), fieldspec)
        for (i, deg), b in small.entries.items():
            assert big.get(i, deg) == b


def test_thm25_condition_ii():
    t = koszul_betti(from_complex(cycle(4)), QQ)
    assert thm25_condition_ii(t, 4, 2, 2)
    assert not thm25_condition_ii(t, 4, 2, 3)
    # a table with only the (0, empty) entry passes exactly for l <= n-d+1
    free = koszul_betti(from_complex(full_simplex(3)), QQ)
    assert free.entries == {(0, frozenset()): 1}
    for n, d in [(3, 3), (5, 2)]:
        for l in range(1, n + 2):
            assert thm25_condition_ii(free, n, d, l) == (l <= n - d + 1)


def test_canonical_betti_c4():
    t = koszul_betti(from_complex(cycle(4)), QQ)
    u = canonical_betti(t, 4, 2)
    assert u.entries == {
        (0, frozenset()): 1,
        (1, frozenset({1, 3})): 1,
        (1, frozenset({2, 4})): 1,
        (2, frozenset({1, 2, 3, 4})): 1,
    }


def test_canonical_betti_path():
    t = koszul_betti(from_complex(path(3)), QQ)
    u = canonical_betti(t, 3, 2)
    assert u.get(0, {2}) == 1


def test_canonical_betti_full_simplex():
    # the canonical module of the free ring is generated in the top degree
    t = koszul_betti(from_complex(full_simplex(3)), QQ)
    u = canonical_betti(t, 3, 3)
    assert u.entries == {(0, frozenset({1, 2, 3})): 1}


def test_canonical_betti_is_an_involution(fieldspec):
    for delta in [cycle(4), full_simplex(3), boundary_simplex(2), path(3)]:
        n = delta.vertex_count
        d = delta.dimension() + 1
        t = koszul_betti(from_complex(delta), fieldspec)
        if t.projective_dimension() != n - d:
            continue
        assert canonical_betti(canonical_betti(t, n, d), n, d) == t


def test_canonical_requires_cm():
    two_edges = from_complex(SimplicialComplex.from_facets([(1, 2), (3, 4)]))
    with pytest.raises(RequiresCohenMacaulayError):
        canonical_betti(koszul_betti(two_edges, QQ), 4, 2)
    with pytest.raises(RequiresCohenMacaulayError):
        is_2cm_via_canonical(two_edges, QQ)
    with pytest.raises(ZeroModuleError, match="^the 2-CM test is for nonzero modules$"):
        is_2cm_via_canonical(SquarefreeModule(2, {}), QQ)


def test_2cm_via_canonical(fieldspec):
    assert is_2cm_via_canonical(from_complex(cycle(4)), fieldspec)
    assert not is_2cm_via_canonical(from_complex(path(3)), fieldspec)
    assert is_2cm_via_canonical(omega_module(3, {1, 2}), fieldspec)


def test_2cm_canonical_agrees_with_definition(fieldspec):
    for delta in enumerate_complexes(3):
        m = from_complex(delta)
        if not is_cohen_macaulay(delta, fieldspec):
            continue
        assert is_2cm_via_canonical(m, fieldspec) == is_module_l_cm(m, 2, fieldspec)


def test_thm25_equivalences_exhaustive_n3(fieldspec):
    n = 3
    for delta in enumerate_complexes(n):
        if not is_cohen_macaulay(delta, fieldspec):
            continue
        m = from_complex(delta)
        d = delta.dimension() + 1
        table = koszul_betti(m, fieldspec)
        dual = canonical_betti(table, n, d)
        for l in range(2, n + 2):
            lhs = is_module_l_cm(m, l, fieldspec)
            assert lhs == thm25_condition_ii(table, n, d, l)
            assert lhs == thm25_condition_iii(dual, l)


def test_skeleton_theorem_small(fieldspec):
    # an l-CM module of dimension d has (l+d-i)-CM skeletons
    for delta in [cycle(4), boundary_simplex(3), full_simplex(3)]:
        m = from_complex(delta)
        l = max_module_l(m, fieldspec)
        if l < 1:
            continue
        d = module_dim(m)
        for i in range(0, d):
            skel = module_skeleton(m, i)
            if skel.is_zero:
                continue
            assert is_module_l_cm(skel, l + d - i, fieldspec), (delta, i)


def test_nonvanishing_zero_component_never_dies(fieldspec):
    # modules with a nonzero degree-0 component survive every deletion
    m = from_complex(cycle(4))
    for size in range(0, 5):
        for drop in combinations(range(1, 5), size):
            assert not delete_variables(m, drop).is_zero


def test_face_rings_of_complexes_have_no_defects():
    # from_complex skips the scan; run it on the same data
    rng = random.Random(5)
    instances = [delta for n in range(1, 5) for delta in enumerate_complexes(n)]
    instances += [random_complex(rng.randint(5, 7), rng.uniform(0.3, 0.9), rng.randrange(10**6))
                  for _ in range(50)]
    for delta in instances:
        module = from_complex(delta)
        assert module._defects == []
        assert _scan_defects(module) == []


def from_complex_by_scan(delta):
    # the face ring by a scan of every (face, absent vertex) pair: a map
    # wherever the enlarged set is a face too
    comp = dict.fromkeys(chain(*faces_by_card(delta.facet_masks)), 1)
    mult = {(f, 1 << v): ((1,),) for f in comp for v in range(delta.vertex_count)
            if not f >> v & 1 and f | 1 << v in comp}
    return SquarefreeModule._from_masks(delta.vertex_count, comp, mult, [])


def test_from_complex_matches_the_scan():
    # the one face walk builds the scan's module, and the Koszul route reads
    # both alike: the same images in the same order and the same inverses,
    # so every table and certification flag is the scan's.  Tables and
    # flags are also compared outright over three fields on n <= 4, the
    # named and random complexes and every 25th complex on 5 vertices
    complexes = [delta for n in range(1, 6) for delta in enumerate_complexes(n)]
    named = [delta for _, delta in complex_scope(max_n=4)]
    for k, delta in enumerate(complexes + named):
        module, want = from_complex(delta), from_complex_by_scan(delta)
        assert module == want, delta
        assert _koszul_maps(module.comp_masks, module.mult_masks) == \
            _koszul_maps(want.comp_masks, want.mult_masks), delta
        if delta.vertex_count < 5 or k % 25 == 0 or k >= len(complexes):
            for fieldspec in (QQ, GF2, GF3):
                assert _certified(_koszul_entries, module, fieldspec) == \
                    _certified(_koszul_entries, want, fieldspec), (delta, fieldspec)


def is_unit_map(mat):
    # square with one entry +-1 in each row and in each column, and zeros
    # elsewhere: invertible over every field
    if len(mat) != len(mat[0]):
        return False
    cols = set()
    for row in mat:
        hits = [c for c, v in enumerate(row) if v]
        if len(hits) != 1 or row[hits[0]] not in (1, -1):
            return False
        cols.add(hits[0])
    return len(cols) == len(mat)


def test_koszul_maps_match_a_walk_of_each_matrix():
    # one walk of each matrix gives the images of an entry-by-entry walk,
    # finds exactly the unit maps and inverts them: a repeated column, a
    # torsion entry, a row with two entries, a rotation, and maps that are
    # not square (one with a zero row)
    hand = [((1, 0), (1, 0)), ((2,),), ((1, 1), (0, 1)), ((0, -1), (1, 0)),
            ((1, 0, 0), (0, 1, 0)), ((0, 1), (0, 0), (1, 0))]
    modules = [SquarefreeModule(1, {(): len(mat[0]), (1,): len(mat)}, {((), 1): mat}) for mat in hand]
    assert [bool(_koszul_maps(m.comp_masks, m.mult_masks)[1]) for m in modules] == \
        [False, False, False, True, False, False]
    modules += koszul_oracle_modules() + twisted_modules(seed=7) + signed_unit_modules()
    for module in modules:
        images, inverse = _koszul_maps(module.comp_masks, module.mult_masks)
        want = {g: [[] for _ in range(d)] for g, d in module.comp_masks.items()}
        for (g, bit), mat in module.mult_masks.items():
            for r, row in enumerate(mat):
                for b, v in enumerate(row):
                    if v:
                        want[g][b].append((bit, r, v))
            assert ((g, bit) in inverse) == is_unit_map(mat), (module, mat)
            if (g, bit) in inverse:
                assert inverse[(g, bit)] == [next((b, v) for b, v in enumerate(row) if v) for row in mat]
        assert images == want, module


def test_commutativity_validation():
    # maps x, y with xy != yx at the top corner
    bad = SquarefreeModule(
        2,
        {E: 1, frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 1},
        {
            (E, 1): ((1,),),
            (E, 2): ((1,),),
            (frozenset({1}), 2): ((1,),),
            (frozenset({2}), 1): ((2,),),
        },
    )
    with pytest.raises(InvalidModuleError):
        koszul_betti(bad, QQ)
    # over GF(2) the same data is inconsistent too (1 != 2 mod 2)
    with pytest.raises(InvalidModuleError):
        koszul_betti(bad, GF2)
    # but entries congruent mod p commute over GF(p)
    mod3 = SquarefreeModule(
        2,
        {E: 1, frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 1},
        {
            (E, 1): ((1,),),
            (E, 2): ((1,),),
            (frozenset({1}), 2): ((4,),),
            (frozenset({2}), 1): ((1,),),
        },
    )
    koszul_betti(mod3, FieldSpec.prime(3))  # 4 == 1 mod 3
    with pytest.raises(InvalidModuleError):
        koszul_betti(mod3, QQ)
    # a square whose paths differ by 2 in one entry and by 1 in the other:
    # the 2 vanishes over GF(2), the 1 does not
    two_entries = SquarefreeModule(
        2, {(): 1, (1,): 1, (2,): 1, (1, 2): 2},
        {((), 1): [[1]], ((), 2): [[1]], ((1,), 2): [[2], [1]], ((2,), 1): [[0], [0]]},
    )
    with pytest.raises(InvalidModuleError):
        two_entries.validate_over(GF2)
    with pytest.raises(InvalidModuleError):
        koszul_betti(two_entries, GF2)


def noncommuting_module():
    # squares that do not commute over Q: at the empty degree for variables
    # 1,2 and 1,3, and at {1}, {2} and {3} below the top degree {1,2,3}
    return SquarefreeModule(
        3,
        {E: 1, frozenset({1}): 1, frozenset({2}): 1, frozenset({3}): 1,
         frozenset({1, 2}): 1, frozenset({1, 3}): 1, frozenset({1, 2, 3}): 1},
        {
            (E, 1): ((1,),),
            (E, 2): ((1,),),
            (E, 3): ((1,),),
            (frozenset({1}), 2): ((4,),),
            (frozenset({2}), 1): ((1,),),
            (frozenset({1}), 3): ((2,),),
            (frozenset({3}), 1): ((1,),),
            (frozenset({1, 2}), 3): ((1,),),
            (frozenset({1, 3}), 2): ((3,),),
        },
    )


def test_skeleton_and_omega_defects_match_a_scan():
    # module_skeleton filters its parent's defects: they must equal the
    # explicit scan, on the thm27 scope and a module whose maps do not commute
    bad = noncommuting_module()
    assert bad._defects
    modules = [bad] + [from_complex(delta) for _, delta in complex_scope(max_n=4)]
    modules += [omega_module(n, combo) for n in range(1, 5)
                for k in range(n + 1) for combo in combinations(range(1, n + 1), k)]
    for module in modules:
        assert module._defects == _scan_defects(module)
        for i in range(module.n + 2):
            skeleton = module_skeleton(module, i)
            assert skeleton._defects == _scan_defects(skeleton)
    assert module_skeleton(bad, 3)._defects == _scan_defects(bad)
    assert module_skeleton(bad, 2)._defects and not module_skeleton(bad, 1)._defects


def test_restriction_defects_match_a_scan():
    # restrict relabels its parent's defects inside the kept variables; on
    # every subset they must equal the scan of the restriction
    bad = noncommuting_module()
    for k in range(4):
        for keep in combinations(range(1, 4), k):
            cut = restrict(bad, keep)
            assert cut._defects == _scan_defects(cut), keep
            assert delete_variables(bad, set(range(1, 4)) - set(keep))._defects == cut._defects
    assert restrict(bad, (1, 2))._defects and restrict(bad, (1, 3))._defects
    assert not restrict(bad, (2, 3))._defects


def test_restriction_validates_exactly_the_kept_squares():
    # the squares that fail over Q have top degree {1,2}, {1,3} or {1,2,3}
    bad = noncommuting_module()
    for k in range(4):
        for keep in combinations(range(1, 4), k):
            cut = restrict(bad, keep)
            if {1, 2} <= set(keep) or {1, 3} <= set(keep):
                with pytest.raises(InvalidModuleError):
                    koszul_betti(cut, QQ)
            else:
                koszul_betti(cut, QQ)


def test_commutativity_error_names_the_first_surviving_defect():
    # two squares at the empty degree: for variables 1,2 the paths differ by
    # 3, which vanishes over GF(3); for variables 1,3 they differ by 1
    two = SquarefreeModule(
        3,
        {E: 1, frozenset({1}): 1, frozenset({2}): 1, frozenset({3}): 1,
         frozenset({1, 2}): 1, frozenset({1, 3}): 1},
        {
            (E, 1): ((1,),),
            (E, 2): ((1,),),
            (E, 3): ((1,),),
            (frozenset({1}), 2): ((4,),),
            (frozenset({2}), 1): ((1,),),
            (frozenset({1}), 3): ((2,),),
            (frozenset({3}), 1): ((1,),),
        },
    )
    # GF(3) comes again after Q: the defects found once serve every field
    for fieldspec, pair in [(FieldSpec.prime(3), "1,3"), (QQ, "1,2"), (GF2, "1,2"),
                            (FieldSpec.prime(3), "1,3")]:
        with pytest.raises(InvalidModuleError) as err:
            koszul_betti(two, fieldspec)
        assert str(err.value) == (
            f"maps at degree [] do not commute for variables {pair} over {fieldspec.label()}"
        )


def test_module_shape_validation():
    with pytest.raises(ValueError):
        SquarefreeModule(2, {E: 1}, {(E, 1): ((1,), (1,))})  # wrong shape
    with pytest.raises(ValueError):
        SquarefreeModule(2, {frozenset({1}): 1}, {(frozenset({1}), 1): ((1,),)})
    with pytest.raises(ValueError, match="not an integer"):
        SquarefreeModule(1, {(): 1.5})
    # a bool is written as text the module file parser refuses
    with pytest.raises(ValueError, match=r"^component dimension True at degree \[1\] is not an integer$"):
        SquarefreeModule(1, {(): 1, (1,): True}, {((), 1): [[1]]})
    with pytest.raises(ValueError, match="^ambient variable count True is not an integer$"):
        SquarefreeModule(True, {(): 1, (1,): 1}, {((), 1): [[1]]})
    with pytest.raises(ValueError, match="^ambient variable count 1.0 is not an integer$"):
        SquarefreeModule(1.0, {(): 1})
    with pytest.raises(ValueError, match="^ambient variable count must be >= 0$"):
        SquarefreeModule(-1, {})
    with pytest.raises(ValueError, match="^component dimensions must be >= 0$"):
        SquarefreeModule(1, {(): -1})
    # a degree that is no set of vertices, a map key that is no (degree,
    # variable) pair and a map that is no list of rows raised TypeError or
    # "too many values to unpack"; each names the key it was given
    with pytest.raises(ValueError, match="^degree 1 is not a set of vertices$"):
        SquarefreeModule(2, {1: 1})
    with pytest.raises(ValueError, match="^degree 1 is not a set of vertices$"):
        SquarefreeModule(2, {(): 1, (2,): 1}, {(1, 2): ((1,),)})
    for key, mat in [(((), 1, 2), [[1]]), (1, [[1]]), (((),), [[1]]), (((), 1), [1]), (((), 1), 1)]:
        with pytest.raises(ValueError, match=rf"^map {re.escape(repr(key))} needs a \(degree, variable\) key and a list of rows$"):
            SquarefreeModule(1, {(): 1, (1,): 1}, {key: mat})
    # a map's variable or a degree's vertex must be exactly an int: 1.0 as a
    # variable raised TypeError from the bit shift, and True passed as
    # variable or vertex 1
    for j in (1.0, True):
        with pytest.raises(ValueError, match=rf"^bad multiplication index {j} at degree \[\]$"):
            SquarefreeModule(1, {(): 1, (1,): 1}, {((), j): ((1,),)})
        with pytest.raises(ValueError, match=rf"^degree \[{j}\] outside 1\.\.1$"):
            SquarefreeModule(1, {(): 1, (j,): 1}, {((), 1): ((1,),)})
    # a map's degree follows the same rule: 1.0 raised TypeError from the bit
    # shift, and an empty map off the ring was dropped unread
    for deg in ((1.0,), (5,), (True,)):
        with pytest.raises(ValueError, match=r"^degree \[.+\] outside 1\.\.2$"):
            SquarefreeModule(2, {(): 1, (2,): 1}, {(deg, 2): ()})
    # a degree whose vertices do not compare raised TypeError from sorting
    # them for the message, in both degree checks
    with pytest.raises(ValueError, match=r"^degree \['a', 1\] outside 1\.\.2$"):
        SquarefreeModule(2, {("a", 1): 1})
    with pytest.raises(ValueError, match=r"^degree \['a', 1\] outside 1\.\.2$"):
        SquarefreeModule(2, {(): 1, (2,): 1}, {(("a", 1), 2): ()})
    # two keys naming one degree, or one map
    with pytest.raises(ValueError, match="given twice"):
        SquarefreeModule(2, {(1, 2): 1, (2, 1): 1})
    with pytest.raises(ValueError, match="given twice"):
        SquarefreeModule(2, {(1, 2): 0, (2, 1): 1})
    with pytest.raises(ValueError, match="given twice"):
        SquarefreeModule(3, {(1, 2): 1, (1, 2, 3): 1},
                         {((1, 2), 3): ((1,),), ((2, 1), 3): ((1,),)})


@pytest.mark.parametrize("entry", [0.5, "1", True, Fraction(1, 3)], ids=repr)
def test_module_door_refuses_non_int_entries(entry):
    # the module file format reads only ints, and so does every rank: 0.5
    # was truncated to 0 over GF(2) and broke the rank over Q, a bool or
    # Fraction was written as text the parser refuses, and "1" read back as
    # a different module
    with pytest.raises(ValueError, match=r"^map entry .+ at degree \[\] for variable 1 is not an integer$"):
        SquarefreeModule(1, {(): 1, (1,): 1}, {((), 1): [[entry]]})


def test_module_file_roundtrip():
    mods = [
        from_complex(cycle(4)),
        omega_module(3, {1, 3}),
        glued_edges_module(),
        SquarefreeModule(2, {}),
    ]
    for m in mods:
        assert parse_module_file(format_module_file(m)) == m


def test_module_file_parse_errors():
    with pytest.raises(ParseError):
        parse_module_file("comp - 1\n")  # missing n
    with pytest.raises(ParseError):
        parse_module_file("n 2\ncomp 1,1 1\n")
    with pytest.raises(ParseError):
        parse_module_file("n 2\nfrob - 1\n")
    # a repeated degree or (degree, variable) pair names its line
    with pytest.raises(ParseError, match="line 3"):
        parse_module_file("n 2\ncomp 1,2 1\ncomp 2,1 1\n")
    with pytest.raises(ParseError, match="line 5"):
        parse_module_file("n 1\ncomp - 1\ncomp 1 1\nmap - 1 1\nmap - 1 0\n")
    # a bad degree and a repeated n line name their line too
    with pytest.raises(ParseError, match="line 3"):
        parse_module_file("n 2\ncomp - 1\ncomp 1,1 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_module_file("n 2\nn 3\ncomp - 1\n")
    with pytest.raises(ParseError, match="^line 2: bad integer in 'comp 1 x'$"):
        parse_module_file("n 2\ncomp 1 x\n")
    with pytest.raises(ParseError, match="^line 2: bad degree '1,x'$"):
        parse_module_file("n 2\ncomp 1,x 1\n")
    # what the module door refuses is a parse error too
    with pytest.raises(ParseError, match=r"^degree \[3\] outside 1\.\.2$"):
        parse_module_file("n 2\ncomp 3 1\n")


def test_glued_edges_module_is_free_but_not_degree_zero_generated():
    g = glued_edges_module()
    t = koszul_betti(g, QQ)
    assert t.entries == {(0, frozenset()): 1, (0, frozenset({1, 2})): 1}
    assert is_module_cm(g, QQ)
    assert not is_2cm_via_canonical(g, QQ)
    assert not is_module_l_cm(g, 2, QQ)


def test_random_modules_koszul_equals_hochster(fieldspec):
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(1, 5)
        pool = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 5))
        ]
        delta = SimplicialComplex.from_facets(pool, vertex_count=n)
        assert koszul_betti(from_complex(delta), fieldspec) == hochster_betti(delta, fieldspec)


def test_module_verdict_snapshot():
    # Koszul tables, thresholds and module file digests over Q, GF(2), GF(3)
    # of poset face rings, complex face rings and one-component modules,
    # against the committed table
    assert render_modules().encode() == MODULE_SNAPSHOT.read_bytes()
