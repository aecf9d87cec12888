import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit.cm import BETTI_CAP, hochster_betti, is_cohen_macaulay, is_l_cm, l_cm_threshold
from lcmkit.complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle,
    full_simplex,
    path,
)
from lcmkit.errors import (
    InvalidModuleError,
    ParseError,
    RequiresCohenMacaulayError,
    TooLargeError,
    ZeroModuleError,
)
from lcmkit.linalg import FieldSpec
from lcmkit.squarefree import (
    SquarefreeModule,
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
from lcmkit.sweeps import complex_scope, enumerate_complexes, random_complex
from oracles import module_threshold_by_definition
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


def test_module_skeleton():
    bd3 = boundary_simplex(3)
    m = from_complex(bd3)
    for i in range(0, 4):
        assert module_skeleton(m, i) == from_complex(bd3.skeleton(i - 1))
    assert module_skeleton(m, 5) == m
    assert module_skeleton(omega_module(3, {1, 2}), 1).is_zero


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


@pytest.mark.parametrize("order", [(QQ, GF2), (GF2, QQ)], ids=["Q-first", "GF2-first"])
def test_koszul_table_with_torsion_stays_with_q(order):
    # multiplication by x_1 is 2: invertible over Q, where the module is
    # free on one generator; zero over GF(2), where it splits as k + k(-{1})
    want = {
        QQ: {(0, E): 1},
        GF2: {(0, E): 1, (0, frozenset({1})): 1, (1, frozenset({1})): 1},
    }
    module = SquarefreeModule(1, {(): 1, (1,): 1}, {((), 1): ((2,),)})
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
    # two keys naming one degree, or one map
    with pytest.raises(ValueError, match="given twice"):
        SquarefreeModule(2, {(1, 2): 1, (2, 1): 1})
    with pytest.raises(ValueError, match="given twice"):
        SquarefreeModule(2, {(1, 2): 0, (2, 1): 1})
    with pytest.raises(ValueError, match="given twice"):
        SquarefreeModule(3, {(1, 2): 1, (1, 2, 3): 1},
                         {((1, 2), 3): ((1,),), ((2, 1), 3): ((1,),)})


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
