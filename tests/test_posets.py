from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit.cm import is_cohen_macaulay, is_l_cm
from lcmkit.complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle,
    full_simplex,
    path,
)
from lcmkit.errors import (
    MultipleMinimalError,
    NonBooleanIntervalError,
    ParseError,
    PosetValidationError,
    RankMismatchError,
)
from lcmkit.linalg import FieldSpec
from lcmkit.posets import (
    SimplicialPoset,
    delete_atoms,
    face_poset,
    face_ring_module,
    format_poset_file,
    glued_simplices,
    is_poset_cm,
    is_poset_l_cm,
    join_set,
    max_poset_l,
    order_complex,
    parse_poset_file,
    poset_l_cm_threshold,
    poset_skeleton,
    random_simplicial_poset,
    restrict_poset,
)
from lcmkit.squarefree import SquarefreeModule, _scan_defects, from_complex, is_module_l_cm, module_l_cm_threshold
from lcmkit.sweeps import poset_instances
from oracles import (
    module_threshold_by_definition,
    poset_threshold_by_definition,
    simplicial_poset_defects,
)
from record_verdicts import (
    POSET_SNAPSHOT,
    VALIDATION_CASES,
    VALIDATION_SNAPSHOT,
    random_cover_set,
    render_posets,
    render_validation,
    validation_outcome,
)

QQ = FieldSpec.rationals()


def test_face_poset_is_valid_and_sized():
    fp = face_poset(cycle(4))
    assert fp.size == 9  # empty face + 4 vertices + 4 edges
    assert fp.max_rank() == 2
    assert fp.vertex_count == 4
    assert face_poset(SimplicialComplex.empty(0)).size == 1


def test_glued_simplices_validation_and_shape():
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            p = glued_simplices(d, m)
            assert p.max_rank() == d + 1
            assert p.vertex_count == d + 1
            tops = [x for x in range(p.size) if p.rank[x] == d + 1]
            assert len(tops) == m
    assert glued_simplices(2, 1).size == 2 ** 3  # boolean lattice of a triangle


def test_glued_simplices_ids_and_covers_follow_the_definition():
    # the proper subsets of {1..d+1} by size, then lexicographically, then
    # T1..Tm; subsets covered by adding one vertex, T* covering every d-subset
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            subsets = [c for k in range(d + 1) for c in combinations(range(1, d + 2), k)]
            ids = tuple(",".join(map(str, s)) or "-" for s in subsets)
            ids += tuple(f"T{t}" for t in range(1, m + 1))
            index = {s: i for i, s in enumerate(subsets)}
            covers = {(index[s], index[t]) for s in subsets for t in subsets
                      if len(t) == len(s) + 1 and set(s) <= set(t)}
            covers |= {(index[s], len(subsets) + t) for s in subsets if len(s) == d
                       for t in range(m)}
            p = glued_simplices(d, m)
            assert p.ids == ids and p.bottom == 0
            assert p.covers == covers


def test_invalid_posets():
    with pytest.raises(RankMismatchError):
        SimplicialPoset.build(["o", "a", "b"], "o", [("o", "a"), ("a", "b")])
    with pytest.raises(MultipleMinimalError):
        SimplicialPoset.build(["o", "a"], "o", [])
    # rank-consistent but the interval below x misses the face over {b, c}
    with pytest.raises(NonBooleanIntervalError):
        SimplicialPoset.build(
            ["o", "a", "b", "c", "ab", "ac", "x"],
            "o",
            [
                ("o", "a"), ("o", "b"), ("o", "c"),
                ("a", "ab"), ("b", "ab"), ("a", "ac"), ("c", "ac"),
                ("ab", "x"), ("ac", "x"),
            ],
        )
    with pytest.raises(PosetValidationError):
        SimplicialPoset.build(["o", "a"], "o", [("o", "a"), ("a", "o")])


def test_validation_agrees_with_the_definition():
    # build accepts a seeded random graded cover set exactly when the
    # definition holds, and rejects it with the class and message recorded
    # before the pairwise "ordered by atom sets" check was dropped
    outcomes, defects_seen = [], set()
    for seed in range(VALIDATION_CASES):
        size, pairs = random_cover_set(seed)
        outcome = validation_outcome(size, pairs)
        defects = simplicial_poset_defects(size, 0, pairs)
        assert (outcome == "accepted") == (not defects), (seed, outcome, defects)
        outcomes.append(outcome)
        defects_seen |= defects
    # each of the three boolean-interval conditions fails somewhere
    assert {"interval size", "shared support", "order"} <= defects_seen
    assert "accepted" in outcomes
    assert any("elements, expected" in o for o in outcomes)
    assert any("share the atom set" in o for o in outcomes)
    assert render_validation(outcomes).encode() == VALIDATION_SNAPSHOT.read_bytes()


def test_poset_structure_snapshot():
    # element order, ranks, supports, down-sets and upper covers of the
    # poset suite, against the committed table
    assert render_posets().encode() == POSET_SNAPSHOT.read_bytes()


def test_cover_cycle_is_rejected():
    with pytest.raises(PosetValidationError, match="cycle"):
        SimplicialPoset.build(["o", "a", "b"], "o", [("o", "a"), ("a", "b"), ("b", "a")])


def test_down_sets_are_the_transitive_closure_of_covers():
    for p in [glued_simplices(2, 2), face_poset(cycle(4)), random_simplicial_poset(5, 3, 2)]:
        for y in range(p.size):
            closure, frontier = {y}, [y]
            while frontier:
                z = frontier.pop()
                for a, b in p.covers:
                    if b == z and a not in closure:
                        closure.add(a)
                        frontier.append(a)
            assert p.down_set(y) == closure
            assert all(p.leq(x, y) == (x in closure) for x in range(p.size))
            assert p.upper_covers(y) == sorted(b for a, b in p.covers if a == y)


def test_join_set():
    g22 = glued_simplices(2, 2)
    e1 = g22.index_of("1,2")
    e2 = g22.index_of("1,3")
    tops = {g22.ids[x] for x in join_set(g22, e1, e2)}
    assert tops == {"T1", "T2"}
    a = g22.index_of("1")
    assert join_set(g22, a, g22.bottom) == frozenset({a})
    # in a face poset joins have at most one element
    fp = face_poset(cycle(4))
    x = fp.index_of("1")
    y = fp.index_of("3")
    assert join_set(fp, x, y) == frozenset()
    assert {fp.ids[z] for z in join_set(fp, x, fp.index_of("2"))} == {"1,2"}


def test_restrict_poset():
    g22 = glued_simplices(2, 2)
    r = restrict_poset(g22, {1, 2})
    assert r.max_rank() == 2  # the edge 1,2 survives, tops are gone
    assert r.size == 4
    assert restrict_poset(g22, {1, 2, 3}) == g22
    assert delete_atoms(g22, {3}) == r


def test_restrict_face_poset_commutes(fieldspec):
    for delta in [cycle(4), boundary_simplex(2), path(4)]:
        fp = face_poset(delta)
        for keep in [(1, 2), (1, 2, 3), ()]:
            lhs = restrict_poset(fp, set(keep))
            rhs = face_poset(delta.induced_subcomplex(keep))
            # same structure up to the order-preserving relabeling of ids
            assert lhs.size == rhs.size
            assert sorted(lhs.rank) == sorted(rhs.rank)
            assert sorted(map(sorted, lhs.support)) == sorted(map(sorted, rhs.support))
            assert order_complex(lhs) == order_complex(rhs)


def test_poset_skeleton():
    g22 = glued_simplices(2, 2)
    assert poset_skeleton(g22, g22.max_rank()) == g22
    sphere = poset_skeleton(g22, 2)
    assert sphere.size == 1 + 3 + 3
    assert sphere.max_rank() == 2
    fp = face_poset(boundary_simplex(3))
    assert poset_skeleton(fp, 2) == face_poset(boundary_simplex(3).skeleton(1))


def test_order_complex_shapes():
    edge_poset = face_poset(full_simplex(2))
    oc = order_complex(edge_poset)
    assert oc.facets == frozenset({frozenset({1, 3}), frozenset({2, 3})})
    c4 = order_complex(glued_simplices(1, 2))
    assert c4.dimension() == 1
    assert len(c4.facets) == 4
    assert is_l_cm(c4, 2, QQ)
    single_atom = SimplicialPoset.build(["o", "a"], "o", [("o", "a")])
    assert order_complex(single_atom).facets == frozenset({frozenset({1})})
    just_bottom = face_poset(SimplicialComplex.empty(0))
    assert order_complex(just_bottom) == SimplicialComplex.empty(0)


def test_order_complex_dimension_is_rank_minus_one():
    for p in [glued_simplices(2, 2), face_poset(cycle(4)), random_simplicial_poset(5, 3, 3)]:
        assert order_complex(p).dimension() == p.max_rank() - 1


def test_poset_cm_examples(fieldspec):
    for d in (1, 2, 3):
        p = glued_simplices(d, 2)
        assert is_poset_cm(p, fieldspec)
        assert not is_poset_l_cm(p, 2, fieldspec)
        assert is_l_cm(order_complex(p), 2, fieldspec)
    assert max_poset_l(glued_simplices(3, 1), QQ) == 1  # boolean poset


def test_poset_l_cm_matches_complex_route(fieldspec):
    for delta in [cycle(4), path(3), boundary_simplex(2)]:
        fp = face_poset(delta)
        for l in range(1, delta.vertex_count + 2):
            assert is_poset_l_cm(fp, l, fieldspec) == is_l_cm(delta, l, fieldspec)


def test_face_ring_module_of_face_poset_is_face_ring(fieldspec):
    for delta in [cycle(4), boundary_simplex(2), path(3)]:
        assert face_ring_module(face_poset(delta)) == from_complex(delta)


def test_face_ring_module_glued():
    m = face_ring_module(glued_simplices(1, 2))
    assert m.comp == {
        frozenset(): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({1, 2}): 2,
    }
    assert m.map_matrix((), 1) == ((1,),)
    assert m.map_matrix((1,), 2) == ((1,), (1,))
    for d in (1, 2, 3):
        from lcmkit.squarefree import module_dim

        p = glued_simplices(d, 2)
        assert module_dim(face_ring_module(p)) == p.max_rank()


def test_route_agreement(fieldspec):
    posets = [
        face_poset(cycle(4)),
        glued_simplices(1, 2),
        glued_simplices(2, 2),
        random_simplicial_poset(4, 2, 5),
        random_simplicial_poset(5, 3, 8),
    ]
    for p in posets:
        m = face_ring_module(p)
        for l in range(1, p.vertex_count + 2):
            assert is_poset_l_cm(p, l, fieldspec) == is_module_l_cm(m, l, fieldspec), (p, l)


def test_thresholds_match_definition_oracles(fieldspec):
    for name, p in poset_instances(random_count=50):
        m = face_ring_module(p)
        assert poset_l_cm_threshold(p, fieldspec) == poset_threshold_by_definition(p, fieldspec), name
        assert module_l_cm_threshold(m, fieldspec) == module_threshold_by_definition(m, fieldspec), name


def test_poset_face_rings_need_no_scan():
    # every interval of a simplicial poset is boolean, so the commutativity
    # scan that face_ring_module skips finds nothing
    posets = [p for _, p in poset_instances(random_count=50)]
    posets += [glued_simplices(d, m) for d in range(1, 4) for m in range(1, 4)]
    shapes = [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (5, 4)]
    posets += [random_simplicial_poset(*shapes[k % len(shapes)], 1000 + k) for k in range(200)]
    for p in posets:
        module = face_ring_module(p)
        assert module._defects == []
        assert _scan_defects(module) == []
    # the scan does see one changed entry: in glued_1_2 the path through {2}
    # still reaches the second top cell, and the path through {1} no longer does
    module = face_ring_module(glued_simplices(1, 2))
    assert module.mult_masks[(0b01, 0b10)] == ((1,), (1,))
    broken = dict(module.mult_masks)
    broken[(0b01, 0b10)] = ((1,), (0,))
    assert _scan_defects(SquarefreeModule._from_masks(module.n, module.comp_masks, broken, []))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    rank=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    p=st.sampled_from([0, 2, 3]),
)
def test_random_poset_thresholds_agree(n, rank, seed, p):
    spec = FieldSpec(p)
    poset = random_simplicial_poset(n, rank, seed)
    module = face_ring_module(poset)
    topological = poset_l_cm_threshold(poset, spec)
    algebraic = module_l_cm_threshold(module, spec)
    assert topological == poset_threshold_by_definition(poset, spec)
    assert algebraic == module_threshold_by_definition(module, spec)
    assert topological == algebraic


def test_theorem44_small(fieldspec):
    for p in [face_poset(boundary_simplex(2)), glued_simplices(2, 2), face_poset(cycle(5))]:
        l = max_poset_l(p, fieldspec)
        if l < 1:
            continue
        d = p.max_rank()
        for i in range(1, d):
            assert is_poset_l_cm(poset_skeleton(p, i), l + d - i, fieldspec)


def test_two_cm_poset_has_two_cm_order_complex(fieldspec):
    p = face_poset(cycle(4))
    assert is_poset_l_cm(p, 2, fieldspec)
    assert is_l_cm(order_complex(p), 2, fieldspec)


def test_random_posets_deterministic_and_valid():
    a = random_simplicial_poset(5, 3, 42)
    b = random_simplicial_poset(5, 3, 42)
    assert a == b
    c = random_simplicial_poset(5, 3, 43)
    assert a != c  # astronomically unlikely to coincide
    for seed in range(10):
        p = random_simplicial_poset(4, 3, seed)
        assert p.max_rank() <= 3
        assert p.vertex_count == 4


def test_poset_file_roundtrip():
    for p in [glued_simplices(2, 2), face_poset(cycle(4)), random_simplicial_poset(4, 2, 0)]:
        assert parse_poset_file(format_poset_file(p)) == p


def test_poset_file_parse_errors():
    with pytest.raises(ParseError):
        parse_poset_file("bottom o\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements o a\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements o a\nbottom o\ncover o\n")


def test_poset_file_is_purely_structural():
    # ranks and supports are derived, never read
    text = "elements o a b e1 e2\nbottom o\ncover o a\ncover o b\ncover a e1\ncover b e1\ncover a e2\ncover b e2\n"
    p = parse_poset_file(text)
    assert p.max_rank() == 2
    assert sorted(p.support[p.index_of("e1")]) == [1, 2]
