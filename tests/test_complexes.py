import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit.complexes import (
    SimplicialComplex,
    _maximal_masks,
    boundary_simplex,
    cycle,
    full_simplex,
    parse_facet_file,
    format_facet_file,
    path,
)
from lcmkit.errors import InvalidFaceError, ParseError, VoidComplexError


def faceset(delta, i):
    return {tuple(sorted(f)) for f in delta.faces(i)}


def test_faces_of_cycle():
    c4 = cycle(4)
    assert faceset(c4, 1) == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert c4.faces(-1) == {frozenset()}
    assert c4.faces(2) == set()
    assert faceset(boundary_simplex(3), 0) == {(1,), (2,), (3,), (4,)}


def test_dimension_and_purity():
    assert cycle(4).dimension() == 1
    assert cycle(4).is_pure()
    mixed = SimplicialComplex.from_facets([(1, 2), (3,)])
    assert mixed.dimension() == 1
    assert not mixed.is_pure()
    empty = SimplicialComplex.empty()
    assert empty.dimension() == -1
    assert empty.is_pure()
    with pytest.raises(VoidComplexError):
        SimplicialComplex.void().dimension()


def test_facets_normalized():
    delta = SimplicialComplex.from_facets([(1, 2, 3), (1, 2), (2,), ()])
    assert delta.facets == frozenset({frozenset({1, 2, 3})})
    assert delta.vertex_count == 3


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 63), max_size=12), st.integers(0, 2))
def test_maximal_masks_matches_definition(masks, zeros):
    family = masks + [0] * zeros + masks[: len(masks) // 2]  # the empty face, duplicates
    want = {m for m in family if not any(m != o and m & o == m for o in family)}
    assert _maximal_masks(family) == want


@pytest.mark.parametrize("bad", [(0, 1), (-2,), ("a",), (1.5,), (5,)])
def test_from_facets_rejects_bad_vertices(bad):
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([bad], vertex_count=3)


def test_antichain_enforced_on_direct_construction():
    with pytest.raises(ValueError, match="antichain"):
        SimplicialComplex(3, frozenset({0b011, 0b111}))


@pytest.mark.parametrize(
    "n, masks, void",
    [
        (3, {0}, False),  # the empty face
        (3, {1 << 3}, False),  # vertex 4 on 3 vertices
        (3, {-1}, False),
        (3, {1.0}, False),
        (3, {frozenset({1, 2})}, False),  # vertex sets are not masks
        (3, {0b001}, True),  # the void complex has no facets
    ],
)
def test_constructor_validates_masks(n, masks, void):
    with pytest.raises(ValueError):
        SimplicialComplex(n, frozenset(masks), is_void=void)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(1, max(n, 1)), max_size=n), max_size=10),
            st.randoms(use_true_random=False),
        )
    )
)
def test_masks_and_vertex_sets_agree(case):
    n, family, rng = case
    delta = SimplicialComplex.from_facets(family, vertex_count=n)
    maximal = {f for f in family if f and not any(f < g for g in family)}
    assert delta.facets == maximal
    assert delta.facet_masks == {sum(1 << (v - 1) for v in f) for f in maximal}
    assert delta.dimension() == max((len(f) for f in maximal), default=0) - 1
    assert delta.is_pure() == (len({len(f) for f in maximal}) <= 1)
    assert delta.vertices == frozenset().union(*maximal)
    shuffled = family[:]
    rng.shuffle(shuffled)
    again = SimplicialComplex.from_facets(shuffled, vertex_count=n)
    assert again == delta and hash(again) == hash(delta)


def test_induced_subcomplex():
    c4 = cycle(4)
    sub = c4.induced_subcomplex({1, 2, 3})
    assert sub.facets == frozenset({frozenset({1, 2}), frozenset({2, 3})})
    assert c4.induced_subcomplex(range(1, 5)) == c4
    e = c4.induced_subcomplex(set())
    assert e == SimplicialComplex.empty(0)
    # re-indexing is order preserving
    sub13 = c4.induced_subcomplex({2, 4})
    assert sub13.vertex_count == 2
    assert sub13.facets == frozenset({frozenset({1}), frozenset({2})})
    assert c4.restriction_labels({2, 4}) == (2, 4)


def test_delete_vertices():
    c4 = cycle(4)
    assert c4.delete_vertices({1}).facets == frozenset(
        {frozenset({1, 2}), frozenset({2, 3})}
    )
    two_pts = c4.delete_vertices({1, 3})
    assert two_pts.facets == frozenset({frozenset({1}), frozenset({2})})
    assert c4.delete_vertices(set()) == c4


def test_link():
    c4 = cycle(4)
    lk = c4.link({1})  # remaining vertices 2,3,4 -> 1,2,3
    assert lk.facets == frozenset({frozenset({1}), frozenset({3})})
    assert c4.link(()) == c4
    lk2 = boundary_simplex(3).link({1, 2})
    assert lk2.facets == frozenset({frozenset({1}), frozenset({2})})
    with pytest.raises(InvalidFaceError):
        c4.link({1, 3})


def test_skeleton():
    bd3 = boundary_simplex(3)
    k4 = bd3.skeleton(1)
    assert k4.facets == frozenset(frozenset(c) for c in combinations(range(1, 5), 2))
    assert bd3.skeleton(2) == bd3
    assert bd3.skeleton(0).facets == frozenset(frozenset({v}) for v in range(1, 5))
    assert bd3.skeleton(-1) == SimplicialComplex.empty(4)


def test_restriction_composes():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        pool = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(4)]
        delta = SimplicialComplex.from_facets(pool, vertex_count=n)
        w1 = {v for v in range(1, n + 1) if rng.random() < 0.7}
        w2 = {v for v in range(1, n + 1) if rng.random() < 0.7}
        lhs = delta.induced_subcomplex(sorted(w1)).induced_subcomplex(
            sorted({i + 1 for i, v in enumerate(sorted(w1)) if v in w2})
        )
        rhs = delta.induced_subcomplex(sorted(w1 & w2))
        assert lhs == rhs


def test_skeleton_composes():
    bd = boundary_simplex(3)
    for i in range(-1, 3):
        for j in range(-1, 3):
            assert bd.skeleton(i).skeleton(j) == bd.skeleton(min(i, j))


def test_link_dimension_in_pure_complex():
    bd = boundary_simplex(3)
    for f in bd.all_faces():
        assert bd.link(f).dimension() == bd.dimension() - len(f)


def test_face_counts_and_euler():
    c4 = cycle(4)
    assert c4.face_counts() == {-1: 1, 0: 4, 1: 4}
    assert c4.reduced_euler_characteristic() == -1 + 4 - 4
    assert full_simplex(3).reduced_euler_characteristic() == 0


def test_parse_and_format_roundtrip():
    for delta in [cycle(4), boundary_simplex(2), path(3), SimplicialComplex.empty(3)]:
        assert parse_facet_file(format_facet_file(delta)) == delta


def test_parse_facet_file():
    delta = parse_facet_file("# a square\nn 4\n1 2\n2 3\n3 4\n1 4\n")
    assert delta == cycle(4)
    no_header = parse_facet_file("1 2\n2 3\n")
    assert no_header == path(3)
    empty = parse_facet_file("n 3\n")
    assert empty == SimplicialComplex.empty(3)


@pytest.mark.parametrize(
    "text",
    ["", "n x\n", "1 2\nn 3\n", "0 1\n", "1 1\n", "n 2\n1 3\n", "1 a\n"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_facet_file(text)


def test_void_has_no_file_form():
    with pytest.raises(VoidComplexError):
        format_facet_file(SimplicialComplex.void())
