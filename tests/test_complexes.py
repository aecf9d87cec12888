import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit.complexes import (
    SimplicialComplex,
    _apex,
    _deletion_masks,
    _maximal_masks,
    boundary_simplex,
    complete_graph,
    cycle,
    full_simplex,
    parse_facet_file,
    format_facet_file,
    path,
)
from lcmkit.errors import InvalidFaceError, ParseError, VoidComplexError
from lcmkit.posets import order_complex
from lcmkit.squarefree import from_complex, restrict
from lcmkit.sweeps import enumerate_complexes, poset_instances, random_complex
from oracles import all_faces as oracle_faces, deletion_by_whole_family


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


def test_apex_is_the_intersection():
    assert _apex([]) == 0
    assert _apex(iter([0b1011])) == 0b1011
    assert _apex([0b0111, 0b1110, 0b0110]) == 0b0110
    assert _apex([0b011, 0b101, 0b110]) == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 63), max_size=12), st.integers(0, 2))
def test_maximal_masks_matches_definition(masks, zeros):
    family = masks + [0] * zeros + masks[: len(masks) // 2]  # the empty face, duplicates
    want = {m for m in family if not any(m != o and m & o == m for o in family)}
    assert _maximal_masks(family) == want


def _random_families(rng, count):
    # antichains on 6-11 vertices from facets of mixed sizes: most are not pure
    for _ in range(count):
        n = rng.randint(6, 11)
        raw = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, n - 1)))
               for _ in range(rng.randint(1, 14))]
        yield n, _maximal_masks(raw)


def test_deletion_masks_matches_the_whole_family_filter():
    # the one deletion helper tests only the cut facets, against the facets
    # that miss the drop, and runs a maximality pass only for a drop of more
    # than one vertex; it must give the whole-family filter's family on
    # every (complex, drop mask) pair on <= 4 vertices, every one-vertex
    # drop on 5 and seeded random families, {emptyset} from dropped
    # vertices included
    cases = [(n, delta.facet_masks, range(1 << n)) for n in range(1, 5) for delta in enumerate_complexes(n)]
    cases += [(5, delta.facet_masks, [1 << v for v in range(5)]) for delta in enumerate_complexes(5)]
    cases += [(n, frozenset(), range(1 << n)) for n in range(1, 4)]
    rng = random.Random(28)
    cases += [(n, family, [1 << v for v in range(n)] + [rng.randrange(1, 1 << n) for _ in range(20)])
              for n, family in _random_families(random.Random(27), 300)]
    pure = wide = 0
    for n, family, drops in cases:
        pure += len(set(map(int.bit_count, family))) <= 1
        for drop in drops:
            got = _deletion_masks(family, drop)
            assert got == deletion_by_whole_family(family, drop), (family, drop)
            wide += drop.bit_count() > 1
            if not any(m & drop for m in family):
                assert got is family
    assert pure < len(cases) / 2 and wide > 5000
    assert _deletion_masks(frozenset({0b100}), 0b100) == frozenset({0})
    assert _deletion_masks(frozenset({0b0011, 0b0100}), 0b0111) == frozenset({0})
    assert _deletion_masks(frozenset(), 0b1) == frozenset()
    # F = {1, 3} and G = {1, 2, 4} dropped by {3, 4}: F's cut {1} lies in
    # G's cut {1, 2}, with no kept facet to catch it
    assert _deletion_masks(frozenset({0b0101, 0b1011}), 0b1100) == frozenset({0b0011})


@pytest.mark.parametrize("bad", [(0, 1), (-2,), ("a",), (1.5,), (5,), (True, 2), (False,)])
def test_from_facets_rejects_bad_vertices(bad):
    # a vertex must be exactly an int: True once passed as vertex 1
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
        (-1, set(), False),  # a negative vertex count
    ],
)
def test_constructor_validates_masks(n, masks, void):
    with pytest.raises(ValueError):
        SimplicialComplex(n, frozenset(masks), is_void=void)


@pytest.mark.parametrize("build, size, message", [
    (full_simplex, 0, "need n >= 1"),
    (boundary_simplex, 0, "need d >= 1"),
    (cycle, 2, "need m >= 3"),
    (path, 1, "need m >= 2"),
    (complete_graph, 1, "need m >= 2"),
], ids=["full_simplex", "boundary_simplex", "cycle", "path", "complete_graph"])
def test_named_complexes_refuse_sizes_below_their_smallest(build, size, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(size)


@pytest.mark.parametrize("count", [2.0, "3", True], ids=repr)
def test_constructor_refuses_a_vertex_count_that_is_not_an_int(count):
    # as the module door does: 2.0 and "3" failed with TypeError inside the
    # checks, and True was kept as the vertex count
    message = f"^vertex_count {count!r} is not an integer$"
    for build in (lambda: SimplicialComplex(count, frozenset()),
                  lambda: SimplicialComplex.from_facets([(1, 2)], vertex_count=count),
                  lambda: SimplicialComplex.empty(count),
                  lambda: SimplicialComplex.void(count)):
        with pytest.raises(ValueError, match=message):
            build()


def test_derived_complexes_pass_the_validating_constructor():
    # skeleton, link, induced_subcomplex, order_complex, enumerate_complexes
    # and random_complex build their masks unchecked; the constructor must
    # accept each result's masks and rebuild the same complex
    def check(delta):
        rebuilt = SimplicialComplex(delta.vertex_count, delta.facet_masks)
        assert rebuilt == delta and hash(rebuilt) == hash(delta), delta

    for n in range(1, 6):
        for delta in enumerate_complexes(n):
            check(delta)
            for i in range(-1, delta.dimension() + 1):
                check(delta.skeleton(i))
            if n <= 4:
                for face in delta.all_faces():
                    check(delta.link(face))
                for keep in range(1 << n):
                    check(delta.induced_subcomplex(v for v in range(1, n + 1) if keep >> (v - 1) & 1))
    for n in range(1, 10):
        for density in (0.2, 0.5, 0.8):
            for seed in range(4):
                check(random_complex(n, density, seed))
    for _, poset in poset_instances(random_count=20):
        check(order_complex(poset))


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
    # the i-skeleton: the maximal faces of dimension <= i, on the same vertex set
    for i in range(-2, delta.dimension() + 2):
        small = {frozenset(c) for f in maximal for k in range(max(i + 2, 0))
                 for c in combinations(sorted(f), k)} - {frozenset()}
        skel = delta.skeleton(i)
        assert skel.vertex_count == n
        assert skel.facets == {f for f in small if not any(f < g for g in small)}
    # the link of every face: the facets through it, less it, on the other
    # vertices renumbered in order
    faces = {frozenset(c) for f in maximal | {frozenset()} for k in range(len(f) + 1)
             for c in combinations(sorted(f), k)}
    for face in faces:
        new = {v: i + 1 for i, v in enumerate(v for v in range(1, n + 1) if v not in face)}
        lk = delta.link(face)
        assert lk.vertex_count == n - len(face)
        assert lk.facets == {frozenset(new[v] for v in g - face) for g in maximal if face <= g} - {frozenset()}

    # induced subcomplexes and deletions on random vertex subsets; the face
    # ring's restriction renumbers its components and maps the same way
    def induced(keep):
        new = {v: i + 1 for i, v in enumerate(sorted(keep))}
        cut = {frozenset(new[v] for v in f if v in keep) for f in maximal} - {frozenset()}
        return new, {f for f in cut if not any(f < g for g in cut)}

    module = from_complex(delta)
    for _ in range(3):
        keep = {v for v in range(1, n + 1) if rng.random() < 0.5}
        new, want = induced(keep)
        sub = delta.induced_subcomplex(keep)
        assert sub.vertex_count == len(keep) and sub.facets == want
        gone = delta.delete_vertices(set(range(1, n + 1)) - keep)
        assert gone.vertex_count == len(keep) and gone.facets == want
        small = restrict(module, keep)
        assert small.n == len(keep)
        assert small.comp == {frozenset(new[v] for v in f): d
                              for f, d in module.comp.items() if f <= keep}
        assert small.mult == {(frozenset(new[v] for v in f), new[j]): mat
                              for (f, j), mat in module.mult.items() if f <= keep and j in keep}


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
    for keep in [{0, 1}, {5}]:
        with pytest.raises(ValueError, match="^vertex subset out of range$"):
            c4.induced_subcomplex(keep)


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
    with pytest.raises(InvalidFaceError):
        c4.link({0})
    assert c4.contains_face((4, 1)) and c4.contains_face(()) and SimplicialComplex.empty(2).contains_face(())
    assert not any(c4.contains_face(f) for f in [(1, 3), (0,), (5,), (1, 2, 3)])
    assert not SimplicialComplex.void(2).contains_face(())


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


def _face_views(delta):
    """faces, all_faces and face_counts, each as a set of sorted vertex tuples
    or a count dict, with every dimension from -2 up to one past the top."""
    top = max(map(len, delta.facets), default=0)
    by_dim = {tuple(sorted(f)) for i in range(-2, top + 1) for f in delta.faces(i)}
    listed = [tuple(sorted(f)) for f in delta.all_faces()]
    assert len(listed) == len(set(listed))  # each face once
    return by_dim, set(listed), delta.face_counts()


def test_face_walk_matches_oracle():
    for n in range(1, 6):
        for delta in enumerate_complexes(n):
            want = oracle_faces(delta.facets)
            counts = {}
            for f in want:
                counts[len(f) - 1] = counts.get(len(f) - 1, 0) + 1
            assert _face_views(delta) == (want, want, counts)
    for n in (0, 3):
        assert _face_views(SimplicialComplex.empty(n)) == ({()}, {()}, {-1: 1})
        assert _face_views(SimplicialComplex.void(n)) == (set(), set(), {})


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
    ["", "n x\n", "1 2\nn 3\n", "0 1\n", "1 1\n", "n 2\n1 3\n", "1 a\n", "n 1 2\n", "n -1\n"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_facet_file(text)


def test_void_has_no_file_form():
    with pytest.raises(VoidComplexError):
        format_facet_file(SimplicialComplex.void())
