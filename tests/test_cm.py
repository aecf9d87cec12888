import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmkit import cm, linalg, posets, squarefree
from lcmkit.cm import (
    BettiTable,
    hochster_betti,
    is_cohen_macaulay,
    is_l_cm,
    l_cm_threshold,
    max_l,
)
from lcmkit.complexes import (
    SimplicialComplex,
    _apex,
    _support,
    boundary_simplex,
    complete_graph,
    cycle,
    full_simplex,
    path,
    real_projective_plane,
)
from lcmkit.errors import VoidComplexError
from lcmkit.linalg import FieldSpec, reduced_homology
from lcmkit.sweeps import complex_scope, enumerate_complexes, poset_instances, random_complex, sweep_skeleton
from oracles import deletion_by_whole_family, hochster_betti_by_degree, is_cm_by_definition
from record_verdicts import (
    HOCHSTER_SNAPSHOT,
    SNAPSHOT,
    cone,
    cross_polytope,
    hochster_instances,
    relabel,
    render,
    render_hochster,
)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)

TWO_EDGES = SimplicialComplex.from_facets([(1, 2), (3, 4)])


def test_is_cm_examples():
    assert is_cohen_macaulay(boundary_simplex(3), GF2)
    assert not is_cohen_macaulay(TWO_EDGES, QQ)
    assert is_cohen_macaulay(real_projective_plane(), QQ)
    assert not is_cohen_macaulay(real_projective_plane(), GF2)
    assert is_cohen_macaulay(SimplicialComplex.empty(0), QQ)
    with pytest.raises(VoidComplexError):
        is_cohen_macaulay(SimplicialComplex.void(), QQ)


def test_is_l_cm_examples():
    bd3 = boundary_simplex(3)
    assert is_l_cm(bd3, 2, QQ)
    assert not is_l_cm(bd3, 3, QQ)
    assert is_l_cm(complete_graph(4), 3, QQ)
    for delta in [cycle(4), bd3, TWO_EDGES]:
        assert is_l_cm(delta, 1, QQ) == is_cohen_macaulay(delta, QQ)


def test_l_is_an_int_of_at_least_one():
    # cm._is_l_cm owns the l rule of all three fronts: a float l reached
    # range() and raised TypeError, and a bool answered as if l were 1
    c4 = cycle(4)
    fronts = [(is_l_cm, c4), (posets.is_poset_l_cm, posets.face_poset(c4)),
              (squarefree.is_module_l_cm, squarefree.from_complex(c4))]
    for front, subject in fronts:
        assert front(subject, 2, QQ) and not front(subject, 3, QQ)
        for bad in (2.0, True, "2"):
            with pytest.raises(ValueError, match=f"^l {re.escape(repr(bad))} is not an integer$"):
                front(subject, bad, QQ)
        with pytest.raises(ValueError, match="^l must be >= 1$"):
            front(subject, 0, QQ)


def _threshold_by_definition(delta, fieldspec):
    # the deletion search spelled out with public operations, no threshold cache
    n = delta.vertex_count
    d = delta.dimension()
    for size in range(0, n + 1):
        for drop in combinations(range(1, n + 1), size):
            cut = delta.delete_vertices(drop)
            if cut.dimension() != d or not is_cohen_macaulay(cut, fieldspec):
                return size
    return n + 1


def test_is_l_cm_matches_definition_through_public_ops(fieldspec):
    for delta in [cycle(4), boundary_simplex(2), path(3), TWO_EDGES, complete_graph(4)]:
        n = delta.vertex_count
        threshold = _threshold_by_definition(delta, fieldspec)
        for l in range(1, n + 2):
            # l-CM: no deletion of at most l - 1 vertices fails
            assert is_l_cm(delta, l, fieldspec) == (threshold > min(l - 1, n)), (delta, l)


def test_max_l_examples():
    assert max_l(cycle(4), QQ) == 2
    for d in range(1, 5):
        assert max_l(boundary_simplex(d), QQ) == 2
    assert max_l(boundary_simplex(1), QQ) == 2  # two disjoint points
    assert max_l(complete_graph(4), QQ) == 3
    assert max_l(TWO_EDGES, QQ) == 0
    assert max_l(full_simplex(4), QQ) == 1


def test_deletion_to_empty_complex_fails_dimension(fieldspec):
    # wiping out all vertices leaves the empty complex of dimension -1,
    # which breaks the unchanged-dimension requirement
    point = full_simplex(1)
    assert is_l_cm(point, 1, fieldspec)
    assert not is_l_cm(point, 2, fieldspec)
    # the empty complex itself survives every deletion
    empty = SimplicialComplex.empty(2)
    for l in range(1, 5):
        assert is_l_cm(empty, l, fieldspec)


def test_threshold_consistent_with_is_l_cm(fieldspec):
    for delta in [cycle(5), boundary_simplex(2), full_simplex(3), TWO_EDGES]:
        w = l_cm_threshold(delta, fieldspec)
        for l in range(1, delta.vertex_count + 2):
            assert is_l_cm(delta, l, fieldspec) == (w >= l)


def test_hochster_examples():
    two_pts = boundary_simplex(1)
    t = hochster_betti(two_pts, QQ)
    assert t.entries == {(0, frozenset()): 1, (1, frozenset({1, 2})): 1}
    c4 = hochster_betti(cycle(4), QQ)
    assert c4.entries == {
        (0, frozenset()): 1,
        (1, frozenset({1, 3})): 1,
        (1, frozenset({2, 4})): 1,
        (2, frozenset({1, 2, 3, 4})): 1,
    }
    assert hochster_betti(full_simplex(4), QQ).entries == {(0, frozenset()): 1}


def test_betti_zero_degree_always_present(fieldspec):
    for delta in [cycle(4), path(3), TWO_EDGES]:
        assert hochster_betti(delta, fieldspec).get(0, ()) == 1


def test_restriction_consistency(fieldspec):
    # entries of the restricted complex agree with entries of the big one
    for delta in [cycle(5), real_projective_plane(), complete_graph(4)]:
        n = delta.vertex_count
        big = hochster_betti(delta, fieldspec)
        keep = tuple(range(1, n))  # drop the last vertex
        small = hochster_betti(delta.induced_subcomplex(keep), fieldspec)
        for (i, deg), b in small.entries.items():
            assert big.get(i, deg) == b
        for (i, deg), b in big.entries.items():
            if deg <= frozenset(keep):
                assert small.get(i, deg) == b


def test_cm_iff_projective_dimension(fieldspec):
    # Reisner route against the Betti-table route, exhaustively for n <= 4
    for n in range(1, 5):
        for delta in enumerate_complexes(n):
            d = delta.dimension() + 1
            table = hochster_betti(delta, fieldspec)
            assert is_cohen_macaulay(delta, fieldspec) == (
                table.projective_dimension() == n - d
            ), delta.facets


def test_tsv_format():
    tsv = hochster_betti(cycle(4), QQ).to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "i\tF\tbeta"
    assert lines[1] == "0\t-\t1"
    assert lines[2] == "1\t1,3\t1"
    assert tsv.endswith("\n")


def test_betti_table_validation():
    with pytest.raises(ValueError):
        BettiTable(2, {(0, 0b01): 0})
    with pytest.raises(ValueError):
        BettiTable(2, {(-1, 0b01): 1})
    # a degree is a bitmask below 2^n: not negative, not too large, not a set
    for bad in (-1, 0b100, 1 << 70, frozenset({1}), 1.0):
        with pytest.raises(ValueError):
            BettiTable(2, {(0, bad): 1})
    assert BettiTable(2, {(0, 0b11): 1}).entries == {(0, frozenset({1, 2})): 1}


def test_betti_table_stores_masks():
    t = hochster_betti(cycle(4), QQ)
    assert t.entry_masks == {(0, 0): 1, (1, 0b0101): 1, (1, 0b1010): 1, (2, 0b1111): 1}
    assert t.entries == {
        (0, frozenset()): 1,
        (1, frozenset({1, 3})): 1,
        (1, frozenset({2, 4})): 1,
        (2, frozenset({1, 2, 3, 4})): 1,
    }
    assert t == BettiTable(4, dict(t.entry_masks)) != BettiTable(5, dict(t.entry_masks))
    assert t.get(1, [3, 1]) == 1 and t.get(1, (1, 2)) == 0
    # vertices outside 1..n read 0
    assert t.get(0, (0,)) == 0 and t.get(1, (1, 3, 5)) == 0 and t.get(1, (0, 1, 3)) == 0


def _oracle_betti(delta, p):
    """Betti table recomputed from scratch: SNF homology of induced families."""
    from itertools import combinations as combos

    from oracles import homology_via_snf

    n = delta.vertex_count
    entries = {}
    for size in range(0, n + 1):
        for keep in combos(range(1, n + 1), size):
            kept = set(keep)
            fam = {tuple(sorted(f & kept)) for f in delta.facets}
            fam = {f for f in fam if not any(f != g and set(f) <= set(g) for g in fam)}
            hom = homology_via_snf([f for f in fam if f], p)
            if not any(f for f in fam):
                hom = {-1: 1}  # only the empty face survives
            for j, h in hom.items():
                if h:
                    entries[(size - j - 1, frozenset(keep))] = h
    return entries


@pytest.mark.parametrize("fieldspec", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_hochster_matches_snf_oracle(fieldspec):
    # the pruned walk against the SNF oracle on small complexes, the snapshot
    # instances with at most 7 vertices among them (the cone over RP², whose
    # base has 2-torsion), and against the unpruned per-degree loop on the rest
    small = [("cycle_4", cycle(4)), ("path_3", path(3)), ("two_edges", TWO_EDGES)]
    for name, delta in [*small, *hochster_instances()]:
        got = hochster_betti(delta, fieldspec)
        if delta.vertex_count <= 7:
            assert got.entries == _oracle_betti(delta, fieldspec.characteristic), name
        else:
            assert got.to_tsv() == hochster_betti_by_degree(delta, fieldspec).to_tsv(), name


def test_hochster_walk_skips_cones(monkeypatch):
    # the induced subcomplexes of the cross-polytope boundary that are not
    # cones are the 2^d unions of antipodal pairs; no other degree is looked up
    seen = []

    def lookup(family, fieldspec):
        seen.append(family)
        return linalg.homology_dims_of_facets(family, fieldspec)

    monkeypatch.setattr(cm, "homology_dims_of_facets", lookup)
    for d in range(1, 6):
        seen.clear()
        perm = random.Random(d).sample(range(1, 2 * d + 1), 2 * d)
        hochster_betti(relabel(cross_polytope(d), perm, 2 * d), QQ)
        assert len(seen) == 2**d
        assert not any(_apex(fam) for fam in seen)


def test_is_cm_matches_snf_oracle_exhaustive_n3(fieldspec):
    p = fieldspec.characteristic
    for n in (1, 2, 3):
        for delta in enumerate_complexes(n):
            assert is_cohen_macaulay(delta, fieldspec) == is_cm_by_definition(delta, p)
    for delta in [real_projective_plane(), boundary_simplex(3), TWO_EDGES]:
        assert is_cohen_macaulay(delta, fieldspec) == is_cm_by_definition(delta, p)


# Two triangles sharing one vertex: a cone on that vertex, so its homology
# vanishes, but the vertex's link is two disjoint edges, not CM.
BOWTIE = SimplicialComplex.from_facets([(1, 2, 3), (3, 4, 5)])


def test_reisner_matches_snf_oracle_exhaustive_n5():
    # graphs and point sets read their homology with no link walked; every
    # complex on <= 5 vertices, the bowtie, RP² (2-torsion), the boundary of
    # the 3-simplex and two disjoint edges still read the face-by-face
    # oracle's verdict over Q, GF(2) and GF(3)
    linalg._CACHE.clear()
    named = [BOWTIE, real_projective_plane(), boundary_simplex(3), TWO_EDGES]
    for delta in named + [delta for n in range(1, 6) for delta in enumerate_complexes(n)]:
        for fieldspec in (QQ, GF2, GF3):
            assert is_cohen_macaulay(delta, fieldspec) == is_cm_by_definition(delta, fieldspec.characteristic), \
                (delta, fieldspec)
    assert reduced_homology(BOWTIE, QQ).is_zero()
    assert not is_cohen_macaulay(BOWTIE, QQ)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(6, 7),
    st.floats(0.3, 0.9),
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_verdicts_survive_relabelling(n, density, seed, extra, rng):
    # cache keys drop vertex labels, so a relabelled copy embedded among
    # unused vertices must read the same verdicts, and each must match the
    # face-by-face Reisner oracle
    delta = random_complex(n, density, seed)
    perm = rng.sample(range(1, n + extra + 1), n + extra)
    moved = relabel(delta, perm, n + extra)
    for fieldspec in (QQ, GF2, GF3):
        p = fieldspec.characteristic
        assert is_cohen_macaulay(moved, fieldspec) == is_cm_by_definition(delta, p)
        assert is_cohen_macaulay(delta, fieldspec) == is_cm_by_definition(delta, p)
        assert reduced_homology(moved, fieldspec) == reduced_homology(delta, fieldspec)
        assert l_cm_threshold(moved, fieldspec) == l_cm_threshold(delta, fieldspec)
    rp2 = relabel(real_projective_plane(), perm, n + extra)
    assert is_cohen_macaulay(rp2, QQ)
    assert not is_cohen_macaulay(rp2, GF2)


# The apex link of the cone over RP² is RP², CM over Q but not over GF(2).
# In the relabelled copies the apex is vertex 1 or vertex 4 and RP² keeps its
# vertex order, so their apex links read the very cache entries of RP².  The
# apex lies on more facets than any other vertex, so the invariant key of a
# threshold puts it last: the middle copy shares the thresholds of RP2_CONE
# through that key alone.
RP2_CONE = cone(real_projective_plane())
RP2_CONE_MOVED = relabel(RP2_CONE, [2, 3, 4, 5, 6, 7, 1], 7)
RP2_CONE_MIDDLE = relabel(RP2_CONE, [1, 2, 3, 5, 6, 7, 4], 7)


@pytest.mark.parametrize("order", [(QQ, GF2), (GF2, QQ)], ids=["Q-first", "GF2-first"])
def test_q_verdicts_that_read_rp2_stay_with_q(order):
    # a Q verdict or deletion threshold that reads a torsion-dependent value
    # must not be stored for every field, whichever field asks first
    want = {QQ: (True, 1, True, False, 1), GF2: (False, 0, False, False, 0)}
    middle = RP2_CONE_MIDDLE.facet_masks
    assert linalg._canonical_masks(middle) != RP2_CONE.facet_masks
    assert linalg._invariant_masks(middle) == RP2_CONE.facet_masks
    linalg._CACHE.clear()
    for delta in (RP2_CONE, RP2_CONE_MOVED, RP2_CONE_MIDDLE):
        for f in order:
            assert is_cohen_macaulay(delta, f) == want[f][0]
        for f in order:
            assert max_l(delta, f) == want[f][1]
        for f in order:
            assert is_l_cm(delta, 1, f) == want[f][2]
            assert is_l_cm(delta, 2, f) == want[f][3]
        for f in order:
            assert l_cm_threshold(delta, f) == want[f][4]


def _shuffled(delta, rng):
    """``delta`` with its vertices permuted so that the order of its support
    changes; None when the support has fewer than two vertices."""
    n = delta.vertex_count
    support = sorted(delta.vertices)
    while len(support) > 1:
        perm = rng.sample(range(1, n + 1), n)
        images = [perm[v - 1] for v in support]
        if images != sorted(images):
            return relabel(delta, perm, n)
    return None


def _threshold_instances():
    rng = random.Random(12)
    base = [delta for n in range(1, 5) for delta in enumerate_complexes(n)]
    out = list(base)
    for delta in base:
        n, extra = delta.vertex_count, rng.randint(1, 2)
        out.append(relabel(delta, rng.sample(range(1, n + extra + 1), n), n + extra))
    # the same complexes out of vertex order: only the invariant key of a
    # threshold joins them to the labelling that filled it
    out.extend(moved for delta in base if (moved := _shuffled(delta, rng)) is not None)
    out.extend(SimplicialComplex.empty(k) for k in range(4))
    out.extend([real_projective_plane(), RP2_CONE, RP2_CONE_MOVED, RP2_CONE_MIDDLE])
    return out


def _threshold_answers(delta, kind, fieldspec):
    if kind == "full":
        return {("threshold", fieldspec): l_cm_threshold(delta, fieldspec),
                ("max_l", fieldspec): max_l(delta, fieldspec)}
    return {("is_l_cm", fieldspec, l): is_l_cm(delta, l, fieldspec)
            for l in range(1, delta.vertex_count + 3)}


THRESHOLD_FIELDS = (QQ, GF2, GF3)
THRESHOLD_ORDERS = {
    "cold": None,
    "capped-first": [(kind, f) for kind in ("capped", "full") for f in THRESHOLD_FIELDS],
    "full-first": [(kind, f) for kind in ("full", "capped") for f in THRESHOLD_FIELDS],
    "Q-first": [(kind, f) for f in (QQ, GF2, GF3) for kind in ("full", "capped")],
    "GF2-first": [(kind, f) for f in (GF2, GF3, QQ) for kind in ("capped", "full")],
}


@pytest.mark.parametrize("order", THRESHOLD_ORDERS)
def test_cached_thresholds_match_definition_in_any_order(order):
    # thresholds are cached per canonical family and cap, and certified Q
    # searches answer every field: no fill order may change an answer
    deltas = _threshold_instances()
    linalg._CACHE.clear()
    want = []
    for delta in deltas:
        n = delta.vertex_count
        answers = {}
        for f in THRESHOLD_FIELDS:
            t = _threshold_by_definition(delta, f)
            answers[("threshold", f)] = t
            answers[("max_l", f)] = min(t, n)
            answers.update({("is_l_cm", f, l): t > min(l - 1, n) for l in range(1, n + 3)})
        want.append(answers)
    linalg._CACHE.clear()
    got = [{} for _ in deltas]
    if THRESHOLD_ORDERS[order] is None:
        for delta, answers in zip(deltas, got):
            for kind in ("full", "capped"):
                for f in THRESHOLD_FIELDS:
                    linalg._CACHE.clear()
                    answers.update(_threshold_answers(delta, kind, f))
    else:
        for kind, f in THRESHOLD_ORDERS[order]:
            for delta, answers in zip(deltas, got):
                answers.update(_threshold_answers(delta, kind, f))
    for delta, g, w in zip(deltas, got, want):
        assert g == w, delta


def test_isomorphic_families_share_one_threshold_search(monkeypatch):
    # thresholds are keyed by an isomorphism-invariant vertex order, and a
    # family that is not pure answers 0 before any key is made: the thm12
    # sweep over its n <= 4 scope (Q, GF(2)) runs 48 deletion searches and 92
    # invariant relabellings, where the vertex-order key ran 159 searches and
    # the invariant key alone 61 searches and 159 relabellings
    calls, keys = [], []
    search, key = cm._deletion_threshold, linalg._invariant_masks
    monkeypatch.setattr(cm, "_deletion_threshold", lambda *args: calls.append(args) or search(*args))
    monkeypatch.setattr(linalg, "_invariant_masks", lambda masks: keys.append(masks) or key(masks))
    linalg._CACHE.clear()
    assert sweep_skeleton("thm12", complex_scope(4, 0), (QQ, GF2)).passed
    linalg._CACHE.clear()
    assert len(calls) <= 48
    assert len(keys) <= 92


def _combinations_search(groups, cap, fails):
    # the deletion search before the level walk: each union of k groups, in
    # combinations order, handed to the predicate as a deleted mask
    for size in range(cap + 1):
        for combo in combinations(groups, size):
            if fails(_support(combo)):
                return size
    return cap + 1


def _side_by_side(monkeypatch, owner, whole):
    # every deletion search that ``owner`` runs goes through the level walk
    # and the combinations search, whose state for a deleted mask is
    # whole(root, drop); both must answer alike after visiting the same
    # states in the same order
    real = owner._smallest_failing_deletion
    answers = []

    def search(root, groups, cap, child, fails):
        walked, listed = [], []
        got = real(root, groups, cap, child, lambda state: walked.append(state) or fails(state))
        want = _combinations_search(groups, cap, lambda drop: listed.append(whole(root, drop)) or fails(listed[-1]))
        assert (got, walked) == (want, listed), (root, cap)
        answers.append(got)
        return got

    monkeypatch.setattr(owner, "_smallest_failing_deletion", search)
    return answers


def _level_search_instances():
    rng = random.Random(27)
    out = [delta for n in range(1, 6) for delta in enumerate_complexes(n)]
    # skeleta and cross-polytopes with their vertices shuffled onto one more
    # vertex than they use, so one vertex lies off the support
    shapes = [full_simplex(n).skeleton(d) for n in range(5, 9) for d in range(1, n - 1)]
    shapes += [cross_polytope(d) for d in range(2, 5)]
    for delta in shapes:
        n = delta.vertex_count
        out.append(relabel(delta, rng.sample(range(1, n + 2), n), n + 1))
    return out


def test_level_search_matches_the_combinations_search(monkeypatch):
    # the level walk builds each deletion one group off its parent; on every
    # front it must visit what the whole-family filter gives, in
    # combinations order, and find the same threshold.  Complexes and
    # posets share cm's search, so their answers are told apart by the
    # calls that made them
    searches = _side_by_side(monkeypatch, cm, deletion_by_whole_family)
    of_modules = _side_by_side(monkeypatch, squarefree, lambda root, drop: drop)
    of_complexes, of_posets = [], []
    deltas = _level_search_instances()
    poset_list = [poset for _, poset in poset_instances(random_count=50)]
    linalg._CACHE.clear()
    for f in (QQ, GF2, GF3):
        for delta in deltas:
            l_cm_threshold(delta, f)
            is_l_cm(delta, 2, f)
            if delta.facet_masks:
                squarefree.module_l_cm_threshold(squarefree.from_complex(delta), f)
        of_complexes += searches
        searches.clear()
        for poset in poset_list:
            posets.poset_l_cm_threshold(poset, f)
            posets.is_poset_l_cm(poset, 2, f)
            squarefree.module_l_cm_threshold(posets.face_ring_module(poset), f)
        of_posets += searches
        searches.clear()
    linalg._CACHE.clear()
    for answers in (of_complexes, of_posets, of_modules):
        assert len(set(answers)) >= 4, answers[:20]
    assert len(of_complexes) > 300 and len(of_posets) > 300 and len(of_modules) > 3 * len(deltas)


def _all_verdicts(deltas, fields):
    linalg._CACHE.clear()
    out = [(is_cohen_macaulay(delta, f), l_cm_threshold(delta, f), max_l(delta, f),
            [is_l_cm(delta, l, f) for l in (1, 2, 3)])
           for f in fields for delta in deltas]
    linalg._CACHE.clear()
    return out


def test_purity_rule_changes_no_verdict(monkeypatch):
    # a family that is not pure gets threshold 0 before the cache and Reisner
    # verdict False with no link walked; with the rule off every verdict on
    # n <= 5 is the same
    deltas = [delta for n in range(1, 6) for delta in enumerate_complexes(n)]
    fields = (QQ, GF2, GF3)
    with_rule = _all_verdicts(deltas, fields)
    monkeypatch.setattr(cm, "_is_pure", lambda facet_masks: True)
    assert _all_verdicts(deltas, fields) == with_rule


def test_non_pure_complexes_are_not_cm():
    # the rule's ground: a Cohen-Macaulay complex is pure, by the face-by-face
    # Reisner oracle
    non_pure = [delta for n in range(1, 5) for delta in enumerate_complexes(n) if not delta.is_pure()]
    assert non_pure
    for delta in non_pure:
        for p in (0, 2, 3):
            assert not is_cm_by_definition(delta, p), (delta, p)


def _verdicts(delta):
    return [
        (is_cohen_macaulay(delta, f), l_cm_threshold(delta, f), reduced_homology(delta, f))
        for f in (QQ, GF2, GF3)
    ]


def test_cache_order_does_not_change_verdicts():
    # relabelled copies share cache entries: one labelling's answer must not
    # leak into another's, whatever order fills the caches
    rp2 = real_projective_plane()
    deltas = [
        rp2,
        relabel(rp2, [3, 7, 1, 8, 2, 5], 8),
        rp2.skeleton(1),
        relabel(cycle(5), [2, 4, 6, 8, 9], 9),
        cycle(5),
        path(4),
        relabel(TWO_EDGES, [5, 1, 4, 2], 6),
        TWO_EDGES,
        boundary_simplex(4),
        relabel(boundary_simplex(3), [6, 2, 9, 4], 10),
        full_simplex(7).skeleton(3),
        complete_graph(5),
        RP2_CONE,
        RP2_CONE_MOVED,
        RP2_CONE_MIDDLE,
    ]
    linalg._CACHE.clear()
    cold = [_verdicts(d) for d in deltas]
    warm = [_verdicts(d) for d in deltas[::-1]]
    assert warm == cold[::-1]


def test_hochster_snapshot():
    # Betti tables over Q, GF(2), GF(3) of relabelled cross-polytopes,
    # simplex skeleta, RP² cones and joins, random and empty complexes,
    # against the committed table, recorded with the unpruned per-degree loop
    assert render_hochster().encode() == HOCHSTER_SNAPSHOT.read_bytes()


def test_verdict_snapshot():
    # thresholds and homology over Q, GF(2), GF(3) on every complex with <= 4
    # vertices, RP² and the 4-simplex boundary, against the committed table
    assert render().encode() == SNAPSHOT.read_bytes()
