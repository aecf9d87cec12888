import hashlib

import pytest

from lcmkit.complexes import SimplicialComplex, cycle, full_simplex
from lcmkit.errors import TooLargeError
from lcmkit.linalg import QQ
from lcmkit.sweeps import (
    SweepReport,
    enumerate_complexes,
    poset_instances,
    random_complex,
    standard_instances,
    sweep_oracle,
    sweep_remark45,
    sweep_routes,
    sweep_skeleton,
    sweep_thm25,
)

# frozen counts, checked against a brute-force downward-closure filter below
EXPECTED_COUNTS = {1: 1, 2: 2, 3: 9, 4: 114, 5: 6894}


def test_enumerate_counts_small():
    for n in (1, 2, 3, 4):
        assert sum(1 for _ in enumerate_complexes(n)) == EXPECTED_COUNTS[n]


def test_enumerate_n3_matches_brute_force():
    # independently: all downward-closed families of nonempty subsets of [3]
    # containing every singleton
    from itertools import combinations

    subsets = []
    for k in range(1, 4):
        subsets.extend(frozenset(c) for c in combinations((1, 2, 3), k))
    families = []
    for mask in range(1 << len(subsets)):
        fam = {subsets[i] for i in range(len(subsets)) if mask >> i & 1}
        if not all(frozenset([v]) in fam for v in (1, 2, 3)):
            continue
        if all(f - {v} in fam or len(f) == 1 for f in fam for v in f):
            families.append(frozenset(fam))
    got = {frozenset(d.facets) for d in enumerate_complexes(3)}
    want = {
        frozenset(f for f in fam if not any(f < g for g in fam)) for fam in families
    }
    assert len(families) == 9
    assert got == want


def test_enumerate_unique_and_covering():
    seen = set()
    for delta in enumerate_complexes(4):
        key = delta.facets
        assert key not in seen
        seen.add(key)
        assert delta.vertices == frozenset(range(1, 5))


def test_enumerate_cap():
    with pytest.raises(TooLargeError):
        next(iter(enumerate_complexes(6)))
    with pytest.raises(ValueError, match="^need n >= 1$"):
        next(iter(enumerate_complexes(0)))


def test_random_complex_deterministic_and_dense():
    a = random_complex(6, 0.5, 3)
    b = random_complex(6, 0.5, 3)
    assert a == b
    assert random_complex(5, 1.0, 0) == full_simplex(5)
    assert random_complex(5, 0.0, 0).facets == frozenset(
        frozenset([v]) for v in range(1, 6)
    )
    for n in (0, 13):
        with pytest.raises(ValueError, match="^random complexes support 1 <= n <= 12$"):
            random_complex(n, 0.5, 0)


def test_standard_instances_contents():
    names = dict(standard_instances())
    rp2 = names["rp2_6"]
    assert len(rp2.facets) == 10
    assert rp2.vertex_count == 6
    assert names["cycle_4"].facets == frozenset(
        {frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({1, 4})}
    )
    assert "two_disjoint_edges" in names and "complete_graph_4" in names


def test_poset_instances_deterministic():
    a = poset_instances(random_count=5)
    b = poset_instances(random_count=5)
    assert [n for n, _ in a] == [n for n, _ in b]
    assert all(x == y for (_, x), (_, y) in zip(a, b))
    assert any(name == "glued_2_2" for name, _ in a)


def test_report_text_format():
    r = SweepReport("demo", instances_checked=3)
    r.record("inst", "l=2", True, False)
    text = r.to_text()
    lines = text.splitlines()
    assert lines[0] == "demo\tinst\tl=2\tTrue\tFalse"
    assert lines[1] == "demo\tinstances=3\tfailures=1\tFAIL"
    assert not r.passed
    ok = SweepReport("demo", instances_checked=3)
    assert ok.passed and ok.to_text().splitlines()[0].endswith("pass")


def test_sweep_thm25_small_scope_passes():
    report = sweep_thm25(max_n=3)
    assert report.passed
    assert report.instances_checked > 0


def test_sweeps_serialize_reproducibly():
    a = sweep_thm25(max_n=3, seed=1).to_text()
    b = sweep_thm25(max_n=3, seed=1).to_text()
    assert a == b
    c = sweep_skeleton("thm44", seed=2).to_text()
    d = sweep_skeleton("thm44", seed=2).to_text()
    assert c == d


def test_sweep_oracle_small_scope_passes():
    assert sweep_oracle(max_n=3).passed


def test_sweeps_over_odd_prime_fields():
    from lcmkit.linalg import FieldSpec

    fields = (FieldSpec.prime(3), FieldSpec.prime(5))
    assert sweep_thm25(max_n=3, fields=fields).passed
    assert sweep_oracle(max_n=3, fields=fields).passed
    assert sweep_remark45(fields=fields).passed


def test_sweep_remark45_passes():
    report = sweep_remark45()
    assert report.passed
    assert report.instances_checked == 6  # three d values, two fields


def test_sweep_skeleton_small_scope():
    scope = [("cycle_4", standard_instances()[1][1])]
    named = dict(standard_instances())
    scope = [("cycle_4", named["cycle_4"]), ("boundary_simplex_3", named["boundary_simplex_3"])]
    report = sweep_skeleton("thm12", complexes=scope)
    assert report.passed
    report27 = sweep_skeleton("thm27", complexes=scope)
    assert report27.passed


def test_sweep_skeleton_rejects_unknown_scopes():
    with pytest.raises(ValueError, match="unknown scope"):
        sweep_skeleton("all")


def test_sweep_routes_small():
    posets = poset_instances(random_count=3)[:6]
    assert sweep_routes(posets=posets).passed


def test_sweep_detects_failures():
    # a deliberately broken claim: pretend the two-disjoint-edges complex is CM
    bad = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    report = sweep_oracle(scope=[("bad", bad)])
    assert report.passed  # oracle still holds; now force a fake mismatch
    r = SweepReport("forced")
    r.record("x", "p", 1, 2)
    assert "forced\tx\tp\t1\t2" in r.to_text()


def test_random_complex_is_pinned():
    # the facets of every (n, density, seed) below, hashed in this order;
    # the value was recorded from the frozenset implementation, so the
    # bitmask one draws the same random numbers and keeps the same faces
    digest = hashlib.sha256()
    for n in range(1, 13):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for seed in range(30) if n < 10 else range(3):
                digest.update(repr(sorted(random_complex(n, density, seed).facet_masks)).encode())
    assert digest.hexdigest() == "2c7053b3d48793fa68b66f2a27114abc92faa47d7e3fc7ec0ed0df4a9e6057a4"


def test_enumeration_is_pinned():
    # every complex on 1..5 vertices with its index, hashed in emission order;
    # the value was recorded from the tuple-subset enumeration, so the
    # bitmask one emits the same complexes in the same order
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for index, delta in enumerate(enumerate_complexes(n)):
            digest.update(repr((n, index, sorted(delta.facet_masks))).encode())
            count += 1
    assert count == 7020
    assert digest.hexdigest() == "4585ba40f49ff49db12241171ae8df9f47179cb0c6789a9b82a159a346eb3930"


def test_oracle_sweep_reports_differing_degrees(monkeypatch):
    from lcmkit import squarefree
    from lcmkit.cm import BettiTable

    def off_by_one(module, fieldspec):
        return BettiTable(module.n, {(0, 0): 1, (1, 0b101): 2})

    monkeypatch.setattr(squarefree, "koszul_betti", off_by_one)
    report = sweep_oracle(scope=[("c4", cycle(4))], fields=(QQ,))
    # the Hochster table of C4 has (0,-), (1,{1,3}), (1,{2,4}) and (2,{1,2,3,4})
    assert report.failures == [
        ("c4", "field=Q", "koszul!=hochster at [(1, (1, 3)), (1, (2, 4)), (2, (1, 2, 3, 4))]", "")]
