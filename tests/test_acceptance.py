"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The heavy sweeps (exhaustive complexes on up to five
vertices, both fields) are shared through module-scoped fixtures.
"""

import time
from itertools import combinations

import pytest

from lcmkit.cm import hochster_betti, is_cohen_macaulay, is_l_cm, max_l
from lcmkit.complexes import (
    boundary_simplex,
    complete_graph,
    cycle,
    path,
    real_projective_plane,
)
from lcmkit.linalg import FieldSpec, reduced_homology
from lcmkit.posets import (
    face_ring_module,
    glued_simplices,
    is_poset_cm,
    is_poset_l_cm,
    order_complex,
)
from lcmkit.squarefree import (
    from_complex,
    is_2cm_via_canonical,
    is_module_l_cm,
    koszul_betti,
    omega_module,
)
from lcmkit.sweeps import (
    complex_scope,
    poset_instances,
    sweep_oracle,
    sweep_remark45,
    sweep_routes,
    sweep_skeleton,
    sweep_thm25,
)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)


def report(num: int, ok: bool, elapsed: float, detail: str = ""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)


@pytest.fixture(scope="module")
def full_scope():
    return complex_scope(max_n=5)


def test_criterion_1_thm25_equivalences(full_scope):
    t0 = time.perf_counter()
    rep = sweep_thm25(scope=full_scope)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 120.0
    report(1, ok, elapsed, f"instances={rep.instances_checked} failures={len(rep.failures)}")
    assert rep.passed, rep.to_text()
    assert elapsed < 120.0, f"thm25 sweep took {elapsed:.1f}s, budget 120s"


def test_criterion_2_koszul_hochster(full_scope):
    t0 = time.perf_counter()
    rep = sweep_oracle(scope=full_scope)
    elapsed = time.perf_counter() - t0
    report(2, rep.passed, elapsed, f"instances={rep.instances_checked}")
    assert rep.passed, rep.to_text()


def test_criterion_3_skeleton_theorems():
    t0 = time.perf_counter()
    rep12 = sweep_skeleton("thm12")
    rep27 = sweep_skeleton("thm27")
    anchors = max_l(boundary_simplex(3), QQ) == 2 and max_l(complete_graph(4), QQ) == 3
    k4_claim = is_l_cm(complete_graph(4), 3, QQ)
    elapsed = time.perf_counter() - t0
    ok = rep12.passed and rep27.passed and anchors and k4_claim
    report(3, ok, elapsed,
           f"instances={rep12.instances_checked + rep27.instances_checked}")
    assert rep12.passed, rep12.to_text()
    assert rep27.passed, rep27.to_text()
    assert anchors and k4_claim


def test_criterion_4_thm44_posets():
    t0 = time.perf_counter()
    rep = sweep_skeleton("thm44")
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 300.0
    report(4, ok, elapsed, f"instances={rep.instances_checked}")
    assert rep.passed, rep.to_text()
    assert elapsed < 300.0, f"thm44 sweep took {elapsed:.1f}s, budget 300s"


def test_criterion_5_remark45():
    t0 = time.perf_counter()
    rep = sweep_remark45()
    checks = []
    for d in (1, 2, 3):
        p = glued_simplices(d, 2)
        checks.append(is_poset_cm(p, QQ))
        checks.append(not is_poset_l_cm(p, 2, QQ))
        checks.append(is_l_cm(order_complex(p), 2, QQ))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and all(checks)
    report(5, ok, elapsed)
    assert rep.passed, rep.to_text()
    assert all(checks)


def test_criterion_6_route_agreement():
    t0 = time.perf_counter()
    rep = sweep_routes()
    elapsed = time.perf_counter() - t0
    report(6, rep.passed, elapsed, f"instances={rep.instances_checked}")
    assert rep.passed, rep.to_text()


def test_criterion_7_rp2_field_sensitivity():
    t0 = time.perf_counter()
    rp2 = real_projective_plane()
    hq = reduced_homology(rp2, QQ).as_dict()
    h2 = reduced_homology(rp2, GF2).as_dict()
    ok = (
        is_cohen_macaulay(rp2, QQ)
        and not is_cohen_macaulay(rp2, GF2)
        and hq == {-1: 0, 0: 0, 1: 0, 2: 0}
        and h2 == {-1: 0, 0: 0, 1: 1, 2: 1}
    )
    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, f"H~(GF2)={h2}")
    assert ok


def test_criterion_8_corollary26():
    t0 = time.perf_counter()
    failures = []
    scope = complex_scope(max_n=4)
    for name, delta in scope:
        for spec in (QQ, GF2):
            if not is_cohen_macaulay(delta, spec):
                continue
            module = from_complex(delta)
            lhs = is_2cm_via_canonical(module, spec)
            rhs = is_module_l_cm(module, 2, spec)
            if lhs != rhs:
                failures.append((name, spec.label(), lhs, rhs))
    anchors = (
        is_2cm_via_canonical(from_complex(cycle(4)), QQ)
        and not is_2cm_via_canonical(from_complex(path(3)), QQ)
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and anchors
    report(8, ok, elapsed, f"failures={len(failures)}")
    assert not failures, failures[:5]
    assert anchors


def test_criterion_9_omega_modules():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 6):
        for k in range(0, n + 1):
            for deg in combinations(range(1, n + 1), k):
                module = omega_module(n, deg)
                for spec in (QQ, GF2):
                    for l in range(1, n + 2):
                        if not is_module_l_cm(module, l, spec):
                            failures.append((n, deg, spec.label(), l))
    elapsed = time.perf_counter() - t0
    report(9, not failures, elapsed, f"failures={len(failures)}")
    assert not failures, failures[:5]
