"""Instance generation and exhaustive verification sweeps.

Each sweep walks the instances it is given over the fields it is given,
evaluates both sides of an equivalence (or a claimed implication) by
independent routes, and collects any disagreement into a report.  An empty
failure list means the sweep passed.  A sweep has no default scope: the
CLI's ``verify`` owns the default n, seed and fields and builds the
instance lists with ``complex_scope`` and ``poset_instances``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from . import cm as cmod
from . import posets as pmod
from . import squarefree as sqmod
from .complexes import (
    SimplicialComplex,
    _bits,
    _face_key,
    _maximal_masks,
    _vertices,
    boundary_simplex,
    complete_graph,
    cycle,
    full_simplex,
    path,
    real_projective_plane,
)
from .errors import TooLargeError
from .linalg import FieldSpec

EXHAUSTIVE_CAP = 5


@dataclass
class SweepReport:
    """Outcome of one verification sweep."""

    theorem_id: str
    instances_checked: int = 0
    failures: list[tuple[str, str, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, instance: str, params: str, lhs, rhs) -> None:
        self.failures.append((instance, params, str(lhs), str(rhs)))

    def to_text(self) -> str:
        """Deterministic report: one tab-separated line per failure plus a summary."""
        lines = [
            f"{self.theorem_id}\t{inst}\t{params}\t{lhs}\t{rhs}"
            for inst, params, lhs, rhs in self.failures
        ]
        status = "pass" if self.passed else "FAIL"
        lines.append(
            f"{self.theorem_id}\tinstances={self.instances_checked}"
            f"\tfailures={len(self.failures)}\t{status}"
        )
        return "\n".join(lines) + "\n"


# -- instance generation ---------------------------------------------------------


def enumerate_complexes(n: int):
    """All simplicial complexes on exactly n labeled vertices (every vertex a
    face), each emitted once.  Exhaustive enumeration is capped at n = 5."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > EXHAUSTIVE_CAP:
        raise TooLargeError(
            f"exhaustive enumeration is capped at n = {EXHAUSTIVE_CAP}; "
            "use random_complex beyond that"
        )
    # A complex with all n vertices is a downward-closed family of subsets of
    # size >= 2 together with all singletons; enumerate those families.  A
    # subset can be added once its boundary faces are chosen, and a pair's
    # two vertices always are.  Each family is emitted, then grown by each
    # addable later subset, the last first: the lexicographic order in which
    # leaving a subset out comes before adding it.
    subs = sorted((m for m in range(1 << n) if m.bit_count() >= 2), key=_face_key)
    boundary = [[m ^ b for b in _bits(m)] for m in subs]
    chosen = {1 << b for b in range(n)}
    facets = set(chosen)

    def rec(i: int):
        # facets are kept maximal as subsets are added: an antichain
        yield SimplicialComplex._from_masks(n, frozenset(facets))
        for j in range(len(subs) - 1, i - 1, -1):
            if all(f in chosen for f in boundary[j]):
                # subsets come by size, so a smaller face of s lies in a
                # chosen boundary face: only those can be facets under s
                s = subs[j]
                covered = facets.intersection(boundary[j])
                chosen.add(s)
                facets.difference_update(covered)
                facets.add(s)
                yield from rec(j + 1)
                chosen.remove(s)
                facets.remove(s)
                facets.update(covered)

    yield from rec(0)


def random_complex(n: int, density: float, seed: int) -> SimplicialComplex:
    """Seeded random complex on n vertices: each subset is kept with the given
    probability once all its boundary faces are kept; density 1 gives the
    full simplex."""
    if not 1 <= n <= 12:
        raise ValueError("random complexes support 1 <= n <= 12")
    rng = random.Random(seed)
    singletons = [1 << b for b in range(n)]
    faces = set(singletons)
    for k in range(2, n + 1):
        for combo in combinations(singletons, k):
            f = sum(combo)
            if all(f ^ b in faces for b in combo) and rng.random() < density:
                faces.add(f)
    # _maximal_masks gives the antichain; every kept face is nonempty
    return SimplicialComplex._from_masks(n, _maximal_masks(faces))


def standard_instances() -> list[tuple[str, SimplicialComplex]]:
    """Named desk-scale instances used throughout the sweeps."""
    out: list[tuple[str, SimplicialComplex]] = []
    for m in range(3, 7):
        out.append((f"cycle_{m}", cycle(m)))
    for d in range(1, 5):
        out.append((f"boundary_simplex_{d}", boundary_simplex(d)))
    out.append(("complete_graph_4", complete_graph(4)))
    out.append(("path_3", path(3)))
    out.append(("path_4", path(4)))
    out.append(("rp2_6", real_projective_plane()))
    out.append(("two_disjoint_edges", SimplicialComplex.from_facets([(1, 2), (3, 4)])))
    for m in range(1, 6):
        out.append((f"full_simplex_{m}", full_simplex(m)))
    return out


def poset_instances(random_count: int = 50, base_seed: int = 0) -> list[tuple[str, pmod.SimplicialPoset]]:
    """The poset sweep suite: face posets of small standard complexes, glued
    top cells over a simplex boundary, and seeded random simplicial posets."""
    out: list[tuple[str, pmod.SimplicialPoset]] = []
    named = dict(standard_instances())
    for name in ("cycle_3", "cycle_4", "cycle_5", "path_3", "path_4", "two_disjoint_edges",
                 "boundary_simplex_2", "boundary_simplex_3", "full_simplex_2",
                 "full_simplex_3", "complete_graph_4"):
        out.append((f"face_poset({name})", pmod.face_poset(named[name])))
    for d in range(1, 4):
        for m in range(1, 4):
            out.append((f"glued_{d}_{m}", pmod.glued_simplices(d, m)))
    params = [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]
    for k in range(random_count):
        n, rk = params[k % len(params)]
        seed = base_seed + k
        out.append(
            (f"random_poset_n{n}_r{rk}_s{seed}", pmod.random_simplicial_poset(n, rk, seed))
        )
    return out


def _enumerated(max_n: int):
    for n in range(1, max_n + 1):
        for idx, delta in enumerate(enumerate_complexes(n)):
            yield f"enum_n{n}_{idx}", delta


def complex_scope(max_n: int, base_seed: int) -> list[tuple[str, SimplicialComplex]]:
    """The complex sweep suite: exhaustive up to max_n, the standard names,
    and five seeded random complexes on 6 vertices at density 0.5."""
    return [*_enumerated(max_n), *standard_instances(),
            *((f"random_n6_d0.5_s{s}", random_complex(6, 0.5, s))
              for s in range(base_seed, base_seed + 5))]


# -- equivalence sweeps ------------------------------------------------------------


def sweep_thm25(complexes, fields: tuple[FieldSpec, ...]) -> SweepReport:
    """For every Cohen-Macaulay face ring among the complexes and every l in
    2..n+1, checks that the deletion definition of l-CM, the Betti vanishing
    pattern, and the canonical-dual vanishing pattern agree."""
    report = SweepReport("thm25")
    for name, delta in complexes:
        n = delta.vertex_count
        d = delta.dimension() + 1
        module = None  # built for the first field over which delta is CM
        for spec in fields:
            report.instances_checked += 1
            # the empty deletion keeps the dimension, so 0 means not CM
            threshold = cmod.l_cm_threshold(delta, spec)
            if threshold == 0:
                continue
            if module is None:
                module = sqmod.from_complex(delta)
            table = sqmod.koszul_betti(module, spec)
            pd = table.projective_dimension()
            if pd != n - d:  # the routes disagree on CM: there is no dual to read
                report.record(name, f"field={spec.label()}", "deletion=CM", f"koszul pd={pd} expected {n - d}")
                continue
            dual = sqmod.canonical_betti(table, n, d)
            for l in range(2, n + 2):
                lhs = threshold >= l
                mid = sqmod.thm25_condition_ii(table, n, d, l)
                rhs = sqmod.thm25_condition_iii(dual, l)
                if not (lhs == mid == rhs):
                    report.record(
                        name,
                        f"field={spec.label()} l={l}",
                        f"deletion={lhs}",
                        f"betti={mid} dual={rhs}",
                    )
    return report


def sweep_oracle(complexes, fields: tuple[FieldSpec, ...]) -> SweepReport:
    """Koszul-homology Betti numbers of the face ring against the
    induced-subcomplex-homology route, entrywise."""
    report = SweepReport("oracle")
    for name, delta in complexes:
        module = sqmod.from_complex(delta)
        for spec in fields:
            report.instances_checked += 1
            koszul = sqmod.koszul_betti(module, spec)
            hochster = cmod.hochster_betti(delta, spec)
            if koszul != hochster:
                left, right = koszul.entry_masks, hochster.entry_masks
                diff = sorted((i, tuple(_vertices(f))) for i, f in left.keys() | right.keys()
                              if left.get((i, f)) != right.get((i, f)))
                report.record(name, f"field={spec.label()}", f"koszul!=hochster at {diff}", "")
    return report


def sweep_routes(posets, fields: tuple[FieldSpec, ...]) -> SweepReport:
    """Topological route (order complex of every atom deletion) against the
    algebraic route (face ring as a squarefree module), all l up to #V + 1;
    plus: a 2-CM poset has a 2-CM order complex."""
    report = SweepReport("routes")
    for name, poset in posets:
        module = pmod.face_ring_module(poset)
        oc = None  # the order complex, built for the first field that needs it
        nv = poset.vertex_count
        for spec in fields:
            report.instances_checked += 1
            threshold = pmod.poset_l_cm_threshold(poset, spec)
            module_threshold = sqmod.module_l_cm_threshold(module, spec)
            for l in range(1, nv + 2):
                lhs = threshold >= l
                rhs = module_threshold >= l
                if lhs != rhs:
                    report.record(name, f"field={spec.label()} l={l}",
                                  f"poset={lhs}", f"module={rhs}")
            if threshold >= 2:
                if oc is None:
                    oc = pmod.order_complex(poset)
                if not cmod.is_l_cm(oc, 2, spec):
                    report.record(name, f"field={spec.label()}",
                                  "poset 2-CM", "order complex not 2-CM")
    return report


# -- skeleton sweeps -----------------------------------------------------------------


def sweep_skeleton(scope: str, complexes, fields: tuple[FieldSpec, ...]) -> SweepReport:
    """Skeleton theorems of complexes.  scope selects the slice:

    - "thm12": for complexes certified l-CM, the codimension-1 skeleton is
      (l+1)-CM (deletion route).
    - "thm27": for complexes and omega-type modules certified l-CM of
      dimension d, every module skeleton at i < d is (l+d-i)-CM; complex
      skeletons are also checked through the deletion route.
    """
    if scope not in ("thm12", "thm27"):
        raise ValueError(f"unknown scope {scope!r}")
    report = SweepReport(scope)

    for name, delta in complexes:
        dim = delta.dimension()
        claims = [dim - 1] if scope == "thm12" else range(0, dim)
        # claimed skeletons, built for the first field that needs them
        skeletons = module_skeletons = None
        for spec in fields:
            report.instances_checked += 1
            l = cmod.max_l(delta, spec)
            if l < 1 or dim < 1:
                continue
            if skeletons is None:
                skeletons = [(i, delta.skeleton(i)) for i in claims]
            for i, skel in skeletons:
                want = l + dim - i
                if not cmod.is_l_cm(skel, want, spec):
                    report.record(name, f"field={spec.label()} i={i}",
                                  f"claim {want}-CM", "skeleton fails (deletion route)")
            if scope == "thm27":
                d = dim + 1
                if module_skeletons is None:
                    module = sqmod.from_complex(delta)
                    module_skeletons = [sqmod.module_skeleton(module, i) for i in range(0, d)]
                for i, skel in enumerate(module_skeletons):
                    want = l + d - i
                    if not sqmod.is_module_l_cm(skel, want, spec):
                        report.record(name, f"field={spec.label()} module i={i}",
                                      f"claim {want}-CM", "module skeleton fails")

    if scope == "thm27":
        # one-component modules: l-CM for every l, so any skeleton claim holds
        for n in range(1, 5):
            for k in range(0, n + 1):
                for combo in combinations(range(1, n + 1), k):
                    module = sqmod.omega_module(n, combo)
                    name = f"omega_{n}_{''.join(map(str, combo)) or '0'}"
                    d = k
                    for spec in fields:
                        report.instances_checked += 1
                        l = sqmod.max_module_l(module, spec)
                        for i in range(0, d):
                            skel = sqmod.module_skeleton(module, i)
                            if skel.is_zero:
                                continue
                            if not sqmod.is_module_l_cm(skel, l + d - i, spec):
                                report.record(name, f"field={spec.label()} i={i}",
                                              f"claim {l + d - i}-CM", "module skeleton fails")

    return report


def sweep_thm44(posets, fields: tuple[FieldSpec, ...]) -> SweepReport:
    """For posets certified l-CM of rank d, every rank skeleton at
    1 <= i < d is (l+d-i)-CM."""
    report = SweepReport("thm44")
    for name, poset in posets:
        d = poset.max_rank()
        for spec in fields:
            report.instances_checked += 1
            l = pmod.max_poset_l(poset, spec)
            if l < 1:
                continue
            for i in range(1, d):
                want = l + d - i
                if not pmod.is_poset_l_cm(pmod.poset_skeleton(poset, i), want, spec):
                    report.record(name, f"field={spec.label()} i={i}",
                                  f"claim {want}-CM", "poset skeleton fails")
    return report


def sweep_remark45(fields: tuple[FieldSpec, ...]) -> SweepReport:
    """Two top cells glued along a simplex boundary: Cohen-Macaulay, never
    2-CM (every atom deletion drops the rank), while the order complex is
    2-CM; for d = 1, 2, 3."""
    report = SweepReport("remark45")
    for d in range(1, 4):
        poset = pmod.glued_simplices(d, 2)
        name = f"glued_{d}_2"
        for spec in fields:
            report.instances_checked += 1
            if not pmod.is_poset_cm(poset, spec):
                report.record(name, f"field={spec.label()}", "expected CM", "not CM")
            if pmod.is_poset_l_cm(poset, 2, spec):
                report.record(name, f"field={spec.label()}", "expected not 2-CM", "2-CM")
            for v in range(1, poset.vertex_count + 1):
                cut = pmod.delete_atoms(poset, [v])
                if cut.max_rank() >= poset.max_rank():
                    report.record(name, f"field={spec.label()} atom={v}",
                                  "expected rank drop", f"rank {cut.max_rank()}")
            if not cmod.is_l_cm(pmod.order_complex(poset), 2, spec):
                report.record(name, f"field={spec.label()}",
                              "expected 2-CM order complex", "not 2-CM")
    return report
