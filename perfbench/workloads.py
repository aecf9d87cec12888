"""The benchmark's workloads: inputs made from a seed, the request list of
one pass, and the expected output of every request.

Every request is a call into lcmkit's public API that returns text; a
request passes when that text equals its expected text.  Closed forms give
the expected verdicts; Betti tables are compared byte for byte with tables
recorded once with ``record_expected.py`` and relabelled for the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from lcmkit import cli, complexes, posets, sweeps
from lcmkit.complexes import SimplicialComplex, full_simplex, real_projective_plane
from lcmkit.linalg import FieldSpec

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

FIELDS = ("q", "p:2", "p:3")
THM12_PASS = "thm12\tinstances=3\tfailures=0\tpass\n"
ROUTES_PASS = "routes\tinstances=2\tfailures=0\tpass\n"


@dataclass
class Request:
    name: str
    call: Callable[[], str]
    expected: str


@dataclass
class Workload:
    requests: list[Request]
    complexes: list[SimplicialComplex]
    posets: list


# -- instances --------------------------------------------------------------------


def skeleton(n: int, k: int) -> SimplicialComplex:
    """The k-skeleton of the (n-1)-simplex."""
    return full_simplex(n).skeleton(k)


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope; vertices 2i-1 and 2i are antipodal."""
    facets = [[2 * i + 1 + c for i, c in enumerate(pick)] for pick in product((0, 1), repeat=d)]
    return SimplicialComplex.from_facets(facets, vertex_count=2 * d)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    n = a.vertex_count
    return SimplicialComplex.from_facets(
        (set(f) | {v + n for v in g} for f in a.facets for g in b.facets),
        vertex_count=n + b.vertex_count,
    )


def relabel(delta: SimplicialComplex, perm: list[int]) -> SimplicialComplex:
    """Vertex v becomes perm[v - 1]."""
    return SimplicialComplex.from_facets(
        ([perm[v - 1] for v in f] for f in delta.facets), vertex_count=delta.vertex_count
    )


# Named instances of big-complexes: name -> (complex, closed-form facts).
# "cm" maps a field to the verdict, "max" is the `lcm --max` answer.
def _big_instance(name: str) -> tuple[SimplicialComplex, dict]:
    kind, *params = name.split("_")
    if kind == "skel":
        n, k = map(int, params)
        # every skeleton of a simplex is CM; deleting fewer than n-k vertices keeps
        # the dimension, deleting n-k drops it
        return skeleton(n, k), {"cm": dict.fromkeys(FIELDS, True), "max": n - k}
    if kind == "cross":
        return cross_polytope(int(params[0])), {"cm": dict.fromkeys(FIELDS, True), "max": 2}
    if kind == "rp2oct":
        # RP^2 has 2-torsion in H_1: CM over Q and GF(3), not over GF(2)
        return join(real_projective_plane(), cross_polytope(3)), {
            "cm": {"q": True, "p:2": False, "p:3": True}
        }
    if kind == "rp2":
        return real_projective_plane(), {"cm": {"q": True, "p:2": False, "p:3": True}}
    raise ValueError(f"unknown instance {name!r}")


def _rotated(instances: list[str]) -> list[tuple[str, str, str]]:
    """One request per field of each instance, the command rotating, so that
    every command meets every field and instance size."""
    cmds = ("cm", "lcm", "betti")
    return [(name, field, cmds[(i + j) % 3])
            for i, name in enumerate(instances) for j, field in enumerate(FIELDS)]


# (instance, field, command) triples of one pass; no (instance, field) pair
# repeats, so a request never finds its own answer in the caches.  Instances
# where `betti` or `lcm --max` would take seconds get `cm` over every field.
BIG_REQUESTS = {
    "full": _rotated([f"skel_{n}_{k}" for n in range(4, 9) for k in range(1, n - 1)]
                     + ["cross_3", "cross_4", "cross_5"])
    + [(name, field, "cm")
       for name in [f"skel_9_{k}" for k in range(1, 5)]
       + ["skel_10_1", "skel_10_2", "skel_11_1", "skel_11_2", "skel_12_1", "skel_12_2",
          "skel_13_1", "rp2oct"]
       for field in FIELDS],
    "tiny": _rotated(["skel_6_2", "cross_3"]) + [("rp2", field, "cm") for field in FIELDS],
}

COMMANDS = {"cm": ["cm"], "lcm": ["lcm", "--max"], "betti": ["betti"]}


def expected_path(instance: str, field: str) -> Path:
    return EXPECTED_DIR / f"betti_{instance}_{field.replace(':', '')}.tsv"


def relabel_tsv(tsv: str, perm: list[int]) -> str:
    """A Betti TSV of the relabelled complex, from the TSV of the original."""
    header, *rows = tsv.splitlines()
    out = []
    for row in rows:
        i, deg, beta = row.split("\t")
        face = () if deg == "-" else tuple(sorted(perm[int(v) - 1] for v in deg.split(",")))
        out.append((int(i), face, beta))
    out.sort(key=lambda t: (t[0], t[1]))
    lines = [header] + [f"{i}\t{','.join(map(str, f)) or '-'}\t{b}" for i, f, b in out]
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> str:
    """`lcmkit <argv>` in-process; the text is the exit code line and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def big_complexes(seed: int, size: str, workdir: Path) -> Workload:
    """CLI requests on facet files written here; the seed relabels the vertices
    of the cross-polytopes.  Skeleta are symmetric under relabelling, and the
    RP^2 join keeps its labels because the cost of its Reisner check swings by
    a third with the labelling, which would drown every other change."""
    rng = random.Random(seed)
    requests, deltas, files = [], [], {}
    for instance, field, command in BIG_REQUESTS[size]:
        if instance not in files:
            delta, facts = _big_instance(instance)
            perm = list(range(1, delta.vertex_count + 1))
            if instance.startswith("cross"):
                rng.shuffle(perm)
                delta = relabel(delta, perm)
            path = workdir / f"{instance}.txt"
            # looked up at call time, so that a traced pass sees it
            path.write_text(complexes.format_facet_file(delta), encoding="utf-8")
            files[instance] = (path, facts, perm)
            deltas.append(delta)
        path, facts, perm = files[instance]
        if command == "cm":
            answer = "true\n" if facts["cm"][field] else "false\n"
        elif command == "lcm":
            answer = f"{facts['max']}\n"
        else:
            answer = relabel_tsv(expected_path(instance, field).read_text(encoding="utf-8"), perm)
        argv = COMMANDS[command] + [str(path), "--field", field]
        requests.append(Request(f"{command} {instance} {field}",
                                lambda argv=argv: run_cli(argv), f"exit 0\n{answer}"))
    return Workload(requests, deltas, [])


def _fieldspecs() -> tuple[FieldSpec, ...]:
    return tuple(FieldSpec.parse(f) for f in FIELDS)


# enum-sweep: every complex on up to max_n vertices, then seeded random ones
ENUM_SIZES = {"full": (5, 240), "tiny": (3, 6)}
RANDOM_SHAPES = [(n, density) for n in (6, 7, 8) for density in (0.3, 0.5, 0.7)]


def enum_sweep(seed: int, size: str, workdir: Path) -> Workload:
    max_n, random_count = ENUM_SIZES[size]
    fields = _fieldspecs()
    instances = [(f"enum_n{n}_{i}", delta)
                 for n in range(1, max_n + 1)
                 for i, delta in enumerate(sweeps.enumerate_complexes(n))]
    rng = random.Random(seed)
    for k in range(random_count):
        n, density = RANDOM_SHAPES[k % len(RANDOM_SHAPES)]
        s = rng.randrange(2**31)
        instances.append((f"random_n{n}_d{density}_s{s}", sweeps.random_complex(n, density, s)))
    requests = [
        Request(name, lambda one=[(name, delta)]: sweeps.sweep_skeleton(
            "thm12", complexes=one, fields=fields).to_text(), THM12_PASS)
        for name, delta in instances
    ]
    return Workload(requests, [delta for _, delta in instances], [])


# poset-routes: the fixed posets of sweeps.poset_instances (face posets, glued
# simplices) plus seeded random simplicial posets.  The random shapes leave out
# sweeps' (6 atoms, rank 2), whose cost varies so much from seed to seed that
# it would set the spread of the whole workload.
POSET_SIZES = {"full": (20, 100), "tiny": (6, 3)}
POSET_SHAPES = [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3)]


def poset_routes(seed: int, size: str, workdir: Path) -> Workload:
    fixed_count, random_count = POSET_SIZES[size]
    fields = _fieldspecs()[:2]
    chosen = sweeps.poset_instances(random_count=0)[:fixed_count]
    rng = random.Random(seed)
    for k in range(random_count):
        n, rank = POSET_SHAPES[k % len(POSET_SHAPES)]
        s = rng.randrange(2**31)
        chosen.append((f"random_poset_n{n}_r{rank}_s{s}", posets.random_simplicial_poset(n, rank, s)))
    requests = [
        Request(name, lambda one=[(name, poset)]: sweeps.sweep_routes(
            posets=one, fields=fields).to_text(), ROUTES_PASS)
        for name, poset in chosen
    ]
    return Workload(requests, [], [poset for _, poset in chosen])


WORKLOADS = {
    "big-complexes": big_complexes,
    "enum-sweep": enum_sweep,
    "poset-routes": poset_routes,
}


def face_total(delta: SimplicialComplex) -> int:
    return sum(delta.face_counts().values())


def summary(workload: Workload) -> dict:
    """Request count and input sizes: vertices, facets and faces (cells for posets)."""
    cx, ps = workload.complexes, workload.posets
    return {
        "requests": len(workload.requests),
        "instances": len(cx) + len(ps),
        "max_vertices": max([d.vertex_count for d in cx] + [p.vertex_count for p in ps]),
        "facets": sum(len(d.facets) for d in cx)
        + sum(sum(1 for x in range(p.size) if not p.upper_covers(x)) for p in ps),
        "faces": sum(face_total(d) for d in cx) + sum(p.size for p in ps),
    }
