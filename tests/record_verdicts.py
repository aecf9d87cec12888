"""Record the verdict snapshots that ``test_cm.test_verdict_snapshot`` and
``test_squarefree.test_module_verdict_snapshot`` compare.

``verdicts.tsv``: one row per (complex, field), the l-CM threshold and the
reduced homology dims (degree -1 first) over Q, GF(2) and GF(3), for every
complex on at most four vertices, RP² and the boundary of the 4-simplex.

``module_verdicts.tsv``: one row per (module, field) over the same fields,
the module l-CM threshold, the Koszul Betti table rows (``i:F:beta``) and a
digest of the module file, for the face ring modules of the poset suite with
20 random posets, the face rings of every complex on at most four vertices
and the one-component modules on at most three variables.

Run from the repo root to rewrite both snapshots:

    PYTHONPATH=src python tests/record_verdicts.py

Rewrite them only for a change that is meant to alter a verdict or the
module file form.
"""

import hashlib
from itertools import combinations
from pathlib import Path

from lcmkit.cm import l_cm_threshold
from lcmkit.complexes import SimplicialComplex, boundary_simplex, real_projective_plane
from lcmkit.linalg import FieldSpec, reduced_homology
from lcmkit.posets import face_ring_module
from lcmkit.squarefree import (
    format_module_file,
    from_complex,
    koszul_betti,
    module_l_cm_threshold,
    omega_module,
)
from lcmkit.sweeps import enumerate_complexes, poset_instances

SNAPSHOT = Path(__file__).parent / "data" / "verdicts.tsv"
MODULE_SNAPSHOT = Path(__file__).parent / "data" / "module_verdicts.tsv"
FIELDS = (("q", FieldSpec(0)), ("p:2", FieldSpec(2)), ("p:3", FieldSpec(3)))


def instances():
    yield "empty_n0", SimplicialComplex.empty(0)
    for n in range(1, 5):
        for idx, delta in enumerate(enumerate_complexes(n)):
            yield f"enum_n{n}_{idx}", delta
    yield "rp2", real_projective_plane()
    yield "boundary_simplex_4", boundary_simplex(4)


def render() -> str:
    lines = ["instance\tfacets\tfield\tthreshold\thomology"]
    for name, delta in instances():
        facets = " ".join(
            ",".join(map(str, f)) for f in sorted(sorted(f) for f in delta.facets)
        ) or "-"
        for flag, fieldspec in FIELDS:
            dims = ",".join(map(str, reduced_homology(delta, fieldspec).dims))
            threshold = l_cm_threshold(delta, fieldspec)
            lines.append(f"{name}\t{facets}\t{flag}\t{threshold}\t{dims}")
    return "\n".join(lines) + "\n"


def module_instances():
    for name, poset in poset_instances(random_count=20):
        yield f"face_ring_module({name})", face_ring_module(poset)
    for name, delta in instances():
        if delta.vertex_count <= 4:
            yield f"from_complex({name})", from_complex(delta)
    for n in range(0, 4):
        for k in range(0, n + 1):
            for deg in combinations(range(1, n + 1), k):
                yield f"omega_{n}_{''.join(map(str, deg)) or '0'}", omega_module(n, deg)


def render_modules() -> str:
    lines = ["instance\tfile_sha256\tfield\tthreshold\tbetti"]
    for name, module in module_instances():
        digest = hashlib.sha256(format_module_file(module).encode()).hexdigest()[:16]
        for flag, fieldspec in FIELDS:
            rows = koszul_betti(module, fieldspec).to_tsv().splitlines()[1:]
            betti = " ".join(row.replace("\t", ":") for row in rows) or "-"
            threshold = module_l_cm_threshold(module, fieldspec)
            lines.append(f"{name}\t{digest}\t{flag}\t{threshold}\t{betti}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    SNAPSHOT.write_text(render())
    MODULE_SNAPSHOT.write_text(render_modules())
