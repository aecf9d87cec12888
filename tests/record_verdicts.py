"""Record the verdict snapshot that ``test_cm.test_verdict_snapshot`` compares.

One row per (complex, field): the l-CM threshold and the reduced homology
dims (degree -1 first) over Q, GF(2) and GF(3), for every complex on at most
four vertices, RP² and the boundary of the 4-simplex.  Run from the repo
root to rewrite the snapshot:

    PYTHONPATH=src python tests/record_verdicts.py

Rewrite it only for a change that is meant to alter a verdict.
"""

from pathlib import Path

from lcmkit.cm import l_cm_threshold
from lcmkit.complexes import SimplicialComplex, boundary_simplex, real_projective_plane
from lcmkit.linalg import FieldSpec, reduced_homology
from lcmkit.sweeps import enumerate_complexes

SNAPSHOT = Path(__file__).parent / "data" / "verdicts.tsv"
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


if __name__ == "__main__":
    SNAPSHOT.write_text(render())
