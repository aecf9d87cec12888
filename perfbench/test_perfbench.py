"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke runs use the tiny inputs, so the whole file takes a few seconds.
"""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from lcmkit import cli  # noqa: E402
from lcmkit.cm import hochster_betti  # noqa: E402
from lcmkit.complexes import format_facet_file, real_projective_plane  # noqa: E402
from lcmkit.linalg import FieldSpec, reduced_homology  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(trace: int) -> list[dict]:
    """Tiny run of every workload; the JSON line printed after each workload."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "0", "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    return results


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, like the benchmark's own."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        yield Path(tmp)


@pytest.fixture(scope="module")
def untraced():
    return dict(zip(run.WORKLOADS, smoke(0)))


@pytest.fixture(scope="module")
def traced():
    return dict(zip(run.WORKLOADS, smoke(1)))


def test_every_end_to_end_metric_is_emitted_and_nothing_fails(untraced):
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for result in untraced.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_emitted(traced):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_workloads_separate_the_layers(traced):
    def metrics(workload):
        return {k: v["value"] for k, v in traced[workload]["metrics"].items()}

    for workload in ("big-complexes", "enum-sweep"):
        m = metrics(workload)
        assert not any(v for k, v in m.items() if k.startswith("squarefree.") and k.endswith(".calls"))
    assert metrics("big-complexes")["cli.main.calls"] > 0
    assert metrics("poset-routes")["squarefree.koszul_betti.calls"] > 0
    assert metrics("enum-sweep")["sweeps.sweep_skeleton.calls"] > 0


def test_cli_stdout_is_identical_with_tracing_on_and_off(workdir):
    for instance in ("skel_6_2", "cross_3", "rp2"):
        delta, _ = workloads._big_instance(instance)
        path = workdir / f"{instance}.txt"
        path.write_text(format_facet_file(delta))
        for argv in (["cm", "--field", "p:2"], ["lcm", "--max"], ["betti", "--field", "p:3"]):
            argv = argv[:1] + [str(path)] + argv[1:]
            plain = workloads.run_cli(argv)
            tracer = Tracer()
            tracer.install()
            try:
                traced_out = workloads.run_cli(argv)
            finally:
                tracer.uninstall()
            assert traced_out == plain
            assert tracer.calls["cli.main"] == 1
    assert not hasattr(cli.main, "__wrapped__")


def test_a_removed_name_is_reported_missing(monkeypatch):
    import lcmkit.posets

    monkeypatch.delattr(lcmkit.posets, "order_complex")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["posets.order_complex"]
    assert tracer.metrics()["posets.order_complex.calls"] == 0


def test_names_bound_in_several_modules_are_all_wrapped():
    import lcmkit.cm
    import lcmkit.linalg
    import lcmkit.posets

    tracer = Tracer()
    tracer.install()
    try:
        assert lcmkit.cm.homology_dims_of_facets is lcmkit.linalg.homology_dims_of_facets
        assert hasattr(lcmkit.cm.homology_dims_of_facets, "__wrapped__")
        assert lcmkit.posets.is_cohen_macaulay is lcmkit.cm.is_cohen_macaulay
        assert hasattr(lcmkit.posets.is_cohen_macaulay, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(lcmkit.cm.homology_dims_of_facets, "__wrapped__")


# -- expected outputs ----------------------------------------------------------------


def skeleton_betti_tsv(n: int, k: int) -> str:
    """Closed form: the subcomplex induced on F is the k-skeleton of a simplex,
    whose only homology is C(#F-1, k+1) in degree k."""
    rows = [(0, (), 1)]
    for m in range(k + 2, n + 1):
        rows += [(m - k - 1, f, comb(m - 1, k + 1)) for f in combinations(range(1, n + 1), m)]
    return _tsv(rows)


def cross_polytope_betti_tsv(d: int) -> str:
    """Closed form: only unions of j antipodal pairs have homology (a (j-1)-sphere)."""
    rows = []
    for j in range(d + 1):
        for pairs in combinations(range(d), j):
            rows.append((j, tuple(sorted(v for i in pairs for v in (2 * i + 1, 2 * i + 2))), 1))
    return _tsv(rows)


def _tsv(rows) -> str:
    rows = sorted(rows, key=lambda r: (r[0], r[1]))
    lines = ["i\tF\tbeta"] + [f"{i}\t{','.join(map(str, f)) or '-'}\t{b}" for i, f, b in rows]
    return "\n".join(lines) + "\n"


def recorded():
    for requests in workloads.BIG_REQUESTS.values():
        for instance, field, command in requests:
            if command == "betti":
                yield instance, field


@pytest.mark.parametrize("instance,field", sorted(set(recorded())))
def test_recorded_betti_tables_match_closed_forms(instance, field):
    kind, *params = instance.split("_")
    if kind == "skel":
        want = skeleton_betti_tsv(*map(int, params))
    else:
        want = cross_polytope_betti_tsv(int(params[0]))
    assert workloads.expected_path(instance, field).read_text() == want


def test_skeleton_homology_closed_form():
    for n, k in ((6, 2), (7, 3), (8, 1)):
        dims = reduced_homology(workloads.skeleton(n, k), FieldSpec(3)).as_dict()
        assert dims == {i: comb(n - 1, k + 1) if i == k else 0 for i in range(-1, k + 1)}


def test_relabelled_tsv_is_the_table_of_the_relabelled_complex():
    delta = workloads.cross_polytope(3)
    perm = [4, 6, 1, 3, 5, 2]
    want = hochster_betti(workloads.relabel(delta, perm), FieldSpec(0)).to_tsv()
    assert workloads.relabel_tsv(hochster_betti(delta, FieldSpec(0)).to_tsv(), perm) == want


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_full_workloads_have_enough_requests_for_p90(name, workdir):
    workload = workloads.WORKLOADS[name](run.DEFAULT_SEED, "full", workdir)
    assert len(workload.requests) >= 100


def test_big_complexes_requests_never_repeat_an_input_and_field():
    for requests in workloads.BIG_REQUESTS.values():
        pairs = [(instance, field) for instance, field, _ in requests]
        assert len(pairs) == len(set(pairs))


def test_run_fails_without_lcmkit_sources(workdir):
    bench = workdir / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_cli_output_capture_matches_a_real_stdout(workdir):
    path = workdir / "rp2.txt"
    path.write_text(format_facet_file(real_projective_plane()))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["cm", str(path), "--field", "p:2"])
    assert workloads.run_cli(["cm", str(path), "--field", "p:2"]) == f"exit {code}\n{buf.getvalue()}"
