import dataclasses
import io
import re
import sys

import pytest

from lcmkit import cli, sweeps
from lcmkit.complexes import cycle, format_facet_file, parse_facet_file
from lcmkit.posets import format_poset_file, glued_simplices


def run_cli(args, stdin_text=""):
    """Run the CLI in-process, returning (exit_code, stdout, stderr)."""
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = cli.main(args)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


C4_FILE = format_facet_file(cycle(4))


def test_gen_cycle_and_cm_pipeline():
    code, out, _ = run_cli(["gen", "cycle", "-m", "4"])
    assert code == 0
    assert out == "n 4\n1 2\n1 4\n2 3\n3 4\n"
    code, verdict, _ = run_cli(["cm", "--field", "q"], stdin_text=out)
    assert code == 0 and verdict == "true\n"


def test_lcm_max_pipeline():
    code, out, _ = run_cli(["lcm", "--field", "q", "--max"], stdin_text=C4_FILE)
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(["lcm", "--field", "q", "--l", "3"], stdin_text=C4_FILE)
    assert code == 0 and out == "false\n"


def test_rp2_field_sensitivity():
    _, rp2, _ = run_cli(["gen", "rp2"])
    code, out, _ = run_cli(["cm", "--field", "p:2"], stdin_text=rp2)
    assert code == 0 and out == "false\n"
    code, out, _ = run_cli(["cm", "--field", "q"], stdin_text=rp2)
    assert code == 0 and out == "true\n"


def test_poset_lcm_glued():
    _, poset_text, _ = run_cli(["gen", "glued", "-d", "2", "-m", "2"])
    code, out, _ = run_cli(["poset-lcm", "--l", "2", "--field", "q"], stdin_text=poset_text)
    assert code == 0 and out == "false\n"
    code, out, _ = run_cli(["poset-cm", "--field", "q"], stdin_text=poset_text)
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(["poset-lcm", "--max", "--field", "q"], stdin_text=poset_text)
    assert code == 0 and out == "1\n"


def test_betti_tsv():
    code, out, _ = run_cli(["betti", "--field", "q"], stdin_text=C4_FILE)
    assert code == 0
    assert out == "i\tF\tbeta\n0\t-\t1\n1\t1,3\t1\n1\t2,4\t1\n2\t1,2,3,4\t1\n"
    code, canonical, _ = run_cli(["betti", "--field", "q", "--canonical"], stdin_text=C4_FILE)
    assert code == 0 and canonical == out  # C_4's table is complement-symmetric


def test_betti_refuses_oversize_tables():
    code, out, err = run_cli(["betti", "--field", "q"], stdin_text="n 40\n1 2\n")
    assert code == 4 and out == ""
    assert "capped" in err


def test_betti_canonical_requires_cm():
    bad = "n 4\n1 2\n3 4\n"
    code, _, err = run_cli(["betti", "--field", "q", "--canonical"], stdin_text=bad)
    assert code == 4
    assert "Cohen-Macaulay" in err


def test_skeleton_restrict_roundtrip():
    code, out, _ = run_cli(["skeleton", "-i", "1"], stdin_text=format_facet_file(cycle(4)))
    assert code == 0
    assert parse_facet_file(out) == cycle(4).skeleton(1)
    code, out, _ = run_cli(["restrict", "--drop", "1"], stdin_text=C4_FILE)
    assert code == 0
    assert parse_facet_file(out) == cycle(4).delete_vertices({1})
    code, out2, _ = run_cli(["restrict", "--keep", "2,3,4"], stdin_text=C4_FILE)
    assert out2 == out


def test_poset_module_output():
    poset_text = format_poset_file(glued_simplices(1, 2))
    code, out, _ = run_cli(["poset-module"], stdin_text=poset_text)
    assert code == 0
    assert "comp 1,2 2" in out
    assert "map 1 2 1 ; 1" in out


def test_outputs_byte_identical():
    for args, text in [
        (["betti", "--field", "p:2"], C4_FILE),
        (["gen", "glued", "-d", "3", "-m", "2"], ""),
        (["verify", "remark45"], ""),
    ]:
        runs = {run_cli(args, stdin_text=text)[1] for _ in range(3)}
        assert len(runs) == 1


def test_verify_remark45():
    code, out, err = run_cli(["verify", "remark45"])
    assert code == 0
    assert out.endswith("failures=0\tpass\n")
    assert "elapsed" not in out  # timing goes to stderr only
    assert "remark45" in err


def test_verify_oracle_small():
    code, out, _ = run_cli(["verify", "oracle", "--n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("oracle\t") for line in lines)
    assert any(line.startswith("routes\t") for line in lines)


def test_verify_times_each_sweep_once():
    # the CLI times each sweep call; the reports carry no clock of their own
    code, out, err = run_cli(["verify", "oracle", "--n", "3"])
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"# oracle: \d+\.\d\ds", lines[0])
    assert re.fullmatch(r"# routes: \d+\.\d\ds", lines[1])
    assert out == sweeps.sweep_oracle(max_n=3).to_text() + sweeps.sweep_routes().to_text()
    assert "elapsed" not in {f.name for f in dataclasses.fields(sweeps.SweepReport)}


def test_verify_thm25_reports_a_route_disagreement(monkeypatch):
    # a Koszul table that is not CM where the deletion route says CM is a
    # failure line of the report, not an abort with no report
    from lcmkit import squarefree
    from lcmkit.cm import BettiTable

    real = squarefree.koszul_betti

    def with_top_entry(module, fieldspec):
        entries = real(module, fieldspec).entry_masks
        return BettiTable(module.n, {**entries, (module.n, (1 << module.n) - 1): 1})

    monkeypatch.setattr(squarefree, "koszul_betti", with_top_entry)
    code, out, _ = run_cli(["verify", "thm25", "--n", "1"])
    assert code == 1
    lines = out.splitlines()
    assert "thm25\tenum_n1_0\tfield=Q\tdeletion=CM\tkoszul pd=1 expected 0" in lines
    assert "thm25\tcycle_4\tfield=GF(2)\tdeletion=CM\tkoszul pd=4 expected 2" in lines
    assert lines[-1].endswith("\tFAIL")


def test_verify_rejects_oversize_n():
    code, _, err = run_cli(["verify", "thm25", "--n", "9"])
    assert code == 4
    assert "capped" in err


def test_exit_codes():
    code, _, _ = run_cli(["cm", "--field", "q"], stdin_text="garbage here\n")
    assert code == 3
    code, _, _ = run_cli(["cm", "--field", "nope"], stdin_text=C4_FILE)
    assert code == 3
    code, _, _ = run_cli(["poset-cm", "--field", "q"], stdin_text="elements o a\nbottom o\n")
    assert code == 3  # validation failure: a is a second minimal element
    code, _, _ = run_cli(["nonsense"])
    assert code == 2
    code, _, _ = run_cli(["lcm", "--field", "q"], stdin_text=C4_FILE)
    assert code == 2  # needs --l or --max
    code, _, _ = run_cli(["lcm", "--l", "0", "--field", "q"], stdin_text=C4_FILE)
    assert code == 4  # l must be >= 1
    code, _, err = run_cli(["verify", "thm12", "--fields", ","])
    assert (code, err) == (3, "error: need at least one field\n")
    code, _, err = run_cli(["restrict", "--keep", "x"], stdin_text=C4_FILE)
    assert (code, err) == (3, "error: bad vertex list 'x'\n")


def test_missing_file():
    code, _, err = run_cli(["cm", "/nonexistent/path.facets"])
    assert code == 3


def test_one_parser_serves_every_call():
    # the parser is built once per process; each call must answer as it
    # does when it is the first call on a freshly built parser
    calls = [
        (["lcm", "--l", "3"], C4_FILE),
        (["lcm", "--max"], C4_FILE),
        (["lcm", "--l", "3", "--max"], C4_FILE),  # usage error: exclusive options
        (["betti", "--field", "p:2"], C4_FILE),
    ]
    cli.build_parser.cache_clear()
    in_turn = [run_cli(args, text) for args, text in calls]
    assert cli.build_parser.cache_info().misses == 1
    first = []
    for args, text in calls:
        cli.build_parser.cache_clear()
        first.append(run_cli(args, text))
    assert in_turn == first
    assert [code for code, _, _ in first] == [0, 0, 2, 0]
    assert "not allowed with argument" in first[2][2]
