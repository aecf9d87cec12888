"""The README's examples, run as written.

Every example line whose comment states a literal result (`# True`, `# 2`,
`# false`; for Python, the text before a colon) is checked against what the
line gives; the other lines only have to run.
"""

import ast
import io
import re
import shlex
import sys
from pathlib import Path

from lcmkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# a comment that opens with one of these states a result and must be checked
RESULT_WORD = re.compile(r"(True|False|true|false|-?\d+)\b")


def _blocks(heading: str, lang: str) -> list[str]:
    """The fenced ``lang`` blocks of the section under ``heading``."""
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return re.findall(rf"```{lang}\n(.*?)```", README[start:end], re.S)


def _lines(block: str):
    """(code, comment or None) for each nonblank line."""
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        if code.strip():
            yield code.strip(), comment.strip() or None


def _run_cli(argv, stdin_text):
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        return cli.main(argv), sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def test_library_quick_start():
    (block,) = _blocks("Library quick start", "python")
    namespace: dict = {}
    checked = 0
    for code, comment in _lines(block):
        if comment is None or not RESULT_WORD.match(comment):
            exec(code, namespace)
            continue
        want = ast.literal_eval(comment.split(":", 1)[0])
        assert eval(code, namespace) == want, code
        checked += 1
    assert checked


def test_cli_examples():
    checked = 0
    for block in _blocks("CLI", "sh"):
        for line, comment in _lines(block):
            out = ""
            for command in line.split("|"):
                argv = shlex.split(command)
                assert argv[0] == "lcmkit", line
                code, out = _run_cli(argv[1:], out)
                assert code == cli.EXIT_OK, line
            if comment is not None and RESULT_WORD.match(comment):
                assert out == comment + "\n", line
                checked += 1
    assert checked
