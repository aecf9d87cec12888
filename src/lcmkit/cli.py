"""Command-line interface.

Verdict subcommands print `true`/`false` (or an integer for `--max`) and
exit 0 either way; exit 1 is reserved for verification sweeps that found a
counterexample, 2 for usage errors, 3 for parse/validation errors, and 4 for
violated preconditions such as requesting the canonical Betti table of a
non-Cohen-Macaulay input.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import cm as cmod
from . import complexes as cxmod
from . import posets as pmod
from . import squarefree as sqmod
from . import sweeps
from .errors import (
    InvalidFaceError,
    InvalidModuleError,
    LcmkitError,
    ParseError,
    RequiresCohenMacaulayError,
    TooLargeError,
    VoidComplexError,
    ZeroModuleError,
)
from .linalg import FieldSpec

EXIT_OK = 0
EXIT_SWEEP_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4

# Every other error a subcommand raises is a parse or validation error.
_PRECONDITION_ERRORS = (
    VoidComplexError,
    InvalidFaceError,
    ZeroModuleError,
    InvalidModuleError,
    RequiresCohenMacaulayError,
    TooLargeError,
    ValueError,
)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _field(flag: str) -> FieldSpec:
    try:
        return FieldSpec.parse(flag)
    except ValueError as e:
        raise ParseError(str(e)) from None


def _fields(flag: str) -> tuple[FieldSpec, ...]:
    specs = tuple(_field(part) for part in flag.split(",") if part)
    if not specs:
        raise ParseError("need at least one field")
    return specs


def _vertex_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"bad vertex list {text!r}") from None


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


# -- subcommand handlers -----------------------------------------------------------


def _cmd_cm(args) -> int:
    delta = cxmod.parse_facet_file(_read_input(args.file))
    verdict = cmod.is_cohen_macaulay(delta, _field(args.field))
    sys.stdout.write(_bool_word(verdict) + "\n")
    return EXIT_OK


def _cmd_lcm(args) -> int:
    delta = cxmod.parse_facet_file(_read_input(args.file))
    spec = _field(args.field)
    if args.max:
        sys.stdout.write(f"{cmod.max_l(delta, spec)}\n")
    else:
        sys.stdout.write(_bool_word(cmod.is_l_cm(delta, args.l, spec)) + "\n")
    return EXIT_OK


def _cmd_betti(args) -> int:
    delta = cxmod.parse_facet_file(_read_input(args.file))
    spec = _field(args.field)
    table = cmod.hochster_betti(delta, spec)
    if args.canonical:
        table = sqmod.canonical_betti(table, delta.vertex_count, delta.dimension() + 1)
    sys.stdout.write(table.to_tsv())
    return EXIT_OK


def _cmd_skeleton(args) -> int:
    delta = cxmod.parse_facet_file(_read_input(args.file))
    sys.stdout.write(cxmod.format_facet_file(delta.skeleton(args.i)))
    return EXIT_OK


def _cmd_restrict(args) -> int:
    delta = cxmod.parse_facet_file(_read_input(args.file))
    if args.keep is not None:
        out = delta.induced_subcomplex(_vertex_list(args.keep))
    else:
        out = delta.delete_vertices(_vertex_list(args.drop))
    sys.stdout.write(cxmod.format_facet_file(out))
    return EXIT_OK


def _cmd_poset_cm(args) -> int:
    poset = pmod.parse_poset_file(_read_input(args.file))
    sys.stdout.write(_bool_word(pmod.is_poset_cm(poset, _field(args.field))) + "\n")
    return EXIT_OK


def _cmd_poset_lcm(args) -> int:
    poset = pmod.parse_poset_file(_read_input(args.file))
    spec = _field(args.field)
    if args.max:
        sys.stdout.write(f"{pmod.max_poset_l(poset, spec)}\n")
    else:
        sys.stdout.write(_bool_word(pmod.is_poset_l_cm(poset, args.l, spec)) + "\n")
    return EXIT_OK


def _cmd_poset_module(args) -> int:
    poset = pmod.parse_poset_file(_read_input(args.file))
    sys.stdout.write(sqmod.format_module_file(pmod.face_ring_module(poset)))
    return EXIT_OK


def _cmd_gen(args) -> int:
    kind = args.shape
    if kind == "boundary-simplex":
        sys.stdout.write(cxmod.format_facet_file(cxmod.boundary_simplex(args.d)))
    elif kind == "cycle":
        sys.stdout.write(cxmod.format_facet_file(cxmod.cycle(args.m)))
    elif kind == "rp2":
        sys.stdout.write(cxmod.format_facet_file(cxmod.real_projective_plane()))
    elif kind == "glued":
        sys.stdout.write(pmod.format_poset_file(pmod.glued_simplices(args.d, args.m)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    fields = _fields(args.fields)
    if args.n > sweeps.EXHAUSTIVE_CAP:
        raise TooLargeError(
            f"--n is capped at {sweeps.EXHAUSTIVE_CAP} for exhaustive sweeps"
        )
    if args.sweep == "thm25":
        runs = [lambda: sweeps.sweep_thm25(fields=fields, max_n=args.n, seed=args.seed)]
    elif args.sweep == "oracle":
        runs = [lambda: sweeps.sweep_oracle(fields=fields, max_n=args.n, seed=args.seed),
                lambda: sweeps.sweep_routes(fields=fields, seed=args.seed)]
    elif args.sweep in ("thm12", "thm27", "thm44"):
        runs = [lambda: sweeps.sweep_skeleton(args.sweep, fields=fields, max_n=args.n,
                                              seed=args.seed)]
    elif args.sweep == "remark45":
        runs = [lambda: sweeps.sweep_remark45(fields=fields)]
    passed = True
    for sweep in runs:
        t0 = time.perf_counter()
        report = sweep()
        elapsed = time.perf_counter() - t0
        sys.stdout.write(report.to_text())
        sys.stderr.write(f"# {report.theorem_id}: {elapsed:.2f}s\n")
        passed = passed and report.passed
    return EXIT_OK if passed else EXIT_SWEEP_FAILED


# -- parser -------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs far
    more than a parse."""
    parser = argparse.ArgumentParser(
        prog="lcmkit",
        description="Cohen-Macaulay and l-CM checks for complexes, squarefree "
        "modules, and simplicial posets; theorem verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", nargs="?", default="-", help="input file, `-` for stdin")

    def add_field(p):
        p.add_argument("--field", default="q", help="coefficient field: q or p:<prime>")

    p = sub.add_parser("cm", help="Cohen-Macaulay verdict for a facet file")
    add_input(p)
    add_field(p)
    p.set_defaults(func=_cmd_cm)

    p = sub.add_parser("lcm", help="l-CM verdict or the maximal l")
    add_input(p)
    add_field(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int, help="check this l")
    group.add_argument("--max", action="store_true", help="print the largest l")
    p.set_defaults(func=_cmd_lcm)

    p = sub.add_parser("betti", help="Betti table of the face ring as TSV")
    add_input(p)
    add_field(p)
    p.add_argument("--canonical", action="store_true",
                   help="table of the canonical module (requires CM)")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("skeleton", help="facet file of the i-skeleton")
    add_input(p)
    p.add_argument("-i", type=int, required=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("restrict", help="induced subcomplex (re-indexed)")
    add_input(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--keep", help="comma-separated vertices to keep")
    group.add_argument("--drop", help="comma-separated vertices to delete")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("poset-cm", help="Cohen-Macaulay verdict for a poset file")
    add_input(p)
    add_field(p)
    p.set_defaults(func=_cmd_poset_cm)

    p = sub.add_parser("poset-lcm", help="l-CM verdict for a poset file")
    add_input(p)
    add_field(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int)
    group.add_argument("--max", action="store_true")
    p.set_defaults(func=_cmd_poset_lcm)

    p = sub.add_parser("poset-module", help="face ring of a poset as a module file")
    add_input(p)
    p.set_defaults(func=_cmd_poset_module)

    p = sub.add_parser("gen", help="write a generated instance file to stdout")
    gsub = p.add_subparsers(dest="shape", required=True)
    g = gsub.add_parser("boundary-simplex")
    g.add_argument("-d", type=int, required=True)
    g = gsub.add_parser("cycle")
    g.add_argument("-m", type=int, required=True)
    g = gsub.add_parser("glued")
    g.add_argument("-d", type=int, required=True)
    g.add_argument("-m", type=int, required=True)
    gsub.add_parser("rp2")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("sweep", choices=["thm12", "thm25", "thm27", "thm44", "remark45", "oracle"])
    p.add_argument("--n", type=int, default=4, help="exhaustive enumeration cap (<= 5)")
    p.add_argument("--seed", type=int, default=0, help="seed for random instances")
    p.add_argument("--fields", default="q,p:2", help="comma-separated field flags")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (LcmkitError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PRECONDITION if isinstance(e, _PRECONDITION_ERRORS) else EXIT_PARSE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
