"""Command-line interface.

Verdict subcommands print `true`/`false` (or an integer for `--max`) and
exit 0 either way; exit 1 is reserved for verification sweeps that found a
counterexample and 2 for usage errors.  A parse or validation error (a
``ParseError``, a ``PosetValidationError`` or an ``OSError`` from reading
the input) exits 3; every other error exits 4, the violated preconditions
such as requesting the canonical Betti table of a non-Cohen-Macaulay input.
A ``ValueError`` always exits 4, even when it is also an ``OSError``.

Complexes and posets answer the same two questions, Cohen-Macaulay and
l-CM, through one handler each: a subcommand binds its reader and verdict
functions to the handler with ``set_defaults``.

``verify`` owns every sweep default: the exhaustive cap ``--n``, the seed
of the random instances and the field set.  It builds the instance lists
(``sweeps.complex_scope``, ``sweeps.poset_instances``) inside each timed
sweep call and hands them to the sweep, which takes no default.
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
from .errors import LcmkitError, ParseError, PosetValidationError, TooLargeError
from .linalg import FieldSpec

EXIT_OK = 0
EXIT_SWEEP_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4

# The parse and validation errors; every other error a subcommand raises is
# a violated precondition.
_PARSE_ERRORS = (ParseError, PosetValidationError, OSError)


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
    subject = args.read(_read_input(args.file))
    sys.stdout.write(_bool_word(args.is_cm(subject, _field(args.field))) + "\n")
    return EXIT_OK


def _cmd_lcm(args) -> int:
    subject = args.read(_read_input(args.file))
    spec = _field(args.field)
    if args.max:
        sys.stdout.write(f"{args.max_l(subject, spec)}\n")
    else:
        sys.stdout.write(_bool_word(args.is_l_cm(subject, args.l, spec)) + "\n")
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


def _cmd_poset_module(args) -> int:
    poset = pmod.parse_poset_file(_read_input(args.file))
    sys.stdout.write(sqmod.format_module_file(pmod.face_ring_module(poset)))
    return EXIT_OK


def _cmd_gen(args) -> int:
    sys.stdout.write(args.make(args))
    return EXIT_OK


def _cmd_verify(args) -> int:
    fields = _fields(args.fields)
    if args.n > sweeps.EXHAUSTIVE_CAP:
        raise TooLargeError(
            f"--n is capped at {sweeps.EXHAUSTIVE_CAP} for exhaustive sweeps"
        )
    # each timed call builds its own instances, so the time covers the build
    complexes = functools.partial(sweeps.complex_scope, args.n, args.seed)
    posets = functools.partial(sweeps.poset_instances, base_seed=args.seed)
    runs = {
        "thm12": [lambda: sweeps.sweep_skeleton("thm12", complexes(), fields)],
        "thm25": [lambda: sweeps.sweep_thm25(complexes(), fields)],
        "thm27": [lambda: sweeps.sweep_skeleton("thm27", complexes(), fields)],
        "thm44": [lambda: sweeps.sweep_thm44(posets(), fields)],
        "remark45": [lambda: sweeps.sweep_remark45(fields)],
        "oracle": [lambda: sweeps.sweep_oracle(complexes(), fields),
                   lambda: sweeps.sweep_routes(posets(), fields)],
    }[args.sweep]
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
    p.set_defaults(func=_cmd_cm, read=cxmod.parse_facet_file, is_cm=cmod.is_cohen_macaulay)

    p = sub.add_parser("lcm", help="l-CM verdict or the maximal l")
    add_input(p)
    add_field(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int, help="check this l")
    group.add_argument("--max", action="store_true", help="print the largest l")
    p.set_defaults(func=_cmd_lcm, read=cxmod.parse_facet_file, is_l_cm=cmod.is_l_cm, max_l=cmod.max_l)

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
    p.set_defaults(func=_cmd_cm, read=pmod.parse_poset_file, is_cm=pmod.is_poset_cm)

    p = sub.add_parser("poset-lcm", help="l-CM verdict for a poset file")
    add_input(p)
    add_field(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int)
    group.add_argument("--max", action="store_true")
    p.set_defaults(func=_cmd_lcm, read=pmod.parse_poset_file, is_l_cm=pmod.is_poset_l_cm,
                   max_l=pmod.max_poset_l)

    p = sub.add_parser("poset-module", help="face ring of a poset as a module file")
    add_input(p)
    p.set_defaults(func=_cmd_poset_module)

    p = sub.add_parser("gen", help="write a generated instance file to stdout")
    gsub = p.add_subparsers(dest="shape", required=True)
    g = gsub.add_parser("boundary-simplex")
    g.add_argument("-d", type=int, required=True)
    g.set_defaults(make=lambda a: cxmod.format_facet_file(cxmod.boundary_simplex(a.d)))
    g = gsub.add_parser("cycle")
    g.add_argument("-m", type=int, required=True)
    g.set_defaults(make=lambda a: cxmod.format_facet_file(cxmod.cycle(a.m)))
    g = gsub.add_parser("glued")
    g.add_argument("-d", type=int, required=True)
    g.add_argument("-m", type=int, required=True)
    g.set_defaults(make=lambda a: pmod.format_poset_file(pmod.glued_simplices(a.d, a.m)))
    g = gsub.add_parser("rp2")
    g.set_defaults(make=lambda a: cxmod.format_facet_file(cxmod.real_projective_plane()))
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
        # io.UnsupportedOperation is an OSError and a ValueError: it exits 4
        parse = not isinstance(e, ValueError) and isinstance(e, _PARSE_ERRORS)
        return EXIT_PARSE if parse else EXIT_PRECONDITION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
