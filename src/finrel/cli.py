"""Command-line surface.

Subcommands: ``check`` (predicate profile of a relation document),
``witness`` (chain traces), ``survey`` (exhaustive census), ``mahavier``
(threads over a finite chain), ``op`` (compose/inverse/restrict).

Exit codes: 0 success; 1 when a survey finds counterexamples or a
``check --expect`` assertion fails; 2 for input or usage errors.  Stdout is
byte-identical across runs for fixed inputs; timing goes to stderr.

Building the parser loads no library module.  Each command imports the
modules it runs, and calls through them (``census.survey(...)``), so a
patched module attribute is what it calls.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections.abc import Callable, Sequence

SURVEY_CSV_HEADER = (
    "# finrel survey csv v1: "
    "n,full,idempotent_full,nontrivial_idempotent,trivial_idempotent,"
    "gamma_idempotent,counterexamples"
)

EXPECT_FLAGS = ("full", "idempotent", "surjective", "single_valued", "trivial", "gamma")

# an optional '-' then ASCII digits; int() alone also reads "_", "+", blanks and other digits
_INTEGER = "-?[0-9]+"


def _argtype(pattern: str, wants: str,
             convert: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type: a full match of ``pattern``, converted; any other value is a usage error."""
    def parse(raw: str) -> object:
        if re.fullmatch(pattern, raw):
            try:
                return convert(raw)
            except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
                pass
        shown = raw if len(raw) <= 40 else raw[:39] + "…"  # not a screenful of digits
        raise argparse.ArgumentTypeError(f"wants {wants}; got {shown!r}")
    return parse


def _integers(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part != ""]  # empty parts are skipped


_integer = _argtype(_INTEGER, "an integer", int)
_seed = _argtype(f"{_INTEGER},{_INTEGER}", "two integers 'x,y'", _integers)
_points = _argtype(f"(({_INTEGER})?,)*({_INTEGER})?", "comma-separated integers", _integers)
_expectation = _argtype(f"({'|'.join(EXPECT_FLAGS)})=(true|false)",
                        f"<flag>=<true|false> with flag one of {', '.join(EXPECT_FLAGS)}",
                        lambda raw: (raw.split("=")[0], raw.endswith("=true")))


def _load_relation(path: str):
    """The relation in the document at ``path``."""
    from . import io

    try:
        with open(path, encoding="utf-8") as stream:
            text = stream.read().removeprefix("\ufeff")  # a byte-order mark is no content
    except (OSError, UnicodeDecodeError) as exc:
        raise io.RelationParseError(f"cannot read {path}: {exc}") from exc
    return io.parse_relation(text)


def _asdict(record: tuple) -> dict:
    """A record's fields by name, a nested record as a dict; a plain tuple stays a tuple."""
    return {k: _asdict(v) if hasattr(v, "_fields") else v for k, v in record._asdict().items()}


def _cmd_check(args) -> int:
    import json

    from . import core

    report = core.properties(_load_relation(args.file))
    # the record's fields as declared, with gamma_witness printed as gamma
    doc = {"gamma" if k == "gamma_witness" else k: v for k, v in _asdict(report).items()}
    print(json.dumps(doc, indent=2))
    code = 0
    for name, wanted in args.expect or ():
        actual = getattr(report, name)
        if actual is not wanted:
            print(f"check: expected {name}={str(wanted).lower()}, got {json.dumps(actual)}",
                  file=sys.stderr)
            code = 1
    return code


def _cmd_witness(args) -> int:
    import json

    from . import io, witness

    if args.seed is not None and args.lemma != "2":
        raise io.RelationParseError(f"--seed applies only to --lemma 2, not --lemma {args.lemma}")
    if args.seed is None and args.lemma == "2":
        raise io.RelationParseError("--lemma 2 requires --seed x,y")
    f = _load_relation(args.file)
    if args.lemma == "1":
        out = _asdict(witness.reflexive_pair_witness(f))
    elif args.lemma == "2":
        out = _asdict(witness.gamma_from_seed(f, *args.seed))
    else:
        out = _asdict(witness.gamma_witness(f))
        out = {"witness": out.pop("pair"), **out}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_survey(args) -> int:
    if args.workers < 1:
        raise ValueError("workers must be positive")
    from . import census

    mode = "up_to_iso" if args.up_to_iso else "all"
    report = census.survey(args.n, mode=mode)
    print(f"# survey n={report.n} elapsed {report.elapsed:.2f}s", file=sys.stderr)
    if args.json:
        import json

        doc = {
            "n": report.n,
            "mode": report.mode,
            "counts": {name: getattr(report, name) for name in census.COUNTS},
            "counterexamples": list(report.counterexamples),
        }
        if report.counterexample_total:  # absent on a clean census, to keep its stdout
            doc["counterexample_total"] = report.counterexample_total
        print(json.dumps(doc, indent=2))
    else:
        print(SURVEY_CSV_HEADER)
        print(
            f"{report.n},{report.full},{report.idempotent_full},"
            f"{report.nontrivial_idempotent},{report.trivial_idempotent},"
            f"{report.gamma_idempotent},{report.counterexample_total}"
        )
    return 1 if report.counterexample_total else 0


def _cmd_mahavier(args) -> int:
    from . import core, mahavier

    f = _load_relation(args.file)
    if args.transpose:
        f = core.inverse(f)
    if args.count_only:
        # Decimal prints counts past the interpreter's 4300-digit limit on
        # str(int); imported here to keep it out of every start-up
        from decimal import Decimal

        print(Decimal(mahavier.count_threads(f, args.length)))
        return 0
    threads = mahavier.iter_threads(f, args.length)
    if args.json:
        import json

        # json.dumps(indent=2)'s layout, each thread written as it is walked
        count = mahavier.count_threads(f, args.length)
        chain = mahavier._is_chain_in_order(mahavier.iter_threads(f, args.length))
        doc = {"n": f.n, "length": args.length, "count": count,
               "is_coordinatewise_chain": chain, "threads": []}
        sys.stdout.write(json.dumps(doc, indent=2)[:-len("[]\n}")])
        sep = "["
        for t in threads:
            sys.stdout.write(sep + "\n    [\n      " + ",\n      ".join(map(str, t)) + "\n    ]")
            sep = ","
        sys.stdout.write("[]\n}\n" if sep == "[" else "\n  ]\n}\n")
    else:
        for t in threads:
            print(" ".join(map(str, t)))
    return 0


def _cmd_op(args) -> int:
    from . import core, io

    f = _load_relation(args.f)
    if args.operation == "compose":
        result = core.compose(f, _load_relation(args.g))
    elif args.operation == "inverse":
        result = core.inverse(f)
    else:
        result = core.restrict(f, args.points)
    text = io.serialize_relation(result, form=args.form)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _help_width() -> int:
    """argparse's help width by shutil.get_terminal_size's rules, without loading shutil
    (and bz2, lzma and zlib with it) as argparse's formatter does each time it is made."""
    try:
        columns = int(os.environ.get("COLUMNS", 0))
    except ValueError:
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):
            columns = 80
    return columns - 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse returns a fresh namespace.

    The cached parser reads its help width when it is built.
    """
    make = functools.partial(argparse.ArgumentParser, formatter_class=functools.partial(
        argparse.HelpFormatter, width=_help_width()))
    parser = make(
        prog="finrel",
        description="Relation algebra on finite point sets: predicate checks, "
        "witness chains, an exhaustive census, and inverse-limit threads. "
        "Relation files are JSON {'n': k, 'pairs': [[x, y], ...]} or a 0/1 "
        "matrix whose rows are source points and columns target points.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make)

    p = sub.add_parser("check", help="print the predicate profile of a relation document")
    p.add_argument("file", help="relation document (JSON {'n':…,'pairs':…} or 0/1 matrix, "
                                "rows = source point, columns = target point)")
    p.add_argument("--expect", action="append", type=_expectation, metavar="FLAG=BOOL",
                   help="assert a flag value; exit 1 on mismatch (repeatable)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("witness", help="run a chain construction and print its trace")
    p.add_argument("file")
    p.add_argument("--lemma", choices=["1", "2", "theorem"], default="theorem",
                   help="1 = reflexive-pair chain, 2 = seeded gamma extension "
                        "(needs --seed), theorem = full pipeline (default)")
    p.add_argument("--seed", type=_seed, metavar="X,Y", help="seed pair for the gamma extension")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("survey", help="exhaustively scan all full relations of a size")
    p.add_argument("--n", type=_integer, required=True, help="carrier size")
    p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso",
                   help="count isomorphism classes (canonical representatives) only")
    p.add_argument("--workers", type=_integer, default=1, metavar="W",
                   help="kept for compatibility; must be positive, and the census runs in one thread")
    p.add_argument("--json", action="store_true", help="emit the JSON report (default: the CSV row)")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("mahavier", help="threads of the inverse limit over a finite chain")
    p.add_argument("file")
    p.add_argument("--length", type=_integer, required=True, metavar="M", help="chain length")
    p.add_argument("--transpose", action="store_true",
                   help="use the opposite orientation (threads of the inverse)")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--count-only", action="store_true", dest="count_only")
    out.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mahavier)

    p = sub.add_parser("op", help="apply one algebra operation to relation files")
    p.set_defaults(func=_cmd_op)
    ops = p.add_subparsers(dest="operation", required=True, parser_class=make)
    for name, files, about in (("compose", "FG", "first F then G"),
                               ("inverse", "F", "the transpose of F"),
                               ("restrict", "F", "the pairs of F from the given points")):
        p = ops.add_parser(name, help=about)
        for metavar in files:
            p.add_argument(metavar.lower(), metavar=metavar, help="relation document")
        p.add_argument("--form", choices=["json", "matrix"], default="json")
        if name == "restrict":
            p.add_argument("--points", type=_points, required=True, metavar="P,Q",
                           help="comma-separated points to keep")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # RelationParseError and PreconditionError included
        print(f"finrel: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    import signal

    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run as it ends any filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())
