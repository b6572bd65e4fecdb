"""Command-line front end.

Commands::

    liemult info FILE         structural invariants of an algebra file
    liemult multiplier FILE   multiplier dimension and the defects t, s
    liemult classify FILE     catalog family for s in {0, 1, 2}
    liemult catalog NAME [PARAMS] [--plus NAME PARAMS ...] [-o FILE]
    liemult verify --suite NAME [--max-m M] [--max-k K] [--max-n N] [--seed S]

Reports are printed as machine-readable key=value lines and are
byte-identical for identical inputs and seeds.  Exit codes: 0 success or
suite passed; 1 suite failure or theorem violation; 2 syntax error or
unreadable file; 3 invalid algebra (antisymmetry/Jacobi); 4 precondition
failure (not nilpotent, abelian gate, not central).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from . import catalog
from .classifier import AbelianAlgebra, Status, classify
from .liealg import (
    DuplicateBracket,
    IndexOutOfRange,
    JacobiViolation,
    NotAnIdeal,
    NotNilpotent,
    center,
    direct_sum,
    lower_central_series,
)
from .lieconst import MAX_DIM, LieconstSyntaxError, load, render
from .multiplier import NotCentral, schur_multiplier_dim

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SYNTAX = 2
EXIT_INVALID = 3
EXIT_PRECONDITION = 4


def _cmd_info(args: argparse.Namespace) -> int:
    alg = load(args.file)
    series = lower_central_series(alg)
    print(f"n={alg.dim}")
    print(f"dimL2={series.derived_dim}")
    print(f"dimZ={center(alg).dim}")
    print(f"nilpotent={'yes' if series.is_nilpotent else 'no'}")
    if series.is_nilpotent:
        print(f"class={series.nilpotency_class}")
    print(f"lcs={','.join(str(d) for d in series.lcs_dims)}")
    return EXIT_OK


def _cmd_multiplier(args: argparse.Namespace) -> int:
    alg = load(args.file)
    rep = schur_multiplier_dim(alg)
    print(f"n={rep.n}")
    print(f"dimM={rep.dim_m}")
    print(f"t={rep.t}")
    print(f"s={rep.s}")
    print(f"rankd2={rep.rank_d2}")
    print(f"rankd3={rep.rank_d3}")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    alg = load(args.file)
    res = classify(alg)
    print(f"status={res.status.value}")
    if res.family is not None:
        print(f"family={res.family}")
        if res.family == catalog.FAMILY_H_PLUS_A:
            print(f"m={res.params[0]}")
            print(f"k={res.params[1]}")
    print(f"s={res.s_value}")
    if res.status is not Status.CLASSIFIED:
        fp = res.fingerprint
        print(f"n={fp.n}")
        print(f"dimL2={fp.derived_dim}")
        print(f"dimZ={fp.center_dim}")
        print(f"class={fp.nilpotency_class}")
        print(f"dimM={fp.dim_m}")
        print(f"t={fp.t}")
    print(f"notes={res.notes}")
    return EXIT_FAIL if res.status is Status.THEOREM_VIOLATION else EXIT_OK


def _parse_catalog_spec(name: str, params: Sequence[str]) -> tuple[str, tuple[int, ...]]:
    try:
        values = tuple(int(p) for p in params)
    except ValueError:
        raise ValueError(f"catalog parameters must be integers, got {params!r}")
    return name, values


def _cmd_catalog(args: argparse.Namespace) -> int:
    try:
        specs = [_parse_catalog_spec(args.name, args.params),
                 *(_parse_catalog_spec(extra[0], extra[1:]) for extra in args.plus or [])]
        # the sum is refused before any summand is built; a negative
        # dimension is a parameter its constructor refuses
        dim = sum(max(catalog.dimension(*spec), 0) for spec in specs)
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} above {MAX_DIM}, the largest a file may declare")
        alg = catalog.entry(*specs[0]).algebra
        for spec in specs[1:]:
            alg = direct_sum(alg, catalog.entry(*spec).algebra)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    text = render(alg)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # with randgen; the file commands load neither

    report = verify.run_suite(
        args.suite, max_m=args.max_m, max_k=args.max_k,
        max_n=args.max_n, seed=args.seed,
    )
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_FAIL


# The commands that read one algebra FILE: name -> (help, handler).  build_parser
# gives each a subparser, and _parse dispatches `COMMAND FILE` from here alone.
_FILE_COMMANDS = {
    "info": ("structural invariants of an algebra file", _cmd_info),
    "multiplier": ("multiplier dimension and defects", _cmd_multiplier),
    "classify": ("catalog family for s in {0,1,2}", _cmd_classify),
}


def _cap(low: int, high: int) -> Callable[[str], int]:
    """A verify cap from ``low`` to ``high``; argparse exits 2 on anything else."""
    def cap(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return cap


# quotient lists all 2^(K+1) central coordinate subsets of each H(m)+A(K)
# entry: K = 12 gives 75,181 cases in about 7.5 s, and each step up doubles it
MAX_K = 12

# classification grows about as M^3.3 at the default K: M = 32 gives 2,505
# cases in about 9 s, and M = 36 took 14.5 s
MAX_M = 32

# classification's s0-series runs H(1)+A(n-3) for every n from 3 to N, about
# as N^2: N = 1,600 took 8 s on a 2-vCPU Xeon, and N = 3,200 took 29 s; the
# series starts at n = 3, so a smaller cap would run none of its cases
MAX_N = 1600


def build_parser() -> argparse.ArgumentParser:
    from . import verify

    parser = argparse.ArgumentParser(
        prog="liemult",
        description="Exact invariants and multiplier-defect classification "
                    "of finite-dimensional Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, handler) in _FILE_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.set_defaults(func=handler)

    p = sub.add_parser("catalog", help="write a catalog algebra as lieconst text")
    p.add_argument("name", choices=catalog.FAMILIES)
    p.add_argument("params", nargs="*")
    p.add_argument("--plus", nargs="+", action="append", metavar="NAME [PARAMS]",
                   help="direct-sum another catalog algebra onto the result")
    p.add_argument("-o", "--output", help="write to FILE instead of stdout")
    p.set_defaults(func=_cmd_catalog)

    flags = "\n".join(
        f"  {name:<16}{' '.join('--' + f.replace('_', '-') for f in used) or '(none)'}"
        for name, used in verify.SUITE_FLAGS.items())
    p = sub.add_parser("verify", help="run a named verification suite",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="flags each suite reads (it accepts and ignores the others):\n"
                              + flags)
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--max-m", type=_cap(0, MAX_M), default=verify.DEFAULT_MAX_M)
    p.add_argument("--max-k", type=_cap(0, MAX_K), default=verify.DEFAULT_MAX_K)
    p.add_argument("--max-n", type=_cap(3, MAX_N), default=verify.DEFAULT_MAX_N)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    return parser


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns or raises.

    ``COMMAND FILE`` for a file command, with FILE not starting with ``-``,
    always parses to the same three fields, so that Namespace is built
    without the parser; every other argv goes through argparse.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) == 2 and args[0] in _FILE_COMMANDS and not args[1].startswith("-"):
        command, file = args
        return argparse.Namespace(command=command, file=file, func=_FILE_COMMANDS[command][1])
    return build_parser().parse_args(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, LieconstSyntaxError) as exc:
        # malformed, or unreadable: missing, a directory, no permission, not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except (JacobiViolation, DuplicateBracket, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NotNilpotent, AbelianAlgebra, NotCentral, NotAnIdeal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
