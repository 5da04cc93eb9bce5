"""Command line front end: tables, verification suites, and matrix dumps.

All configuration comes from flags; output for fixed flags is deterministic
byte for byte. Rational numbers appear in JSON as separate numerator and
denominator strings, never as floats. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 internal error: an unexpected exception, such as a
broken ArithmeticError invariant of the integer store, ends in one stderr
line `realhurwitz: internal error: <Type>: <message>`, not a traceback. A
reader that closes the output pipe early (`| head`) ends the command
quietly with 141, the status of a death by SIGPIPE.

A cold run compiles only the modules its command runs, each imported inside
the handler that uses it. Every command compiles cli, model and operators;
table adds evolution and poly, nonsep adds nonsep and poly, spectrum adds
spectral, oracle adds oracle and poly, and verify adds verify and the modules
of its suite, genus0 only for `--suite genus0`.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable

from .model import (Bidegree, RamificationType, canonical_key, euler_characteristic,
                    format_type, unlabel)
from .operators import OperatorKind, block_matrix


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not strictly between 0 and 1")
    return value


def _part_str(p) -> str:
    return " ".join(str(k) for k in p)


def _frac_pair(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _write_csv(header: list, records: Iterable[list]) -> None:
    """CSV on stdout, written a block of rows at a time: neither the whole
    text nor one write per row."""
    records = iter(records)
    block = [header]
    while block:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(block)
        sys.stdout.write(buf.getvalue())
        block = list(islice(records, 1024))


def _emit_rows(rows, fmt: str, fields: tuple) -> None:
    """The rows of a table; fields, the _fields of its type, name the
    partition columns, so an empty table still prints its header."""
    header = ["m", *("lambda" if f == "lam" else f for f in fields),
              "chi", "connected", "value_num", "value_den"]

    def records(text=str):
        # a type recurs at every m, so its part strings are built once; the
        # text of the flag is also its JSON
        parts = {}
        for row in rows:
            strs = parts.get(row.mu)
            if strs is None:
                strs = parts[row.mu] = [text(_part_str(p)) for p in row.mu]
            yield [row.m, *strs, row.chi, "true" if row.connected else "false",
                   text(str(row.value.numerator)), text(str(row.value.denominator))]

    if fmt == "json":
        import json
        # json.dumps(..., indent=2) runs json's pure-Python encoder; this writes
        # its layout, each string encoded by json.dumps and each int by str
        item = "    {{\n" + ",\n".join(f"      {json.dumps(k)}: {{}}" for k in header) + "\n    }}"
        body = ",\n".join(item.format(*rec) for rec in records(json.dumps))
        print(f'{{\n  "rows": [\n{body}\n  ]\n}}' if body else '{\n  "rows": []\n}')
    elif fmt == "csv":
        _write_csv(header, records())
    else:
        texts = {mu: format_type(mu) for mu in {r.mu for r in rows}}
        for row in rows:
            print(f"m={row.m} {texts[row.mu]} chi={row.chi} value={row.value}")


def cmd_table(args) -> int:
    from . import evolution
    rows = evolution.table_rows(args.max_degree, args.max_m, args.connected)
    _emit_rows(rows, args.format, RamificationType._fields)
    return 0


def cmd_block(args) -> int:
    bm = block_matrix(OperatorKind(args.operator), Bidegree(args.nplus, args.nminus))
    if args.format == "json":
        import json
        obj = {"bidegree": [bm.block.n_plus, bm.block.n_minus],
               "operator": args.operator,
               "basis": [format_type(mu) for mu in bm.basis],
               "entries": [[_frac_pair(x) for x in row] for row in bm.entries]}
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        _write_csv(["row_type", "col_type", "value_num", "value_den"],
                   ([format_type(row_mu), format_type(col_mu), str(x.numerator),
                     str(x.denominator)]
                    for row_mu, row in zip(bm.basis, bm.entries)
                    for col_mu, x in zip(bm.basis, row) if x))
    else:
        print(f"operator {args.operator} on bidegree "
              f"({bm.block.n_plus}, {bm.block.n_minus})")
        for i, mu in enumerate(bm.basis):
            print(f"basis[{i}] = {format_type(mu)}")
        for row in bm.entries:
            print("  ".join(str(x) for x in row))
    return 0


def cmd_spectrum(args) -> int:
    from . import spectral
    try:
        rep = spectral.common_eigenbasis(Bidegree(args.nplus, args.nminus), args.tol)
    except RuntimeError as exc:  # a structure check or the float certification failed
        print(f"spectrum: {exc}", file=sys.stderr)
        return 1
    orthogonal = spectral.orthogonality_check(rep)
    comparison = None
    if (args.nplus, args.nminus) == (1, 1):
        comparison = spectral.compare_reference_eigenbasis()

    def num(x):
        return _frac_pair(x) if isinstance(x, Fraction) else float(x)

    if args.format == "json":
        import json
        obj = {"bidegree": [args.nplus, args.nminus],
               "basis": [format_type(mu) for mu in rep.basis],
               "exact": rep.exact,
               "charpoly_plus": [_frac_pair(c) for c in rep.charpoly_plus],
               "charpoly_minus": [_frac_pair(c) for c in rep.charpoly_minus],
               "pairs": [[num(p), num(q)] for p, q in rep.pairs],
               "vectors": [[num(c) for c in vec] for vec in rep.vectors],
               "orthogonal": orthogonal}
        if comparison is not None:
            obj["reference_comparison"] = [
                {"index": c.index, "pattern": list(c.pattern),
                 "matches": c.matches,
                 "pair": None if c.pair is None else [num(c.pair[0]), num(c.pair[1])]}
                for c in comparison]
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        _write_csv(["eigenvalue_plus", "eigenvalue_minus"]
                   + [format_type(mu) for mu in rep.basis],
                   ([str(pair[0]), str(pair[1])] + [str(c) for c in vec]
                    for pair, vec in zip(rep.pairs, rep.vectors)))
    else:
        print(f"bidegree ({args.nplus}, {args.nminus}), "
              f"{'exact' if rep.exact else 'certified floating point'}, "
              f"Z-orthogonal: {orthogonal}")
        for mu in rep.basis:
            print(f"basis: {format_type(mu)}")
        for pair, vec in zip(rep.pairs, rep.vectors):
            coords = ", ".join(str(c) for c in vec)
            print(f"eigenvalues ({pair[0]}, {pair[1]}): ({coords})")
        if comparison is not None:
            for c in comparison:
                status = "matches" if c.matches else "MISMATCH (suspected sign typo)"
                print(f"printed row {c.index} {c.pattern}: {status}")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle
    from .poly import HurwitzRow
    b = Bidegree(args.nplus, args.nminus)
    table = unlabel(oracle.labelled_by_paths(b, args.m), b)
    rows = [HurwitzRow(args.m, mu, euler_characteristic(mu, args.m), False, table[mu])
            for mu in sorted(table, key=canonical_key)]
    _emit_rows(rows, args.format, RamificationType._fields)
    return 0


def cmd_nonsep(args) -> int:
    from . import nonsep
    rows = nonsep.tilde_table_rows(args.max_n, args.max_m, args.connected)
    _emit_rows(rows, args.format, nonsep.TildeType._fields)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite
    return run_suite(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realhurwitz",
        description="Exact real Hurwitz number tables and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a table of counts")
    table.add_argument("--max-degree", type=_nonnegative, default=2,
                       help="cap on max(n+, n-) of listed types")
    table.add_argument("--max-m", type=_nonnegative, default=3)
    table.add_argument("--connected", action="store_true")
    table.add_argument("--format", choices=["json", "csv", "text"], default="text")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True,
                        choices=["paper", "oracle", "spectral", "genus0", "nonsep"])
    verify.add_argument("--max-size", type=_nonnegative, default=4,
                        help="total degree cap for the oracle suite")
    verify.add_argument("--max-m", type=_nonnegative, default=8,
                        help="order cap for the genus0 suite")
    verify.add_argument("--max-degree", type=_nonnegative, default=6,
                        help="degree cap for the genus0 suite")
    verify.set_defaults(func=cmd_verify)

    block = sub.add_parser("block", help="dump one operator block matrix")
    block.add_argument("--nplus", type=_nonnegative, required=True)
    block.add_argument("--nminus", type=_nonnegative, required=True)
    block.add_argument("--operator", choices=[k.value for k in OperatorKind],
                       default="wplus")
    block.add_argument("--format", choices=["json", "csv", "text"], default="text")
    block.set_defaults(func=cmd_block)

    spectrum = sub.add_parser("spectrum", help="dump a spectral report")
    spectrum.add_argument("--nplus", type=_nonnegative, required=True)
    spectrum.add_argument("--nminus", type=_nonnegative, required=True)
    spectrum.add_argument("--tol", type=_tolerance, default=1e-10)
    spectrum.add_argument("--format", choices=["json", "csv", "text"], default="text")
    spectrum.set_defaults(func=cmd_spectrum)

    orc = sub.add_parser("oracle", help="dump brute-force walk counts")
    orc.add_argument("--nplus", type=_nonnegative, required=True)
    orc.add_argument("--nminus", type=_nonnegative, required=True)
    orc.add_argument("--m", type=_nonnegative, default=1)
    orc.add_argument("--format", choices=["json", "csv", "text"], default="text")
    orc.set_defaults(func=cmd_oracle)

    tilde = sub.add_parser("nonsep", help="emit unsigned (tilde) tables")
    tilde.add_argument("--max-n", type=_nonnegative, default=3)
    tilde.add_argument("--max-m", type=_nonnegative, default=6)
    tilde.add_argument("--connected", action="store_true")
    tilde.add_argument("--format", choices=["json", "csv", "text"], default="text")
    tilde.set_defaults(func=cmd_nonsep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed the pipe: stop quietly with 128 + SIGPIPE, the
        # status of a death by that signal, and send what is still buffered
        # to /dev/null so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"realhurwitz: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
