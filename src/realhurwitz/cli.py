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
the handler that uses it. Every command compiles cli and model; table adds
evolution, operators and poly, nonsep adds nonsep, operators and poly, block
adds operators, spectrum adds spectral and operators, oracle adds oracle and
poly, and verify adds verify and the modules of its suite, genus0 only for
`--suite genus0`. Tables leave the store as reduced int pairs, so table,
nonsep and oracle import none of fractions, csv and json, in any format.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from itertools import islice
from typing import Iterable

from .model import Bidegree, RamificationType, format_type


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
    return " ".join(map(str, p))


def _frac_pair(x) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _write(text: str) -> None:
    """Write text to stdout, through its binary buffer if it has one: an
    unbuffered one takes part of the bytes when the reader closes the pipe,
    and only a further write raises BrokenPipeError."""
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[out.write(data):]
    out.flush()


def _write_csv(header: list, records: Iterable[list]) -> None:
    """CSV on stdout by csv.writer, written a block of 1,024 rows at a time."""
    import csv
    records = iter(records)
    block = [header]
    while block:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(block)
        _write(buf.getvalue())
        block = list(islice(records, 1024))


def _emit_rows(series, fmt: str, fields: tuple) -> None:
    """The table of a LabelledSeries from its records, a block of 1,024 rows
    at a time; fields, the _fields of its type, name the partition columns,
    so an empty table still prints its header. No field (an int, true,
    false, digits and spaces) needs CSV quoting or a JSON escape."""
    names = ["m", *("lambda" if f == "lam" else f for f in fields),
             "chi", "connected", "value_num", "value_den"]
    flag = "true" if series.connected else "false"
    if fmt == "json":
        def part(mu):
            return "".join(f'      "{k}": "{_part_str(p)}",\n' for k, p in zip(names[1:], mu))

        def row(m, p, chi, num, den):
            return (f'    {{\n      "m": {m},\n{p}      "chi": {chi},\n      "connected": {flag},\n'
                    f'      "value_num": "{num}",\n      "value_den": "{den}"\n    }}')
        frame = '{\n  "rows": [\n', ",\n", "\n  ]\n}\n", '{\n  "rows": []\n}\n'
    elif fmt == "csv":
        def part(mu):
            return ",".join(map(_part_str, mu))

        def row(m, p, chi, num, den):
            return f"{m},{p},{chi},{flag},{num},{den}"
        frame = ",".join(names) + "\n", "\n", "\n", ",".join(names) + "\n"
    else:
        def row(m, p, chi, num, den):
            return f"m={m} {p} chi={chi} value={num}" + (f"/{den}" if den != 1 else "")
        part, frame = format_type, ("", "\n", "\n", "")
    head, sep, tail, empty = frame
    parts: dict = {}  # a type recurs at every m, so its text is built once
    texts = (row(m, parts.get(mu) or parts.setdefault(mu, part(mu)), chi, num, den)
             for m, mu, chi, num, den in series.records())
    block = list(islice(texts, 1024))
    if not block:
        _write(empty)
    while block:
        text = head + sep.join(block)
        block, head = list(islice(texts, 1024)), sep
        _write(text if block else text + tail)


def cmd_table(args) -> int:
    from . import evolution
    corner = Bidegree(args.max_degree, args.max_degree)
    series = evolution.box_series(corner, args.max_m, args.connected)
    _emit_rows(series, args.format, RamificationType._fields)
    return 0


def cmd_block(args) -> int:
    from .operators import OperatorKind, block_matrix
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
                   ([format_type(row_mu), format_type(col_mu), *_frac_pair(x)]
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

    from fractions import Fraction

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
    from .poly import LabelledSeries
    b = Bidegree(args.nplus, args.nminus)
    totals = oracle.labelled_by_paths(b, args.m)[args.m]
    series = LabelledSeries({b: [{}] * args.m + [totals]}, args.m, False)
    _emit_rows(series, args.format, RamificationType._fields)
    return 0


def cmd_nonsep(args) -> int:
    from . import nonsep
    series = nonsep.tilde_series(args.max_n, args.max_m, args.connected)
    _emit_rows(series, args.format, nonsep.TildeType._fields)
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
    # the values of operators.OperatorKind: the parser loads no operators
    block.add_argument("--operator", choices=("wplus", "wminus", "wmean"), default="wplus")
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
