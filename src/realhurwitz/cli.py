"""Command line front end: tables, verification suites, and matrix dumps.

All configuration comes from flags; output for fixed flags is deterministic
byte for byte. Every command writes stdout through _write, which finishes a
short write; tables and dumps hand it lines 1,024 at a time (_write_lines).
JSON gives a rational as numerator and denominator strings, never a float.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error, one stderr line `realhurwitz: internal error: <Type>: <message>`. A
reader that closes the output pipe early (`| head`) ends the command
quietly with 141, the status of a death by SIGPIPE.

A cold run compiles only the modules its command runs, each imported inside
the handler that uses it. Every command compiles cli and model; table adds
evolution, operators and poly, nonsep adds nonsep, operators and poly, and
with --connected both add explog; block adds dump and operators, spectrum
adds dump, spectral and operators, oracle adds oracle and poly, and verify
adds verify and the modules of its suite, genus0 only for `--suite genus0`.
Tables leave the store as reduced int pairs, so table, nonsep and oracle
import none of fractions, csv and json, in any format. main leaves the
garbage collector as it is; the process entry (realhurwitz.__main__)
freezes the heap after it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from itertools import islice

from .model import Bidegree, RamificationType, bidegree_box, format_type


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


@lru_cache(maxsize=None)  # once per partition: the 3,529 types of (6,6) share 138
def _part_str(p) -> str:
    return " ".join(map(str, p))


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


def _write_lines(texts, head: str = "", sep: str = "\n", tail: str = "\n", empty: str = "") -> None:
    """head, the texts joined by sep 1,024 at a time, then tail; or empty alone, if no text."""
    texts = iter(texts)
    block = list(islice(texts, 1024))
    if not block:
        _write(empty)
    while block:
        text = head + sep.join(block)
        block, head = list(islice(texts, 1024)), sep
        _write(text if block else text + tail)


def _emit_rows(series, fmt: str, fields: tuple) -> None:
    """The table of a LabelledSeries from its records; fields, the _fields of
    its type, name the partition columns, so an empty table still prints its
    header. No field (ints, true, false, digits, spaces) needs escaping."""
    names = ["m", *("lambda" if f == "lam" else f for f in fields),
             "chi", "connected", "value_num", "value_den"]
    flag = "true" if series.connected else "false"
    if fmt == "json":
        def part(mu):
            return "".join(f'      "{k}": "{_part_str(p)}",\n' for k, p in zip(names[1:], mu))

        def row(m, p, chi, num, den):
            return (f'    {{\n      "m": {m},\n{p}      "chi": {chi},\n      "connected": {flag},\n'
                    f'      "value_num": "{num}",\n      "value_den": "{den}"\n    }}')
        head, sep, tail, empty = '{\n  "rows": [\n', ",\n", "\n  ]\n}\n", '{\n  "rows": []\n}\n'
    elif fmt == "csv":
        def part(mu):
            return ",".join(map(_part_str, mu))

        def row(m, p, chi, num, den):
            return f"{m},{p},{chi},{flag},{num},{den}"
        head, sep, tail, empty = ",".join(names) + "\n", "\n", "\n", ",".join(names) + "\n"
    else:
        def row(m, p, chi, num, den):
            return f"m={m} {p} chi={chi} value={num}" + (f"/{den}" if den != 1 else "")
        part, (head, sep, tail, empty) = format_type, ("", "\n", "\n", "")
    parts: dict = {}  # a type recurs at every m, so its text is built once
    _write_lines((row(m, parts.get(mu) or parts.setdefault(mu, part(mu)), chi, num, den)
                  for m, mu, chi, num, den in series.records()), head, sep, tail, empty)


def cmd_table(args) -> int:
    from .evolution import SIGNED
    from .poly import series
    box = bidegree_box(Bidegree(args.max_degree, args.max_degree))
    table = series(SIGNED, box, args.max_m, args.connected)
    _emit_rows(table, args.format, RamificationType._fields)
    return 0


def cmd_block(args) -> int:
    from .dump import cmd_block
    return cmd_block(args)


def cmd_spectrum(args) -> int:
    from .dump import cmd_spectrum
    return cmd_spectrum(args)


def cmd_oracle(args) -> int:
    from . import oracle
    from .poly import LabelledSeries
    b = Bidegree(args.nplus, args.nminus)
    totals = oracle.labelled_by_paths(b, args.m)[args.m]
    series = LabelledSeries({b: [{}] * args.m + [totals]}, args.m, False)
    _emit_rows(series, args.format, RamificationType._fields)
    return 0


def cmd_nonsep(args) -> int:
    from .nonsep import UNSIGNED, TildeType
    from .poly import series
    table = series(UNSIGNED, [(n,) for n in range(args.max_n + 1)], args.max_m, args.connected)
    _emit_rows(table, args.format, TildeType._fields)
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
        print(f"realhurwitz: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
