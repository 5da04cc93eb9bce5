"""Command line front end: tables, verification suites, and matrix dumps.

All configuration comes from flags; output for fixed flags is deterministic
byte for byte. Rational numbers appear in JSON as separate numerator and
denominator strings, never as floats. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 internal error: an unexpected exception, such as a
broken ArithmeticError invariant of the integer store, ends in one stderr
line `realhurwitz: internal error: <Type>: <message>`, not a traceback. A
reader that closes the output pipe early (`| head`) ends the command
quietly with 141, the status of a death by SIGPIPE.

A cold run compiles only the modules its command runs: `oracle`, `spectral`,
`nonsep` and `json` are imported inside the handlers and suites that use
them, so `table` loads none of them.
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

from . import evolution
from .model import (
    Bidegree,
    RamificationType,
    canonical_key,
    enumerate_bidegrees,
    euler_characteristic,
    format_type,
    p_minus,
    p_plus,
    q_var,
    rtype,
    unlabel,
)
from .operators import OperatorKind, block_matrix
from .poly import HurwitzRow, PolyVector


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


def _show(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_show(v) for v in value)) + "}"
    return str(value)


class _Checker:
    def __init__(self) -> None:
        self.failures = 0

    def check(self, name: str, expected, actual) -> None:
        if expected == actual:
            print(f"ok   {name}: expected {_show(expected)} actual {_show(actual)}")
        else:
            self.failures += 1
            print(f"FAIL {name}: expected {_show(expected)} actual {_show(actual)}")

    def poly_check(self, name: str, expected: PolyVector, actual: PolyVector) -> None:
        if expected == actual:
            print(f"ok   {name}")
            return
        self.failures += 1
        keys = sorted(set(k for k, _ in expected) | set(k for k, _ in actual),
                      key=str)
        diffs = [f"{format_type(k)}: expected {expected.coeff(k)} actual {actual.coeff(k)}"
                 for k in keys if expected.coeff(k) != actual.coeff(k)]
        print(f"FAIL {name}: " + "; ".join(diffs))


_PRINTED_EXPANSION = {
    0: {p_plus(1): 1, p_minus(1): 1, q_var(1): 1},
    1: {p_plus(2): 1, p_minus(2): 1},
    2: {p_plus(3): 1, p_minus(3): 1, rtype((1,), (1,)): 1, q_var(1): 1},
    3: {rtype((2, 1), ()): 1, rtype((2,), (1,)): 1, rtype((1,), (2,)): 1,
        rtype((), (2, 1)): 1, p_plus(4): 2, p_minus(4): 2,
        p_plus(2): 1, p_minus(2): 1},
}

_SINGLE_POLE_SEQUENCE = [1, 1, 1, 2, 5, 16, 61, 272]

# The genus-zero unit evaluation at p_1 = q_1 = 1. The printed series lists
# 1/2 at u^2/2!; that is a misprint, recorded below. The genus-zero series is
# half the chi = 2 part of the connected series with signs forgotten, and the
# chi = 2 terms of _PRINTED_EXPANSION[2] with all parts one are p+_1 p-_1 and
# q_1, each 1, so the entry is (1 + 1)/2 = 1.
_UNIT_EVALUATION = [Fraction(1), Fraction(0), Fraction(1), Fraction(0),
                    Fraction(2), Fraction(0), Fraction(20), Fraction(0),
                    Fraction(406), Fraction(0), Fraction(14652)]

_UNIT_EVALUATION_MISPRINTS = {2: Fraction(1, 2)}


def _suite_paper(chk: _Checker) -> None:
    from . import nonsep
    # every signed check lies in the box (4, 4) through u^7, so one log serves
    conn = evolution.box_series(Bidegree(4, 4), 7)
    for m, coeffs in _PRINTED_EXPANSION.items():
        want = PolyVector({mu: Fraction(c) for mu, c in coeffs.items()})
        chk.poly_check(f"connected series coefficient of u^{m}/{m}!",
                       want, conn.coeff(m).restrict_degree(4))
    got = [conn.value(p_plus(n), n - 1) for n in range(1, 9)]
    chk.check("single positive real pole sequence n=1..8",
              _SINGLE_POLE_SEQUENCE, got)
    chk.check("count at m=6, one positive pole of order 3", Fraction(4),
              conn.value(p_plus(3), 6))
    chk.check("count at m=6, one negative pole of order 3", Fraction(4),
              conn.value(p_minus(3), 6))
    chk.check("unsigned count at m=6, one pole of order 3", Fraction(9),
              nonsep.tilde_connected_value(nonsep.ttype(kappa_odd=(3,)), 6))


def _suite_oracle(chk: _Checker, max_size: int) -> None:
    from . import oracle
    for b in enumerate_bidegrees(max_size):
        wp = block_matrix(OperatorKind.WPLUS, b)
        wm = block_matrix(OperatorKind.WMINUS, b)
        chk.check(f"plus operator equals left class multiplication on {tuple(b)}",
                  True, oracle.mult_c2_matrix(b, "left") == wp.columns)
        chk.check(f"minus operator equals right class multiplication on {tuple(b)}",
                  True, oracle.mult_c2_matrix(b, "right") == wm.columns)
    for b in enumerate_bidegrees(max_size):
        vectors = evolution.evolve_labelled(b, 6)
        ok = all(vectors[m] == oracle.labelled_by_paths(b, m) for m in range(7))
        chk.check(f"walk counts equal evolution on {tuple(b)}, m<=6", True, ok)


def _suite_spectral(chk: _Checker) -> None:
    from . import spectral
    rep = spectral.common_eigenbasis(Bidegree(1, 1))
    chk.check("block (1,1) decomposition is exact", True, rep.exact)
    chk.check("block (1,1) eigenvalue pairs",
              {(1, 1), (1, -1), (-1, 1), (-1, -1)}, set(rep.pairs))
    chk.check("block (1,1) distinct pairs are Z-orthogonal", True,
              spectral.orthogonality_check(rep))
    chk.check("block (1,1) mean operator eigenvalues are pair averages", True,
              spectral.mean_eigenvalue_check(rep))
    comparison = spectral.compare_reference_eigenbasis()
    chk.check("printed eigenvector rows matching", [True, False, True, False],
              [c.matches for c in comparison])
    for b in [(2, 1), (2, 2)]:
        rep = spectral.common_eigenbasis(Bidegree(*b))
        chk.check(f"block {b} distinct pairs are Z-orthogonal", True,
                  spectral.orthogonality_check(rep))
        chk.check(f"block {b} mean operator eigenvalues are pair averages", True,
                  spectral.mean_eigenvalue_check(rep))


def _suite_genus0(chk: _Checker, max_m: int, max_degree: int) -> None:
    report = evolution.verify_genus0_pde(max_m, max_degree)
    chk.check(f"flow equation residual, m<={max_m}, degree<={max_degree}",
              "zero", "zero" if report.is_zero else str(report.offending))
    got = evolution.genus0_single_part_values(8)
    chk.check("single pole sequence in the genus-zero series",
              [Fraction(c) for c in _SINGLE_POLE_SEQUENCE], got)
    values = evolution.genus0_unit_values(10)
    for m in range(11):
        name = f"unit evaluation at u^{m}/{m}!"
        chk.check(name, _UNIT_EVALUATION[m], values[m])
        if m in _UNIT_EVALUATION_MISPRINTS:
            print(f"note {name}: printed {_UNIT_EVALUATION_MISPRINTS[m]} "
                  f"actual {values[m]} (recorded misprint)")


def _suite_nonsep(chk: _Checker) -> None:
    from . import nonsep
    for n in range(5):
        sizes = nonsep.tilde_class_sizes(n)
        sizes_ok = all(sizes[mu] == nonsep.tilde_class_size_formula(mu)
                       for mu in nonsep.tilde_enumerate_types(n))
        chk.check(f"class sizes match n!/zeta on {n} elements", True, sizes_ok)
        evolved = nonsep.tilde_evolve_labelled(n, 6)
        paths_ok = all(evolved[m] == nonsep.tilde_labelled_by_paths(n, m) for m in range(7))
        chk.check(f"walk counts equal evolution on {n} elements, m<=6",
                  True, paths_ok)
        chk.check(f"transcribed operator form agrees on {n} elements", True,
                  nonsep.tilde_mult_c2_matrix(n) == nonsep.tilde_operator_matrix(n).columns)
    chk.check("unsigned count at m=6, one pole of order 3", Fraction(9),
              nonsep.tilde_connected_value(nonsep.ttype(kappa_odd=(3,)), 6))


def cmd_verify(args) -> int:
    chk = _Checker()
    if args.suite == "paper":
        _suite_paper(chk)
    elif args.suite == "oracle":
        _suite_oracle(chk, args.max_size)
    elif args.suite == "spectral":
        _suite_spectral(chk)
    elif args.suite == "genus0":
        _suite_genus0(chk, args.max_m, args.max_degree)
    else:
        _suite_nonsep(chk)
    if chk.failures:
        print(f"{chk.failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


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
