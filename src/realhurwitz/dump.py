"""The block and spectrum commands: dumps of one operator block and of its
spectral report. Only those two commands import this module, so no other
command compiles it; their output goes through cli's writer.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import Iterable

from .cli import _write
from .model import Bidegree, format_type


def _frac_pair(x) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _write_csv(header: list, records: Iterable[list]) -> None:
    """CSV on stdout, written a block of 1,024 rows at a time. No field of
    these dumps (digits, signs, points, spaces, brackets, colons) needs quoting."""
    records = iter(records)
    block = [header]
    while block:
        _write("".join(",".join(row) + "\n" for row in block))
        block = list(islice(records, 1024))


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
