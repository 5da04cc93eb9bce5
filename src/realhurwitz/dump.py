"""The block and spectrum commands: dumps of one operator block and of its
spectral report. Only those two commands import this module, so no other
command compiles it. Every format goes through cli's writer: JSON as one
json.dumps text, CSV and text lines 1,024 at a time. The spectral report
reaches JSON through one hook, _fraction; the block's CSV reads the sparse
columns, not the dense view.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .cli import _write, _write_lines
from .model import Bidegree, format_type


def _fraction(x) -> list[str]:
    """The JSON hook: a Fraction as its numerator and denominator strings;
    any other type raises TypeError."""
    if not isinstance(x, Fraction):
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    return [str(x.numerator), str(x.denominator)]


def cmd_block(args) -> int:
    from .operators import OperatorKind, block_matrix
    bm = block_matrix(OperatorKind(args.operator), Bidegree(args.nplus, args.nminus))
    names = [format_type(mu) for mu in bm.basis]
    if args.format == "json":
        import json
        obj = {"bidegree": [args.nplus, args.nminus], "operator": args.operator, "basis": names,
               # converted here: through the hook, a 336-type block dumps a third slower
               "entries": [[_fraction(x) for x in row] for row in bm.entries]}
        _write(json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        # row-major over the nonzeros; an int column entry has a numerator and denominator too
        columns = [*zip(names, map(bm.columns.__getitem__, bm.basis))]
        _write_lines(["row_type,col_type,value_num,value_den",
                      *(f"{row},{col},{x.numerator},{x.denominator}"
                        for row, mu in zip(names, bm.basis) for col, column in columns
                        if (x := column.get(mu)))])
    else:
        _write_lines([f"operator {args.operator} on bidegree ({args.nplus}, {args.nminus})",
                      *(f"basis[{i}] = {name}" for i, name in enumerate(names)),
                      *("  ".join(str(x) for x in row) for row in bm.entries)])
    return 0


def cmd_spectrum(args) -> int:
    from . import spectral
    try:
        rep = spectral.common_eigenbasis(Bidegree(args.nplus, args.nminus), args.tol)
    except RuntimeError as exc:  # a structure check or the float certification failed
        print(f"spectrum: {exc}", file=sys.stderr)
        return 1
    orthogonal = spectral.orthogonality_check(rep)
    comparison = (spectral.compare_reference_eigenbasis()
                  if (args.nplus, args.nminus) == (1, 1) else ())
    names = [format_type(mu) for mu in rep.basis]
    if args.format == "json":
        import json
        obj = {"bidegree": [args.nplus, args.nminus], "basis": names, "exact": rep.exact,
               "charpoly_plus": rep.charpoly_plus, "charpoly_minus": rep.charpoly_minus,
               "pairs": rep.pairs, "vectors": rep.vectors, "orthogonal": orthogonal}
        if comparison:
            obj["reference_comparison"] = [c._asdict() for c in comparison]
        _write(json.dumps(obj, indent=2, default=_fraction) + "\n")
    elif args.format == "csv":
        _write_lines([",".join(["eigenvalue_plus", "eigenvalue_minus", *names]),
                      *(",".join(map(str, (*pair, *vec)))
                        for pair, vec in zip(rep.pairs, rep.vectors))])
    else:
        kind = "exact" if rep.exact else "certified floating point"
        _write_lines([f"bidegree ({args.nplus}, {args.nminus}), {kind}, Z-orthogonal: {orthogonal}",
                      *(f"basis: {name}" for name in names),
                      *(f"eigenvalues ({p}, {q}): ({', '.join(str(c) for c in vec)})"
                        for (p, q), vec in zip(rep.pairs, rep.vectors)),
                      *(f"printed row {c.index} {c.pattern}: "
                        + ("matches" if c.matches else "MISMATCH (suspected sign typo)")
                        for c in comparison)])
    return 0
