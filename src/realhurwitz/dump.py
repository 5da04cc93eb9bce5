"""The block and spectrum commands: dumps of one operator block and of its
spectral report. Only those two commands import this module, so no other
command compiles it. Every format goes through cli's writer, lines 1,024 at
a time, except the spectral report's JSON, one json.dumps text that reaches
its Fractions through one hook, _fraction. Every block dump reads the sparse
columns row by row, never the dense view of n^2 Fractions: the JSON in the
layout of json.dumps(..., indent=2), the CSV over the nonzeros.
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
    columns = [*zip(names, map(bm.columns.__getitem__, bm.basis))]
    # text and JSON read them row by row, lazily: an int, a Fraction, or None for a zero
    rows = ([column.get(mu) for _, column in columns] for mu in bm.basis)
    if args.format == "json":
        import json
        # json.dumps(..., indent=2) up to the entries, then each row in its layout,
        # an entry as its numerator and denominator strings
        head = json.dumps({"bidegree": [args.nplus, args.nminus], "operator": args.operator,
                           "basis": names}, indent=2)[:-2] + ',\n  "entries": [\n'
        zero = '      [\n        "0",\n        "1"\n      ]'
        _write_lines(("    [\n" + ",\n".join(
                          f'      [\n        "{x.numerator}",\n        "{x.denominator}"\n      ]'
                          if x else zero for x in row) + "\n    ]" for row in rows),
                     head, ",\n", "\n  ]\n}\n")
    elif args.format == "csv":
        # row-major over the nonzeros; an int column entry has a numerator and denominator too
        _write_lines(["row_type,col_type,value_num,value_den",
                      *(f"{row},{col},{x.numerator},{x.denominator}"
                        for row, mu in zip(names, bm.basis) for col, column in columns
                        if (x := column.get(mu)))])
    else:
        _write_lines([f"operator {args.operator} on bidegree ({args.nplus}, {args.nminus})",
                      *(f"basis[{i}] = {name}" for i, name in enumerate(names)),
                      *("  ".join(str(x) if x else "0" for x in row) for row in rows)])
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
