"""The verification suites of `realhurwitz verify`, with the paper's printed
data they check against. Only the `verify` command imports this module; each
suite imports the modules it runs.
"""

from __future__ import annotations

from .cli import _write
from .model import (Bidegree, bidegree_box, enumerate_bidegrees, format_type, p_minus, p_plus,
                    q_var, rtype)
from .operators import OperatorKind, block_matrix, evolve, operator_matrix


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
        mark = "ok  " if expected == actual else "FAIL"
        self.failures += mark == "FAIL"
        _write(f"{mark} {name}: expected {_show(expected)} actual {_show(actual)}\n")

    def poly_check(self, name: str, expected, actual) -> None:
        if expected == actual:
            _write(f"ok   {name}\n")
            return
        self.failures += 1
        diffs = [f"{format_type(k)}: expected {expected.get(k, 0)} actual {actual.get(k, 0)}"
                 for k in sorted(expected.keys() | actual.keys(), key=str)
                 if expected.get(k, 0) != actual.get(k, 0)]
        _write(f"FAIL {name}: " + "; ".join(diffs) + "\n")


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
_UNIT_EVALUATION = [1, 0, 1, 0, 2, 0, 20, 0, 406, 0, 14652]

_UNIT_EVALUATION_MISPRINTS = {2: "1/2"}


def _suite_paper(chk: _Checker, args) -> None:
    from . import evolution, nonsep
    from .poly import series, value
    # every signed check lies in the box (4, 4) through u^7, so one log serves
    conn = series(evolution.SIGNED, bidegree_box(Bidegree(4, 4)), 7, True)
    for m, coeffs in _PRINTED_EXPANSION.items():
        chk.poly_check(f"connected series coefficient of u^{m}/{m}!",
                       coeffs, {k: c for k, c in conn.coeff(m).items() if k.degree <= 4})
    got = [conn.value(p_plus(n), n - 1) for n in range(1, 9)]
    chk.check("single positive real pole sequence n=1..8", _SINGLE_POLE_SEQUENCE, got)
    chk.check("count at m=6, one positive pole of order 3", 4, conn.value(p_plus(3), 6))
    chk.check("count at m=6, one negative pole of order 3", 4, conn.value(p_minus(3), 6))
    chk.check("unsigned count at m=6, one pole of order 3", 9,
              value(nonsep.UNSIGNED, nonsep.ttype(kappa_odd=(3,)), 6))


def _walk_checks(chk: _Checker, walk, block, where: str, binding=None, sides=()) -> None:
    """One block of a walk model: given a series binding, its walk totals against
    the evolution; then each (side, text, matrix) of sides against its class sums."""
    from .oracle import class_multiplication, walk_totals
    if binding:
        chk.check(f"walk counts equal evolution on {where}, m<=6", True,
                  evolve(binding, block, 6) == walk_totals(walk, block, 6))
    for side, text, matrix in sides:
        chk.check(f"{text} on {where}", True,
                  class_multiplication(walk, block, side) == matrix.columns)


def _suite_oracle(chk: _Checker, args) -> None:
    from .evolution import SIGNED
    from .oracle import SIGNED_WALK
    for b in enumerate_bidegrees(args.max_size):
        _walk_checks(chk, SIGNED_WALK, b, f"{tuple(b)}", sides=[
            (side, f"{sign} operator equals {side} class multiplication", block_matrix(kind, b))
            for side, sign, kind in (("left", "plus", OperatorKind.WPLUS),
                                     ("right", "minus", OperatorKind.WMINUS))])
    for b in enumerate_bidegrees(args.max_size):
        _walk_checks(chk, SIGNED_WALK, b, f"{tuple(b)}", SIGNED)


def _suite_spectral(chk: _Checker, args) -> None:
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


def _suite_genus0(chk: _Checker, args) -> None:
    from . import genus0
    from .evolution import SIGNED
    from .poly import series
    max_m, max_degree = args.max_m, args.max_degree
    # one connected series on the union of the caps of the three checks, sliced
    # for each: the flow's, single poles through u^7 at degree 8, units through u^10
    conn = series(SIGNED, enumerate_bidegrees(max(max_degree, 8)), max(max_m + 1, 10), True)
    report = genus0.verify_genus0_pde(max_m, max_degree, conn)
    chk.check(f"flow equation residual, m<={max_m}, degree<={max_degree}",
              "zero", "zero" if report.is_zero else str(report.offending))
    got = genus0.genus0_single_part_values(8, conn)
    chk.check("single pole sequence in the genus-zero series", _SINGLE_POLE_SEQUENCE, got)
    values = genus0.genus0_unit_values(10, conn)
    for m in range(11):
        name = f"unit evaluation at u^{m}/{m}!"
        chk.check(name, _UNIT_EVALUATION[m], values[m])
        if m in _UNIT_EVALUATION_MISPRINTS:
            _write(f"note {name}: printed {_UNIT_EVALUATION_MISPRINTS[m]} "
                   f"actual {values[m]} (recorded misprint)\n")


def _suite_nonsep(chk: _Checker, args) -> None:
    from .nonsep import UNSIGNED, UNSIGNED_WALK, tilde_class_size_formula, tilde_class_sizes, ttype
    from .poly import value
    for n in range(5):
        sizes, matrix = tilde_class_sizes(n), operator_matrix(UNSIGNED, (n,))
        chk.check(f"class sizes match n!/zeta on {n} elements", True,
                  all(sizes[mu] == tilde_class_size_formula(mu) for mu in matrix.basis))
        _walk_checks(chk, UNSIGNED_WALK, (n,), f"{n} elements", UNSIGNED,
                     [("left", "transcribed operator form agrees", matrix)])
    chk.check("unsigned count at m=6, one pole of order 3", 9,
              value(UNSIGNED, ttype(kappa_odd=(3,)), 6))


def run_suite(args) -> int:
    """Run the chosen suite, one line per check; exit code 1 if any fails."""
    chk = _Checker()
    {"paper": _suite_paper, "oracle": _suite_oracle, "spectral": _suite_spectral,
     "genus0": _suite_genus0, "nonsep": _suite_nonsep}[args.suite](chk, args)
    if chk.failures:
        _write(f"{chk.failures} check(s) failed\n")
        return 1
    _write("all checks passed\n")
    return 0
