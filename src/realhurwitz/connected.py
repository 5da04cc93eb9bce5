"""The connected series of a walk model, by its cut-and-join equation.

W acts on the one-part monomials (the variables) as a differential operator
of order two, so the log F of the disconnected series e^(uW) H_0 flows by
the connected equation of Goulden and Jackson (1997): dF/du = W F +
beta(F, F)/2, beta(f, g) = W(fg) - W(f) g - f W(g). beta is a biderivation,
the sum of beta(x_v, x_w) dF/dx_v dG/dx_w over pairs of variables, and
beta(x_v, x_w) holds the joins of the two. On labelled ints (see poly) the
piece of grade b reads

    2 X_b[m+1] = 2 W X_b[m] + sum over 0 < c < b of
                 w(b, c) sum_k comb(m, k) beta(X_c[k], X_(b-c)[m-k]),

w(b, c) = prod_i comb(b_i, c_i), from X_b[0], the one-variable entries of
the model's labelled start, which is the exp of their sum. Only poly.series
imports this module, for connected counts.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb, prod

from .model import ModelBinding, nonnegative
from .operators import _image, _insert, _moves


def _start(model: ModelBinding, grade: tuple) -> dict:
    """X_b[0]: the one-variable entries of the model's labelled start."""
    return {mu: x for mu, x in model.start(grade).items() if sum(map(len, mu)) == 1}


def _grade_pairs(b: tuple, grades) -> list[tuple]:
    """(c, b - c, w(b, c)) for each unordered pair of nonzero grades adding
    to b, the weight doubled where the two differ, for beta is symmetric."""
    pairs = [(c, tuple(x - y for x, y in zip(b, c))) for c in grades if any(c)]
    return [(c, d, prod(map(comb, b, c)) * (1 + (c != d)))
            for c, d in pairs if any(d) and min(d) >= 0 and c <= d]


def _derivatives(vec: dict) -> dict:
    """The derivatives of a labelled vector, {variable: {rest: multiplicity
    * x}}, each variable and rest made of checked partitions."""
    out: dict = {}
    for mu, x in vec.items():
        kind, blank = type(mu), ((),) * len(mu)
        for i, p in enumerate(mu):
            counts, less = _moves(p)[:2]
            for n, c in counts:
                v = tuple.__new__(kind, blank[:i] + (_insert((), n),) + blank[i + 1:])
                rest = tuple.__new__(kind, mu[:i] + (less[n],) + mu[i + 1:])
                out.setdefault(v, {})[rest] = c * x
    return out


def _beta(column, v, w) -> dict:
    """beta(x_v, x_w) without its zero sums: empty unless W joins v and w."""
    out = dict(column(v.union(w)))
    for a, b in ((v, w), (w, v)):
        for nu, x in column(a).items():
            out[key] = out.get(key := nu.union(b), 0) - x
    return {nu: x for nu, x in out.items() if x}


def _halved(total: dict) -> dict:
    """Each nonzero labelled sum over 2, exactly: an odd one raises ArithmeticError."""
    for key, x in total.items():
        if x % 2:
            raise ArithmeticError(f"labelled sum {x} at {key!r} is not even")
    return {key: x // 2 for key, x in total.items() if x}


def _joined(pairs: list, tables: dict, m: int, beta) -> dict:
    """dF/dx_v dG/dx_w at order m for each pair of variables that W joins,
    summed over the grade pairs and orders before beta(x_v, x_w) multiplies it."""
    joined: dict = {}
    for c, d, weight in pairs:
        for k in range(m + 1):
            f, right = weight * comb(m, k), tables[d][m - k]
            for v, dv in tables[c][k].items():
                for w, dw in right.items():
                    if beta(v, w):
                        out = joined.setdefault((v, w), {})
                        for r, x in dv.items():
                            x *= f
                            for s, y in dw.items():
                                out[key] = out.get(key := r.union(s), 0) + x * y
    return joined


def connected_series(model: ModelBinding, grades, max_m: int) -> dict:
    """The pieces {grade: [X[0], ..., X[max_m]]} of the connected series on
    the listed grades through u^max_m. A grade or order that is not a
    nonnegative int raises ValueError, and so does a grade listed without
    one of its smaller neighbours, whose products make its piece."""
    grades = list(dict.fromkeys(grades))
    for g in grades:
        nonnegative(max_m=max_m, **{f"grade[{i}]": n for i, n in enumerate(g)})
    for g in grades:
        if any(x and g[:i] + (x - 1,) + g[i + 1:] not in grades for i, x in enumerate(g)):
            raise ValueError(f"grade {tuple(g)} is listed without a smaller one")
    beta = cache(partial(_beta, model.column))
    tables: dict = {}  # grade -> the derivatives of its piece at each order below max_m
    pieces: dict = {}
    for b in sorted(grades, key=sum):
        pairs, piece = _grade_pairs(b, grades), [_start(model, b)]
        for m in range(max_m):
            total = {key: 2 * x for key, x in _image(piece[-1], model.column).items()}
            for (v, w), products in _joined(pairs, tables, m, beta).items():
                for nu, y in beta(v, w).items():
                    for rest, z in products.items():
                        total[key] = total.get(key := nu.union(rest), 0) + y * z
            piece.append(_halved(total))
        pieces[b] = piece
        tables[b] = [_derivatives(vec) for vec in piece[:max_m]]
    return pieces
