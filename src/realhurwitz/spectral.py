"""Simultaneous spectral decomposition of the block operator pair.

On every bidegree block the plus and minus operators commute and are
self-adjoint for the scalar product with diagonal Gram matrix Z = diag(zeta),
so they share an eigenbasis. The decomposition below works in exact rational
arithmetic whenever both characteristic polynomials factor over the integers
(their monic integer form makes every rational root an integer), and falls
back to certified floating point otherwise. Both properties are verified at
runtime and violations raise instead of degrading silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .model import Bidegree, RamificationType, bidegree, rtype, p_plus, p_minus, q_var, zeta
from .operators import BlockMatrix, OperatorKind, block_matrix

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat_scale_diag(a: Matrix, lam: Fraction) -> Matrix:
    return tuple(tuple(a[i][j] - (lam if i == j else 0) for j in range(len(a)))
                 for i in range(len(a)))


def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients (c_0, ..., c_n), monic c_n = 1.

    Faddeev-LeVerrier M_k = A (M_{k-1} + c_{n-k+1} I) from M_0 = 0, with A
    scaled to integers by the common denominator so the trace divisions stay
    exact. Row i of M_k sums a_it (row t of M_{k-1} + c e_t) over the nonzeros
    a_it of row i of A: O(nnz n) per step, O(nnz n^2) products in all.
    """
    n = len(m)
    scale = lcm(*(x.denominator for row in m for x in row))
    nonzeros = [[(t, int(x * scale)) for t, x in enumerate(row) if x] for row in m]
    coeffs = [0] * n + [1]
    a = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        shift = coeffs[n - k + 1]
        prev, a = a, []
        for row in nonzeros:
            acc = [0] * n
            for t, x in row:
                acc = [u + x * v for u, v in zip(acc, prev[t])]
                acc[t] += x * shift
            a.append(acc)
        trace = sum(a[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError(f"trace {trace} at step {k} is not divisible by {k}")
        coeffs[n - k] = -trace // k
    return tuple(Fraction(coeffs[i], scale ** (n - i)) for i in range(n + 1))


def eigenvalue_bound(m: Matrix) -> int:
    """Integer upper bound on eigenvalue magnitudes: the max row sum norm."""
    bound = max((sum(abs(x) for x in row) for row in m), default=Fraction(0))
    return int(bound) + 1


def integer_roots(coeffs: Sequence[Fraction], bound: int) -> list[int] | None:
    """Roots with multiplicity of a monic integer polynomial, or None if it
    does not factor completely over the integers.

    Candidates are integers r with |r| <= bound dividing the constant term,
    so bound must dominate every root (eigenvalue_bound does). Returns None
    on any rational non-integer coefficient.
    """
    if any(c.denominator != 1 for c in coeffs):
        return None
    poly = [int(c) for c in coeffs]  # poly[i] = coefficient of x^i
    roots: list[int] = []
    while len(poly) > 1:
        if poly[0] == 0:
            candidates = [0]
        else:
            candidates = [s * d for d in range(1, bound + 1) for s in (1, -1)
                          if poly[0] % d == 0]
        for r in candidates:
            # synthetic division from the leading coefficient down
            quotient = []
            acc = 0
            for c in reversed(poly):
                acc = acc * r + c
                quotient.append(acc)
            if acc == 0:
                roots.append(r)
                poly = quotient[:-1][::-1]
                break
        else:
            return None
    roots.sort(reverse=True)
    return roots


def _row_reduce(rows: list[list], width: int) -> list[int]:
    """Gauss-Jordan elimination of rows in place on the first width columns.

    Returns the pivot columns; the pivot of row r is pivots[r], scaled to 1.
    """
    pivots: list[int] = []
    for col in range(width):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the null space, from reduced row echelon form; m may have
    more rows than columns."""
    n = len(m[0])
    rows = [list(r) for r in m]
    pivots = _row_reduce(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def normalize_primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to coprime integer entries with positive first nonzero entry."""
    denom = lcm(*(c.denominator for c in vec)) if vec else 1
    ints = [int(c * denom) for c in vec]
    g = gcd(*ints) or 1
    ints = [c // g for c in ints]
    first = next((c for c in ints if c), 1)
    if first < 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints)


class SpectralReport(NamedTuple):
    """Common eigenbasis of the plus and minus operators on one block."""

    bidegree: Bidegree
    basis: tuple[RamificationType, ...]
    charpoly_plus: tuple[Fraction, ...]
    charpoly_minus: tuple[Fraction, ...]
    # pairs and vectors hold Fractions on the exact path, floats otherwise
    pairs: tuple[tuple[Fraction, Fraction], ...]
    vectors: tuple[tuple[Fraction, ...], ...]  # rows, coordinates in basis
    exact: bool
    tol: float
    max_residual: float  # 0.0 on the exact path, else the largest one measured


def _check_block_structure(wp: BlockMatrix, wm: BlockMatrix) -> tuple[Fraction, ...]:
    """Verify commutativity and Z-self-adjointness over the nonzero entries;
    returns the zeta diagonal."""
    for mu in wp.basis:
        if wp.step(wm.columns[mu]) != wm.step(wp.columns[mu]):
            raise RuntimeError(f"operators fail to commute on block {wp.block}")
    for name, op in (("plus", wp), ("minus", wm)):
        for mu, col in op.columns.items():
            if any(c * zeta(nu) != op.columns[nu].get(mu, 0) * zeta(mu)
                   for nu, c in col.items()):
                raise RuntimeError(
                    f"{name} operator is not Z-self-adjoint on block {wp.block}")
    return tuple(Fraction(zeta(mu)) for mu in wp.basis)


def _gram_schmidt_z(vectors: list[tuple[Fraction, ...]],
                    zs: tuple[Fraction, ...]) -> list[tuple[Fraction, ...]]:
    ortho: list[tuple[Fraction, ...]] = []
    for v in vectors:
        w = list(v)
        for u in ortho:
            num = sum(a * b * z for a, b, z in zip(w, u, zs))
            den = sum(b * b * z for b, z in zip(u, zs))
            coef = num / den
            if coef:
                w = [a - coef * b for a, b in zip(w, u)]
        ortho.append(tuple(w))
    return ortho


def _exact_eigenbasis(plus: BlockMatrix, minus: BlockMatrix, zs: tuple[Fraction, ...],
                      charpoly_plus: tuple[Fraction, ...],
                      charpoly_minus: tuple[Fraction, ...]):
    """The joint eigenspace of each pair of integer roots (a, b) of the two
    characteristic polynomials: the kernel of W+ - a stacked on W- - b.

    Returns (pairs, vectors) or None when a characteristic polynomial does
    not factor over the integers.
    """
    wp, wm = plus.entries, minus.entries
    bound = max(eigenvalue_bound(wp), eigenvalue_bound(wm))
    roots_plus = integer_roots(charpoly_plus, bound)
    if roots_plus is None:
        return None
    roots_minus = integer_roots(charpoly_minus, bound)
    if roots_minus is None:
        return None
    out: list[tuple[tuple[Fraction, Fraction], tuple[Fraction, ...]]] = []
    for lam_p in sorted(set(roots_plus), reverse=True):
        shifted_plus = _mat_scale_diag(wp, Fraction(lam_p))
        for lam_m in sorted(set(roots_minus), reverse=True):
            space = kernel_basis(shifted_plus + _mat_scale_diag(wm, Fraction(lam_m)))
            for vec in _gram_schmidt_z(space, zs):
                out.append(((Fraction(lam_p), Fraction(lam_m)),
                            normalize_primitive(vec)))
    if len(out) != len(wp):
        raise RuntimeError(f"joint eigenspaces span {len(out)} of {len(wp)} dimensions")
    out.sort(key=lambda item: (item[0][0], item[0][1]), reverse=True)
    return tuple(p for p, _ in out), tuple(v for _, v in out)


# W+ eigenvalues closer than this, relative to the operator scale, form one
# eigenspace. eigh rounds eigenvalues by about machine epsilon times the
# scale; this threshold sits far above that and far below the eigenvalue
# gaps, and does not depend on the residual bound a caller certifies.
_CLUSTER = 1e-8


def _float_eigenbasis(wp: Matrix, wm: Matrix, zs: tuple[Fraction, ...], tol: float):
    """Certified floating point fallback via symmetrization D W D^{-1}.

    Returns (pairs, vectors, the largest eigenpair residual measured)."""
    import numpy as np

    n = len(wp)
    d = np.sqrt(np.array([float(z) for z in zs]))
    ap = np.array([[float(x) for x in row] for row in wp])
    am = np.array([[float(x) for x in row] for row in wm])
    sp = d[:, None] * ap / d[None, :]
    sm = d[:, None] * am / d[None, :]
    sp = (sp + sp.T) / 2
    sm = (sm + sm.T) / 2
    vals_p, u = np.linalg.eigh(sp)
    order = np.argsort(-vals_p, kind="stable")
    vals_p, u = vals_p[order], u[:, order]
    pairs = []
    vectors = []
    worst = 0.0
    i = 0
    scale = max(1.0, float(np.abs(sp).max()), float(np.abs(sm).max()))
    while i < n:
        j = i
        while j < n and abs(vals_p[j] - vals_p[i]) <= _CLUSTER * scale:
            j += 1
        cluster = u[:, i:j]
        sub = cluster.T @ sm @ cluster
        vals_m, v2 = np.linalg.eigh((sub + sub.T) / 2)
        order2 = np.argsort(-vals_m, kind="stable")
        vals_m, v2 = vals_m[order2], v2[:, order2]
        combined = cluster @ v2
        for t in range(j - i):
            y = combined[:, t]
            lp, lm = float(vals_p[i]), float(vals_m[t])
            res = max(float(np.abs(sp @ y - lp * y).max()),
                      float(np.abs(sm @ y - lm * y).max()))
            if res > tol * scale:
                raise RuntimeError(
                    f"floating point eigenpair residual {res} exceeds tolerance")
            worst = max(worst, res)
            x = y / d
            x = x / np.abs(x).max()
            first = next(val for val in x if abs(val) > tol)
            if first < 0:
                x = -x
            pairs.append((lp, lm))
            vectors.append(tuple(x))
        i = j
    order3 = sorted(range(n), key=lambda t: (pairs[t][0], pairs[t][1]), reverse=True)
    return (tuple(pairs[t] for t in order3), tuple(vectors[t] for t in order3), worst)


def common_eigenbasis(b: Bidegree, tol: float = 1e-10) -> SpectralReport:
    """Simultaneous eigenbasis of the plus and minus operators on block b.

    tol, strictly between 0 and 1, bounds residuals relative to the operator
    scale; a float eigenvector's sign is set by its first entry above tol.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must lie strictly between 0 and 1, got {tol!r}")
    wp = block_matrix(OperatorKind.WPLUS, b)
    wm = block_matrix(OperatorKind.WMINUS, b)
    zs = _check_block_structure(wp, wm)
    cp, cm = charpoly(wp.entries), charpoly(wm.entries)
    exact = _exact_eigenbasis(wp, wm, zs, cp, cm)
    if exact is not None:
        pairs, vectors = exact
        return SpectralReport(wp.block, wp.basis, cp, cm, pairs, vectors,
                              True, tol, 0.0)
    pairs, vectors, residual = _float_eigenbasis(wp.entries, wm.entries, zs, tol)
    return SpectralReport(wp.block, wp.basis, cp, cm, pairs, vectors,
                          False, tol, residual)


def orthogonality_check(report: SpectralReport) -> bool:
    """Z-orthogonality of eigenvectors with distinct eigenvalue pairs."""
    zs = [zeta(mu) for mu in report.basis]
    n = len(report.vectors)
    for i in range(n):
        for j in range(i + 1, n):
            if report.pairs[i] == report.pairs[j]:
                continue
            dot = sum(a * b * z for a, b, z in
                      zip(report.vectors[i], report.vectors[j], zs))
            if report.exact:
                if dot != 0:
                    return False
            elif abs(float(dot)) > report.tol * 10:
                return False
    return True


def mean_eigenvalue_check(report: SpectralReport) -> bool:
    """Each common eigenvector is an eigenvector of the mean operator with
    eigenvalue the average of the pair."""
    wmean = block_matrix(OperatorKind.WMEAN, report.bidegree)
    for (lp, lm), vec in zip(report.pairs, report.vectors):
        # exact: a float coordinate is read as the rational it equals
        image = wmean.step({mu: Fraction(c) for mu, c in zip(wmean.basis, vec) if c})
        image = [image.get(mu, 0) for mu in wmean.basis]
        want = [(lp + lm) / 2 * c for c in vec]
        if report.exact:
            if image != want:
                return False
        elif any(abs(float(x - y)) > report.tol * 10 for x, y in zip(image, want)):
            return False
    return True


# printed sign patterns for the block (1, 1) eigenbasis, in the display
# order (p_2^+, p_2^-, p_1^+ p_1^-, q_1)
_DISPLAY_BASIS_1_1 = (p_plus(2), p_minus(2), rtype((1,), (1,)), q_var(1))
REFERENCE_PATTERNS_1_1: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 1, 1),
    (1, 1, -1, 1),
    (1, -1, 1, -1),
    (1, -1, -1, -1),
)


class CandidateComparison(NamedTuple):
    index: int
    pattern: tuple[int, int, int, int]
    matches: bool
    pair: tuple[Fraction, Fraction] | None


def simultaneous_eigenvalues(v: dict) -> tuple[Fraction, Fraction] | None:
    """Eigenvalue pair of a claimed common eigenvector {type: Fraction},
    stepped through the operators on the block of its first type, or None."""
    if not v:
        return None
    mu, c = next(iter(v.items()))
    out = []
    for kind in (OperatorKind.WPLUS, OperatorKind.WMINUS):
        image = block_matrix(kind, bidegree(mu)).step(v)
        lam = image.get(mu, 0) / c
        if image != {nu: lam * x for nu, x in v.items() if lam * x}:
            return None
        out.append(lam)
    return (out[0], out[1])


def compare_reference_eigenbasis() -> tuple[CandidateComparison, ...]:
    """Check each printed block (1, 1) sign pattern for being a simultaneous
    eigenvector. Mismatches are recorded, never raised: two of the four
    printed rows fail the eigenvector property and are flagged as suspected
    sign typos, while the computed basis stands on its own."""
    results = []
    for idx, pattern in enumerate(REFERENCE_PATTERNS_1_1, start=1):
        pair = simultaneous_eigenvalues({mu: Fraction(s) for mu, s in
                                         zip(_DISPLAY_BASIS_1_1, pattern)})
        results.append(CandidateComparison(idx, pattern, pair is not None, pair))
    return tuple(results)
