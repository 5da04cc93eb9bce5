"""Reference characteristic polynomial by dense Faddeev-LeVerrier.

It multiplies the full n x n integer matrices, O(n^3) per step, and is kept
only as the slow reference that the sparse-row recursion of
realhurwitz.spectral.charpoly is checked against.
"""

from fractions import Fraction
from math import lcm


def dense_charpoly(m):
    """Coefficients (c_0, ..., c_n), monic c_n = 1, of the Fraction matrix m."""
    n = len(m)
    if n == 0:
        return (Fraction(1),)
    scale = lcm(*(x.denominator for row in m for x in row))
    mat = [[int(x * scale) for x in row] for row in m]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    a = mat
    for k in range(1, n + 1):
        if k > 1:
            shift = coeffs[n - k + 1]
            shifted = [[a[i][j] + (shift if i == j else 0) for j in range(n)]
                       for i in range(n)]
            a = [[sum(mat[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        trace = sum(a[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError(f"trace {trace} at step {k} is not divisible by {k}")
        coeffs[n - k] = -trace // k
    return tuple(Fraction(coeffs[i], scale ** (n - i)) for i in range(n + 1))
