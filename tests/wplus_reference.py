"""Reference images of the plus operator, computed afresh on every call.

Each image merges and removes parts with the model's partition helpers, with
no cache. It is kept only as the reference that the cached partition moves
of realhurwitz.operators.wplus_images are checked against: both must yield
the same sequence of (type, multiplicity).
"""

from collections import Counter

from realhurwitz.model import RamificationType, merge_partitions, without


def wplus_images(mu):
    """Images of the plus operator on the monomial p_mu.

    Yields (type, integer multiplier); repeated types may appear and must be
    summed by the caller.
    """
    kp, km, lam = mu.kappa_plus, mu.kappa_minus, mu.lam
    kp_counts = Counter(kp)
    km_counts = Counter(km)
    # cut differentiating a plus part: i even, both new parts positive
    for n, mult in kp_counts.items():
        for i in range(2, n, 2):
            yield RamificationType(merge_partitions(without(kp, n), (i, n - i)), km, lam), mult
    # cut differentiating a minus part: i odd stays negative, j positive
    for n, mult in km_counts.items():
        for i in range(1, n, 2):
            yield (RamificationType(merge_partitions(kp, (n - i,)),
                                    merge_partitions(without(km, n), (i,)), lam), mult)
    # join of two plus parts (i even): result positive
    for i in kp_counts:
        if i % 2:
            continue
        for j in kp_counts:
            mult = kp_counts[i] * (kp_counts[j] - (1 if i == j else 0))
            if mult:
                yield (RamificationType(merge_partitions(without(kp, i, j), (i + j,)), km, lam),
                       mult)
    # join of a minus part (i odd) with a plus part: result negative
    for i in km_counts:
        if i % 2 == 0:
            continue
        for j in kp_counts:
            yield (RamificationType(without(kp, j),
                                    merge_partitions(without(km, i), (i + j,)), lam),
                   km_counts[i] * kp_counts[j])
    # complex pair of order l becomes a positive real part 2l, weight l
    for l, mult in Counter(lam).items():
        yield RamificationType(merge_partitions(kp, (2 * l,)), km, without(lam, l)), l * mult
    # even positive real part 2l becomes a complex pair of order l
    for n, mult in kp_counts.items():
        if n % 2 == 0:
            yield RamificationType(without(kp, n), km, merge_partitions(lam, (n // 2,))), mult

