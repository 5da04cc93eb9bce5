"""Exact computation of framed simple purely real Hurwitz numbers.

Counts of real meromorphic functions with simple real critical values are
organized into an exponential generating series that evolves under a
cut-and-join operator on a bigraded polynomial space. Everything is computed
in exact rational arithmetic and double-checked against a brute-force
transition model on partial matchings.
"""

from .model import (
    Bidegree,
    RamificationType,
    bidegree,
    canonical_key,
    enumerate_bidegrees,
    enumerate_types,
    euler_characteristic,
    format_type,
    p_plus,
    p_minus,
    partition,
    partitions_of,
    q_var,
    rtype,
    zeta,
)
from .poly import LabelledSeries, PolyVector, series_exp, series_log
from .operators import (
    BlockMatrix,
    G0Type,
    OperatorKind,
    block_matrix,
    g0_from_type,
)
from .oracle import classify, hurwitz_by_paths, mult_c2_matrix, states
from .evolution import (
    HurwitzRow,
    connected_series,
    disconnected_series,
    evolve_block,
    genus0_series,
    genus0_single_part_values,
    genus0_unit_values,
    hurwitz_value,
    table_rows,
    verify_genus0_pde,
)
from .spectral import (
    SpectralReport,
    common_eigenbasis,
    compare_reference_eigenbasis,
    orthogonality_check,
)
from .nonsep import (
    TILDE_EMPTY,
    TildeType,
    tilde_classify,
    tilde_connected_value,
    tilde_evolve,
    tilde_hurwitz,
    tilde_operator_matrix,
    tilde_table_rows,
    ttype,
)

__version__ = "0.1.0"
