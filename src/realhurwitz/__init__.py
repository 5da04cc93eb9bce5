"""Exact computation of framed simple purely real Hurwitz numbers.

Counts of real meromorphic functions with simple real critical values are
organized into an exponential generating series that evolves under a
cut-and-join operator on a bigraded polynomial space. Everything is computed
in exact rational arithmetic and double-checked against a brute-force
transition model on partial matchings.

The names below are exported from the submodules that define them. Importing
the package loads none of those submodules: each is imported the first time
one of its names is read (PEP 562), so a command loads only what it runs.
"""

from importlib import import_module

_EXPORTS = {
    "model": (
        "Bidegree", "RamificationType", "bidegree", "canonical_key",
        "enumerate_bidegrees", "enumerate_types", "euler_characteristic",
        "format_type", "p_plus", "p_minus", "partition", "partitions_of",
        "q_var", "rtype", "zeta",
    ),
    "poly": ("LabelledSeries", "series", "value"),
    "explog": ("series_exp", "series_log"),
    "operators": ("BlockMatrix", "OperatorKind", "block_matrix", "operator_matrix"),
    "oracle": ("SIGNED_WALK", "class_multiplication", "classify", "states", "walk_totals"),
    "evolution": ("SIGNED",),
    "genus0": ("G0Type", "g0_from_type", "genus0_series", "genus0_single_part_values",
               "genus0_unit_values", "verify_genus0_pde"),
    "spectral": ("SpectralReport", "common_eigenbasis",
                 "compare_reference_eigenbasis", "orthogonality_check"),
    "nonsep": ("TILDE_EMPTY", "TildeType", "UNSIGNED", "UNSIGNED_WALK", "tilde_classify", "ttype"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
