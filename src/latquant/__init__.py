"""latquant: data-driven quantization of linear layers as a lattice
closest-vector problem.

Quantizing one neuron means picking integer coordinates v minimizing
||X w - X v|| over calibration inputs X: a closest-vector search in the
lattice generated by the columns of X.  The package ships the sequential
parameter-space solver, the data-space nearest-plane sweep, recursive
variants that make their equivalence executable, worst-case error bounds,
an exhaustive oracle for small instances, and LLL basis reduction as a
quality booster, plus a CSV/JSON command-line harness.
"""

from .linalg import (
    IllConditionedWarning,
    NotPositiveDefinite,
    QLFactors,
    RankDeficient,
    SingularDiagonal,
    cholesky_spd,
    invert_lower_triangular,
    ql_decompose,
)
from .lattice import (
    AbsoluteBound,
    CvpSolution,
    DimensionTooLarge,
    GammaBound,
    IntegerOverflow,
    LatticeBasis,
    absolute_error_bound,
    babai_from_target,
    babai_nearest_plane,
    brute_force_cvp,
    fragile_indices,
    relative_error_factor,
    round_half_even,
    solve_cvp_exact,
)
from .quantize import (
    CrossLayerResult,
    MatrixQuantReport,
    QuantConfig,
    QuantResult,
    clear_basis_memo,
    cross_layer_target,
    gptq_quantize,
    gptq_quantize_recursive,
    quantize_matrix,
    regularize,
    resolve_mu,
    scaled_quantize,
)
from .reduction import (
    ReducedBasis,
    is_lll_reduced,
    lll_reduce,
    map_solution,
    unimodular_det,
)
from .matio import (
    ParseError,
    RaggedRows,
    load_matrix_csv,
    parse_matrix_csv,
    save_matrix_csv,
    serialize_matrix_csv,
)
from .report import REPORT_SCHEMA, Report

__version__ = "0.1.0"

__all__ = [
    "AbsoluteBound",
    "CrossLayerResult",
    "CvpSolution",
    "DimensionTooLarge",
    "GammaBound",
    "IllConditionedWarning",
    "IntegerOverflow",
    "LatticeBasis",
    "MatrixQuantReport",
    "NotPositiveDefinite",
    "ParseError",
    "QLFactors",
    "QuantConfig",
    "QuantResult",
    "RaggedRows",
    "RankDeficient",
    "ReducedBasis",
    "Report",
    "REPORT_SCHEMA",
    "SingularDiagonal",
    "absolute_error_bound",
    "babai_from_target",
    "babai_nearest_plane",
    "brute_force_cvp",
    "cholesky_spd",
    "clear_basis_memo",
    "cross_layer_target",
    "fragile_indices",
    "gptq_quantize",
    "gptq_quantize_recursive",
    "invert_lower_triangular",
    "is_lll_reduced",
    "lll_reduce",
    "load_matrix_csv",
    "map_solution",
    "parse_matrix_csv",
    "ql_decompose",
    "quantize_matrix",
    "regularize",
    "relative_error_factor",
    "resolve_mu",
    "round_half_even",
    "save_matrix_csv",
    "scaled_quantize",
    "serialize_matrix_csv",
    "solve_cvp_exact",
    "unimodular_det",
]
