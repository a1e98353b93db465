"""Exact Hilbert series and Lefschetz properties of Artinian monomial algebras."""

from .analysis import (
    TwoVarProfile,
    coincides,
    is_almost_centered,
    is_symmetric,
    reflecting_degree,
    two_var_profile,
)
from .classify import (
    ClassificationVerdict,
    CsmDecomposition,
    CsmPiece,
    all_maci_grid,
    classify_maci,
    classify_support_two,
    csm_decomposition,
    grid_from_json,
    slp_symmetric,
    support_two_grid,
    symmetric_grid,
    symmetric_witness,
)
from .core import (
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    minimalize,
    parse_ideal,
    pure_power,
    render_monomial,
    standard_monomial_table,
)
from .oracle import (
    HypothesisViolation,
    LefschetzReport,
    MapRecord,
    lefschetz_report,
    matrix_rank,
    multiplication_matrix,
)
from .series import (
    HilbertSeries,
    MaciSpec,
    ci_series,
    hilbert_series,
    maci_from_ideal,
)

__version__ = "0.1.0"
