"""Generalized quantum search iterations with arbitrary phase rotations.

The package models search operators of the form Q = -I_gamma U^-1 I_tau U
(and the two-unitary variant Q = -I_gamma V I_tau U), tracks the evolution
of the initial state in the invariant subspace spanned by a handful of
basis vectors, and cross-checks the reduced recurrences against a dense
matrix simulation.
"""

from types import ModuleType as _ModuleType

from .linalg import (
    EQUIVALENCE_TOL,
    STRUCTURAL_TOL,
    DegenerateBasisError,
    HouseholderUnitary,
    PlaneRotation,
    adjoint,
    basis_state,
    gram_decompose,
    hermitian_dev,
    involution_dev,
    is_unitary,
    random_unitary,
    unitary_dev,
)
from .rotations import phase_scale, snapped_cos
from .engine2d import (
    K_EXACT_MAX,
    AlgorithmParams,
    AmplitudeTrajectory,
    ClosedFormRangeError,
    HoyerParams,
    PhaseCondition,
    SweepResult,
    TwoDimCoefficients,
    approx_b,
    closed_form_magnitude,
    exact_a,
    exact_b,
    grover_coeffs,
    hoyer_coeffs,
    iterate2,
    l_coeff,
    long_coeffs,
    phase_condition,
    present_coeffs,
    sweep_max,
    t_coeff,
)
from .engine4d import (
    FourAmplitudes,
    FourDimCoefficients,
    FourDimInputs,
    approx4,
    four_dim_coeffs,
    iterate4,
)
from .pairs import (
    CommutingUnitaryPair,
    LemmaFlags,
    block_symmetry_dev,
    companion,
    hermitian_iff_involution,
    is_block_symmetric,
    pair_swap,
    random_commuting_unitary,
    zero_diagonal_dev,
)
from .oracle import (
    OracleConfig,
    OracleRun,
    QFactors,
    QOperator,
    build_q,
    evolve,
    invariant_basis,
    target_amplitude,
    unitary_with_overlap,
)
from .reporting import Report, make_report, render, to_csv, to_json

__version__ = "0.1.0"

#: Every name imported above; each is listed once, in its import.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
