"""Transition-amplitude mechanics for anharmonic oscillators.

A small research library built around the two-index amplitude calculus:
banded amplitude arrays with an exact Ritz frequency grid, the sum-rule
quantum condition, an order-by-order perturbation solver for cubic and
quartic forces, a classical Fourier/action benchmark, and an independent
number-basis diagonalization oracle.
"""

from .params import OscillatorParams, PhysicalConstants, SI_CONSTANTS
from .core import (
    BandAmplitudeArray,
    DimensionMismatchError,
    EmissionResult,
    FrequencyGrid,
    LevelSpectrum,
    MotionRepresentation,
    NotAnEmissionError,
    commutator_diagonal,
    emission_power,
    frequency_grid_from_levels,
    multiply,
    quantum_condition_residual,
    time_derivative,
)
from .perturb import (
    CoefficientSet,
    EnergyConservationError,
    EnergyDiagonalSeries,
    EnergyMatrix,
    NoClosedFormError,
    PerturbSolution,
    StructureViolationError,
    UnimplementedOrderError,
    UnsupportedForceError,
    assemble_motion,
    build_recursions,
    closed_form_amplitude,
    closed_form_frequency,
    energy_diagonal_series,
    energy_matrix,
    extract_structure_constants,
    quantum_condition_order_residual,
    sho_solve,
    solve_perturbative,
)
from .classical import (
    ClassicalSolution,
    QuadratureMismatchError,
    action_integral,
    balance_residuals,
    classical_solve,
    fourier_product,
    ode_residual,
)
from .oracle import (
    NumericError,
    PlateauError,
    SeriesFit,
    SpectrumResult,
    TruncatedOperator,
    build_hamiltonian,
    cubic_coupling_limit,
    default_lambda_grid,
    diagonalize,
    lambda_series_fit,
    motion_from_spectrum,
    position_matrix,
    rspt,
    spectrum,
)

__version__ = "0.1.0"
