"""Transition-amplitude mechanics for anharmonic oscillators.

A small research library built around the two-index amplitude calculus:
banded amplitude arrays with an exact Ritz frequency grid, the sum-rule
quantum condition, an order-by-order perturbation solver for cubic and
quartic forces, a classical Fourier/action benchmark, and an independent
number-basis diagonalization oracle.
"""

from .params import OscillatorParams
from .core import (
    BandAmplitudeArray,
    DimensionMismatchError,
    FrequencyGrid,
    MotionRepresentation,
    commutator_diagonal,
    quantum_condition_residual,
    time_derivative,
)
from .perturb import (
    CoefficientSet,
    EnergyConservationError,
    EnergyMatrix,
    NoClosedFormError,
    PerturbSolution,
    StructureViolationError,
    assemble_motion,
    closed_form_amplitude,
    closed_form_frequency,
    energy_matrix,
    extract_structure_constants,
    sho_solve,
    solve_perturbative,
)
from .classical import (
    ClassicalSolution,
    QuadratureMismatchError,
    action_integral,
    balance_residuals,
    classical_solve,
    ode_residual,
)
from .oracle import (
    NumericError,
    PlateauError,
    SpectrumResult,
    cubic_coupling_limit,
    diagonalize,
    lowest_eigenpairs,
    position_matrix,
    rspt,
    spectrum,
)

__version__ = "0.1.0"
