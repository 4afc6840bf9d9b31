"""Transition-amplitude mechanics for anharmonic oscillators.

A small research library built around the two-index amplitude calculus:
one series engine for banded amplitudes with an exact Ritz frequency grid,
an order-by-order perturbation solver for cubic and quartic forces that
imposes the sum-rule quantum condition (the diagonal of [x, p] = i hbar),
a classical Fourier/action benchmark, and an independent number-basis
diagonalization oracle.
"""

from .params import OscillatorParams
from .core import BandAmplitudeArray, DimensionMismatchError
from .perturb import (
    CoefficientSet,
    EnergyConservationError,
    EnergyMatrix,
    NoClosedFormError,
    PerturbSolution,
    StructureViolationError,
    closed_form_amplitude,
    closed_form_frequency,
    energy_matrix,
    extract_structure_constants,
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
