"""Invariant checks, each defined once for the command line and the tests.

A check returns (observed, tolerance) and passes when observed <= tolerance;
a check against a window returns (observed, (low, high)). A group yields
(check id, observed, tolerance) in report order.

A rounding check sizes its tolerance by its own terms: c*eps times their
summed absolute size (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 4), in the units of `observed`, so that a verdict does not
flip with n_max or the units. A frequency omega(n, m) = Omega(n) - Omega(m)
is sized by the potentials it is the difference of, which carry its
rounding. The off-diagonal energy check is `EnergyMatrix.offdiag`, which
`energy_matrix` guards with as well.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import (BandAmplitudeArray, FrequencyGrid, MotionRepresentation,
                   commutator_diagonal, multiply, quantum_condition_residual,
                   time_derivative)
from .perturb import (ROUNDING_C, EnergyConservationError, StructureViolationError,
                      _engine_extent, _eom_terms, _half, _omega_series,
                      _qc_residual_coefficient, assemble_motion, band_weight,
                      closed_form_amplitude, closed_form_frequency, energy_matrix,
                      extract_structure_constants, sho_solve)

EPS = float(np.finfo(float).eps)
# the random products of `algebra` sum up to 15 terms per entry
C_PRODUCT = 2.0 * ROUNDING_C

# Model-error bounds: they bound a truncation or a fit, not rounding.
# The oracle's finite number basis perturbs the sum rule of its lowest levels.
THOMAS_KUHN_TOL = 1e-8
# A cubic fit over a few couplings absorbs the orders above it only in part.
SERIES_FIT_TOL = 1e-2
# Halving lam cuts a lam^3 deviation 8-fold; higher orders move it by < 30 %.
COUPLING_WINDOW = (8.0 * 0.7, 8.0 * 1.3)
# The couplings of that check, in units of m omega0^3 / hbar.
COUPLING_LAMS = (0.1, 0.05)

DETAILS = {
    "commutator-coupling-scaling":
        "deviation from i*hbar under coupling halving, quartic force",
    "rspt-matches-amplitude-series": "second-order sum versus banded-solver energy series",
}


# ---------------------------------------------------------------------------
# the product law on random banded arrays


def _random_symmetric_band(rng, n_max: int, band_max: int) -> BandAmplitudeArray:
    data = np.zeros((n_max + 1, 2 * band_max + 1))
    for a in range(band_max + 1):
        vals = rng.normal(size=n_max + 1)
        vals[:a] = 0.0
        data[:, band_max + a] = vals
        if a:
            data[: n_max + 1 - a, band_max - a] = vals[a:]
    return BandAmplitudeArray(data)


def _relative(got, want, size):
    """max |got - want| over max(1, max |want|), and c eps max(size) in the
    same units."""
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale, C_PRODUCT * EPS * float(np.max(size)) / scale


def algebra(params, seed: int):
    """Ritz rule, product law and derivative on random banded arrays."""
    rng = np.random.default_rng(seed)
    n_max = 14
    x, y, z = (_random_symmetric_band(rng, n_max, b) for b in (2, 3, 2))
    # dyadic rationals keep potential differences exact in binary floating point
    pot = rng.integers(-(2**20), 2**20, size=n_max + 8).astype(float) / 1024.0
    worst = 0.0
    for a in range(1, 4):
        for b in range(1, 4):
            n = np.arange(a + b, n_max)
            ritz = (pot[n] - pot[n - a]) + (pot[n - a] - pot[n - a - b]) - (pot[n] - pot[n - a - b])
            worst = max(worst, float(np.max(np.abs(ritz), initial=0.0)))
    yield "ritz-combination", worst, 0.0

    # each product and dense form is made once and read by every check
    xy = multiply(x, y)
    dense_xy = xy.to_dense()
    dense_x, dense_y = x.to_dense(), y.to_dense()
    ax, ay, az = np.abs(dense_x), np.abs(dense_y), np.abs(z.to_dense())
    axy = ax @ ay
    yield "multiply-matches-dense-product", *_relative(dense_xy, dense_x @ dense_y, axy)
    left = multiply(xy, z).to_dense()
    right = multiply(x, multiply(y, z)).to_dense()
    yield "multiply-associative", *_relative(right, left, axy @ az)
    yield "product-transpose-reverses-order", *_relative(
        dense_xy.T, multiply(y, x).to_dense(), ay @ ax)

    grid = FrequencyGrid(pot)
    dx, dy = (time_derivative(MotionRepresentation(m, grid, params)) for m in (x, y))
    lhs = time_derivative(MotionRepresentation(xy, grid, params)).to_dense()
    rhs = multiply(dx, y).to_dense() + multiply(x, dy).to_dense()
    size = np.abs(dx.to_dense()) @ ay + ax @ np.abs(dy.to_dense())
    yield "derivative-product-rule", *_relative(lhs, rhs, size)


# ---------------------------------------------------------------------------
# sum rule and commutator of a motion


def _sum_rule_size(motion, rows: int) -> float:
    """Largest summed size over the first `rows` rows of the sum rule's
    terms, h and 4 pi m |X(n, m)|^2 (|Omega(n)| + |Omega(m)|) up and down."""
    x, pot = motion.amplitudes, np.abs(motion.frequencies.potential)
    n = np.arange(rows)
    size = np.full(rows, motion.params.h)
    for a in range(1, x.band_max + 1):
        up = np.abs(x.band(-a)[:rows]) ** 2 * (pot[n + a] + pot[n])
        down = np.abs(x.band(a)[:rows]) ** 2 * (pot[n] + pot[np.maximum(n - a, 0)])
        size += 4.0 * math.pi * motion.params.mass * (up + down)
    return float(np.max(size))


def sho(sol, rows: int):
    """Largest sum-rule residual and largest |[x, p](n, n) - i hbar| over the
    first `rows` rows of an exact oscillator solution. The commutator's
    deviation is the sum-rule residual over 2 pi, and so are its terms."""
    motion = assemble_motion(sol, 0.0)
    size = _sum_rule_size(motion, rows)
    res = quantum_condition_residual(motion)[:rows]
    yield "sho-quantum-condition", float(np.max(np.abs(res))), ROUNDING_C * EPS * size
    comm = commutator_diagonal(motion)[:rows]
    size /= 2.0 * math.pi
    yield ("sho-commutator", float(np.max(np.abs(comm - 1j * motion.params.hbar))),
           ROUNDING_C * EPS * size)


def coupling_scaling(params, solve):
    """Deviation of the quartic commutator from i hbar under coupling halving,
    on the table solve(params, order, n_max) gives."""
    quartic = replace(params, force_exponent=3)
    sol = solve(quartic, 2, 12)
    unit = params.mass * params.omega0**3 / params.hbar
    devs = []
    for lam in COUPLING_LAMS:
        comm = commutator_diagonal(assemble_motion(sol, lam * unit))
        devs.append(float(np.max(np.abs(comm[:5] - 1j * quartic.hbar))))
    return devs[0] / devs[1], COUPLING_WINDOW


# ---------------------------------------------------------------------------
# the perturbative tables


def recursion(sol):
    """Equation-of-motion residual per public band and order, as
    `build_recursions` gives it, over the natural size of the band's terms
    at default units."""
    params, c, n_hi = sol.params, sol.coeffs, sol.n_max + 1
    t_max = _engine_extent(params.force_exponent, sol.order)[1]
    pot = c.freq_potential
    # omega(n, n-g) is sized |Omega(n)| + |Omega(n-g)|: 2 |Omega(n)| less
    # the difference of the two
    om_size = 2.0 * np.abs(pot)[:, None, :] - _omega_series(np.abs(pot), c.band_max)
    terms = _eom_terms(params, c.amp, _omega_series(pot, c.band_max), t_max, om_size=om_size)
    for alpha in sol.public_bands:
        for k in range(sol.order + 1):
            t, band = band_weight(params.force_exponent, alpha) + k, c.band_max + alpha
            amp_scale = float(np.max(np.abs(c.amp[: k + 1, alpha, :n_hi])))
            if alpha == 1:
                scale = max(1.0, amp_scale**2)
            else:
                scale = max(1.0, abs(1 - alpha * alpha) * params.omega0**2 * amp_scale)
            observed = float(np.max(np.abs(terms[0, t, band, :n_hi]))) / _half(alpha)
            size = float(np.max(terms[1, t, band, :n_hi])) / _half(alpha)
            yield (f"recursion-residual-band{alpha}-order{k}",
                   observed / scale, ROUNDING_C * EPS * size / scale)


def quantum_condition(sol):
    """Order-k sum-rule residuals, and the additivity of the frequencies."""
    params, c, n_hi = sol.params, sol.coeffs, sol.n_max + 1
    for k in range(sol.order + 1):
        residual, size = _qc_residual_coefficient(params, c.amp, c.freq_potential, k,
                                                  sizes=True)
        amp_scale = float(np.max(np.abs(c.amp[: k + 1, 1, :n_hi])))
        scale = max(1.0, math.pi * params.mass * params.omega0 * amp_scale**2)
        yield (f"quantum-condition-order{k}", float(np.max(np.abs(residual[:n_hi]))) / scale,
               ROUNDING_C * EPS * float(np.max(size[:n_hi])) / scale)
    worst = size = 0.0
    for k in range(sol.order + 1):
        om2 = sol.omega_band(k, 2)
        om1 = sol.omega_band(k, 1)
        pair = np.zeros(sol.n_max + 1)
        pair[2:] = om1[2:] + om1[1:-1]
        worst = max(worst, float(np.max(np.abs(om2 - pair))))
        pot = np.abs(sol.frequency_potential(k))
        size = max(size, float(np.max(pot[2:] + 2.0 * pot[1:-1] + pot[:-2])))
    yield "frequency-additivity", worst, ROUNDING_C * EPS * size


_TABULATED_AMPLITUDES = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                         (2, 0), (2, 1), (2, 2))
_TABULATED_FREQUENCIES = ((0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (2, 2))


def closed_form(sol):
    """The solved tables against every tabulated cubic closed form the
    solution holds, relative to max(1, |value|), and the structure
    constants 1, 1/6 and 1/48. A value from a sum-rule cumsum of n+1 rows is
    sized n+1 times."""
    params = sol.params
    if params.force_exponent != 2:
        return
    levels = np.arange(sol.n_max + 1)

    def worst(tables):
        observed = size = 0.0
        for solved, target, n in tables:
            rel = np.maximum(1.0, np.abs(target))
            observed = max(observed, float(np.max(np.abs(solved - target) / rel)))
            size = max(size, float(np.max((n + 1) * np.abs(target) / rel)))
        return observed, ROUNDING_C * EPS * size

    yield "closed-form-amplitudes", *worst(
        (sol.a(k, alpha), closed_form_amplitude(k, levels, alpha, params), levels)
        for k, alpha in _TABULATED_AMPLITUDES if k <= sol.solved_orders.get(alpha, -1))
    yield "closed-form-frequencies", *worst(
        (sol.omega_band(k, alpha)[alpha:],
         closed_form_frequency(k, levels[alpha:], alpha, params), levels[alpha:])
        for k, alpha in _TABULATED_FREQUENCIES if k <= sol.order)
    targets = {1: 1.0, 2: 1.0 / 6.0, 3: 1.0 / 48.0}
    try:
        constants = extract_structure_constants(sol)
        observed = max(abs(constants[a] - v) for a, v in targets.items() if a in constants)
    except StructureViolationError:
        observed = None
    yield "structure-constants", observed, ROUNDING_C * EPS


def offdiag_energy(sol):
    """The energy matrix through the solution's order, or None where the
    guard of `energy_matrix` fails, and its off-diagonal checks."""
    try:
        em = energy_matrix(sol)
    except EnergyConservationError as exc:
        return None, [(f"offdiag-energy-order{exc.order}", exc.observed, exc.tolerance)]
    return em, [(f"offdiag-energy-order{k}", *em.offdiag(k)) for k in range(em.order_cap + 1)]


# ---------------------------------------------------------------------------
# the oracle


def thomas_kuhn(residuals):
    return float(np.max(np.abs(residuals))), THOMAS_KUHN_TOL


def series_fit(got: float, target: float):
    return abs(got - target) / abs(target), SERIES_FIT_TOL


def rspt_matches_series(rspt, series, eds, lam: float):
    """RSPT level energies against the amplitude route's energy series at
    lam, both at the same order; the series' terms at level n are sized n+1
    times, as in `EnergyMatrix.offdiag`."""
    n = np.arange(len(series))
    size = sum(abs(lam) ** k * (np.abs(eds.kinetic[k]) + np.abs(eds.harmonic[k])
                                + np.abs(eds.anharmonic[k]))[n] for k in range(len(eds.kinetic)))
    return (float(np.max(np.abs(np.array(rspt) - series))),
            ROUNDING_C * EPS * float(np.max((n + 1) * size)))


# ---------------------------------------------------------------------------
# the registry of `verify`


def _commutator_group(params, sol, seed):
    yield from sho(sho_solve(replace(params, lam=0.0), 50), 49)
    yield "commutator-coupling-scaling", *coupling_scaling(params, sol)


# verify's groups in report order. `sol(params, order, n_max)` is the run's
# memo of `solve_perturbative`, so that a table is solved once per run; with
# no arguments it gives verify's own table
GROUPS = {
    "algebra": lambda params, sol, seed: algebra(params, seed),
    "commutator": _commutator_group,
    "recursion": lambda params, sol, seed: recursion(sol()),
    "quantum-condition": lambda params, sol, seed: quantum_condition(sol()),
    "closed-form": lambda params, sol, seed: closed_form(sol()),
    "offdiag": lambda params, sol, seed: offdiag_energy(sol())[1],
}
