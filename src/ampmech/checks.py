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

from .core import _omega_series, _series_mul
from .oracle import DEFAULT_UNIT_COUPLING, PLATEAU_LEVELS, _dense
from .perturb import (ROUNDING_C, EnergyConservationError, StructureViolationError,
                      _engine_extent, _eom_terms, _half, _rate_mask, _rate_series, _sum_rule,
                      _x_series, band_weight, closed_form_amplitude,
                      closed_form_frequency, energy_matrix, extract_structure_constants,
                      solve_perturbative)

EPS = float(np.finfo(float).eps)
# the random products of `algebra` sum up to 15 terms per entry
C_PRODUCT = 2.0 * ROUNDING_C

# Model-error bounds: they bound a truncation or a series, not rounding.
# The oracle's finite number basis perturbs the sum rule of its lowest
# levels; the residual is an action, so the bound is THOMAS_KUHN_TOL * hbar.
THOMAS_KUHN_TOL = 1e-8
# Halving lam cuts a deviation of order lam^q 2^q-fold; at the couplings
# where it is judged, the orders above q move that ratio by less than 30 %.
HALVING_SPREAD = (0.7, 1.3)
# The couplings of `coupling_scaling`, in units of m omega0^3 / hbar.
COUPLING_LAMS = (0.1, 0.05)

DETAILS = {
    "commutator-coupling-scaling":
        "deviation from i*hbar under coupling halving, quartic force",
    "rspt-matches-amplitude-series": "second-order sum versus banded-solver energy series",
}


# ---------------------------------------------------------------------------
# the product law on random banded arrays


def _random_symmetric_band(rng, n_max: int, band_max: int) -> np.ndarray:
    """A random real-symmetric band array as a one-power series of
    `_series_mul`: s[0, band_max + alpha, n] = X(n, n-alpha)."""
    s = np.zeros((1, 2 * band_max + 1, n_max + 1))
    for a in range(band_max + 1):
        vals = rng.normal(size=n_max + 1)
        vals[:a] = 0.0
        s[0, band_max + a] = vals
        if a:
            s[0, band_max - a, : n_max + 1 - a] = vals[a:]
    return s


def _dense_series(s: np.ndarray) -> np.ndarray:
    """The dense matrix of a one-power series: band g is diagonal -g."""
    return _dense(s[0, ::-1])


def _relative(got, want, size):
    """max |got - want| over max(1, max |want|), and c eps max(size) in the
    same units."""
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale, C_PRODUCT * EPS * float(np.max(size)) / scale


def algebra(seed: int):
    """Ritz rule, product law and derivative on random banded arrays, as the
    solver forms them: frequencies by `_omega_series`, omega x as their
    product with x, and products by `_series_mul` at one power. The arrays
    are dense, so every (power, band) slice of a factor is passed live."""
    rng = np.random.default_rng(seed)
    n_max = 14
    x, y, z = (_random_symmetric_band(rng, n_max, b) for b in (2, 3, 2))
    # dyadic rationals keep potential differences exact in binary floating point
    pot = rng.integers(-(2**20), 2**20, size=n_max + 8).astype(float) / 1024.0
    # omega(n, n-g) on the bands g through a + b = 6 of the Ritz rule, and
    # from -5 up for the rates of the bands -5..5 of x y
    om = _omega_series(pot[None], 6, range(-5, 7))[0]
    # the Ritz rule for every a, b = 1..3 at the rows n = a + b..n_max - 1,
    # in one gather
    a, b, n = np.ogrid[1:4, 1:4, :n_max]
    ritz = om[6 + a, n] + om[6 + b, n - a] - om[6 + a + b, n]
    yield "ritz-combination", float(np.abs(ritz).max(where=n >= a + b, initial=0.0)), 0.0

    def mul(a, b):
        return _series_mul(a, b, 0, masks=(np.ones(a.shape[:2], bool), np.ones(b.shape[:2], bool)))

    # each product and dense form is made once and read by every check
    xy = mul(x, y)
    dense_xy = _dense_series(xy)
    dense_x, dense_y = _dense_series(x), _dense_series(y)
    ax, ay, az = np.abs(dense_x), np.abs(dense_y), np.abs(_dense_series(z))
    axy = ax @ ay
    yield "multiply-matches-dense-product", *_relative(dense_xy, dense_x @ dense_y, axy)
    left = _dense_series(mul(xy, z))
    right = _dense_series(mul(x, mul(y, z)))
    yield "multiply-associative", *_relative(right, left, axy @ az)
    yield "product-transpose-reverses-order", *_relative(
        dense_xy.T, _dense_series(mul(y, x)), ay @ ax)

    def rate(s):
        """omega x of a series, the real factor of its time derivative."""
        b = (s.shape[1] - 1) // 2
        return om[None, 6 - b : 7 + b, : n_max + 1] * s

    dx, dy = rate(x), rate(y)
    lhs = _dense_series(rate(xy))
    rhs = _dense_series(mul(dx, y)) + _dense_series(mul(x, dy))
    size = np.abs(_dense_series(dx)) @ ay + ax @ np.abs(_dense_series(dy))
    yield "derivative-product-rule", *_relative(lhs, rhs, size)


# ---------------------------------------------------------------------------
# the sum rule and the commutator


def _omega_size(pot: np.ndarray, band_max: int, bands: range) -> np.ndarray:
    """The size |Omega(n)| + |Omega(n-g)| of each omega(n, n-g) per band of
    `_omega_series`: 2 |Omega(n)| less the difference of the two, formed on
    the signed bands of `bands`."""
    return 2.0 * np.abs(pot)[:, None, :] - _omega_series(np.abs(pot), band_max, bands)


def _sum_rule_terms(sol):
    """The lam^k coefficients of the sum-rule residual, k = 0..order, and
    the summed size of their terms, h and 4 pi m |X(n, m)|^2 (|Omega(n)| +
    |Omega(m)|), each over (order k, row n), from one product of the
    stacked [x, |x|] and [omega x, omega_size |x|]."""
    params, pot = sol.params, sol.coeffs.freq_potential
    reach = max(sol.public_bands)  # all that the sum rule reads, as in the solver
    # omega where x may be nonzero, as in the solver
    bands = range(-reach, reach + 1, sol.public_bands.step)
    amp = sol.coeffs.amp[:, : reach + 1]
    x, x_live = _x_series(params.force_exponent, np.stack([amp, np.abs(amp)]), sol.order, reach)
    om_size = _omega_size(pot, reach, bands)
    om_size[:, reach] = 0.0  # omega(n, n) is formed exactly, as 0
    # the size enters negated, so that h is subtracted as from the residual
    om = np.stack([_omega_series(pot, reach, bands), -om_size])
    powers = range(sol.order + 1)
    # an order of omega and of its size is zero where its potential is
    wx_live = _rate_mask(pot.any(axis=-1), x_live, powers)
    residual, size = _sum_rule(params, x, _rate_series(om, x, powers), sol.order,
                               masks=(x_live, wx_live))
    return residual, -size


def sho(sol):
    """Largest sum-rule residual and largest |[x, p](n, n) - i hbar| over the
    rows 0..n_max of an exact oscillator solution. The commutator's
    deviation is the sum-rule residual over 2 pi, and so are its terms."""
    residual, size = (a[0, : sol.n_max + 1] for a in _sum_rule_terms(sol))
    observed, tolerance = float(np.max(np.abs(residual))), ROUNDING_C * EPS * float(np.max(size))
    yield "sho-quantum-condition", observed, tolerance
    yield "sho-commutator", observed / (2.0 * math.pi), tolerance / (2.0 * math.pi)


def halving_window(q: int) -> tuple[float, float]:
    """Window of the halving ratio of a deviation of order lam^q."""
    return HALVING_SPREAD[0] * 2.0**q, HALVING_SPREAD[1] * 2.0**q


def _commutator_deviation(sol, lam):
    """[x, p](n, n)/i - hbar per row n of the tables of sol, summed at the
    numeric coupling lam: the sum-rule residual of the summed series over
    2 pi, which `_sum_rule` forms with the engine's own x and omega x. It
    reads only m and h of sol.params, which lam leaves as they are."""
    p, c = sol.params.force_exponent, sol.coeffs
    t_max = _engine_extent(p, sol.order)[1]
    x = np.tensordot(lam ** np.arange(t_max + 1), _x_series(p, c.amp, t_max, c.band_max)[0], 1)
    pot = np.tensordot(lam ** np.arange(sol.order + 1), c.freq_potential, 1)
    wx = _omega_series(pot[None], c.band_max) * x
    return _sum_rule(sol.params, x[None], wx, 0)[0] / (2.0 * math.pi)


def coupling_scaling(params, solve):
    """Deviation of the quartic commutator from i hbar under coupling halving,
    on the table solve(params, order, n_max) gives."""
    quartic = replace(params, force_exponent=3)
    sol = solve(quartic, 2, 12)
    unit = params.mass * params.omega0**3 / params.hbar
    devs = [float(np.max(np.abs(_commutator_deviation(sol, lam * unit)[:5])))
            for lam in COUPLING_LAMS]
    return devs[0] / devs[1], halving_window(3)


# ---------------------------------------------------------------------------
# the perturbative tables


def recursion(sol):
    """Equation-of-motion residual per public band and order, as
    `_eom_terms` gives it, over the natural size of the band's terms
    at default units."""
    params, c, n_hi = sol.params, sol.coeffs, sol.n_max + 1
    p, bands = params.force_exponent, sol.public_bands
    t_max = _engine_extent(p, sol.order)[1]
    pot = c.freq_potential
    terms = _eom_terms(params, c.amp, _omega_series(pot, c.band_max, bands), t_max, bands,
                       om_size=_omega_size(pot, c.band_max, bands))
    # the maxima over the rows per (power, band), and the amplitude scale per
    # (order, band), the running maximum over the orders
    residual = np.abs(terms[0, ..., :n_hi]).max(axis=-1).tolist()
    size = terms[1, ..., :n_hi].max(axis=-1).tolist()
    amp = c.amp[: sol.order + 1, bands.start : bands.stop : bands.step, :n_hi]
    amp_scale = np.maximum.accumulate(np.abs(amp).max(axis=-1)).tolist()
    for band, alpha in enumerate(bands):
        for k in range(sol.order + 1):
            t = band_weight(p, alpha) + k
            if alpha == 1:
                scale = max(1.0, amp_scale[k][band]**2)
            else:
                scale = max(1.0, abs(1 - alpha * alpha) * params.omega0**2 * amp_scale[k][band])
            observed = residual[t][band] / _half(alpha)
            yield (f"recursion-residual-band{alpha}-order{k}",
                   observed / scale, ROUNDING_C * EPS * (size[t][band] / _half(alpha)) / scale)


def quantum_condition(sol):
    """Order-k sum-rule residuals, and the additivity of the frequencies."""
    params, c, n_hi = sol.params, sol.coeffs, sol.n_max + 1
    orders = sol.order + 1
    residual, size = _sum_rule_terms(sol)
    observed = np.abs(residual[:orders, :n_hi]).max(axis=-1).tolist()
    size = size[:orders, :n_hi].max(axis=-1).tolist()
    amp_scale = np.maximum.accumulate(np.abs(c.amp[:orders, 1, :n_hi]).max(axis=-1)).tolist()
    for k in range(orders):
        scale = max(1.0, math.pi * params.mass * params.omega0 * amp_scale[k]**2)
        yield (f"quantum-condition-order{k}", observed[k] / scale,
               ROUNDING_C * EPS * size[k] / scale)
    # omega(n, n-2) against omega(n, n-1) + omega(n-1, n-2) at n >= 2, all
    # orders in one pass; a frequency sized by its three potentials
    pot = c.freq_potential[:orders, :n_hi]
    om1, om2 = pot[:, 1:] - pot[:, :-1], pot[:, 2:] - pot[:, :-2]
    worst = np.abs(om2 - (om1[:, 1:] + om1[:, :-1])).max(axis=-1).tolist()
    a = np.abs(pot)
    sizes = (a[:, 2:] + 2.0 * a[:, 1:-1] + a[:, :-2]).max(axis=-1).tolist()
    yield "frequency-additivity", max([0.0, *worst]), ROUNDING_C * EPS * max([0.0, *sizes])


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
    return em, [(f"offdiag-energy-order{k}", *em.offdiag(k)) for k in range(em.order + 1)]


# ---------------------------------------------------------------------------
# the oracle


def thomas_kuhn_residuals(spec) -> np.ndarray:
    """Residual 4 pi m sum_k X(k, n)^2 omega(k, n) - h of the Thomas-Kuhn
    sum rule at each of the lowest PLATEAU_LEVELS levels n of a spectrum of
    H_N, with omega(k, n) = (E_k - E_n) / hbar and the sum over every level
    k of H_N, by closure (`SpectrumResult.closure_sums`): it reads only the
    pairs n."""
    params = spec.params
    sums = spec.closure_sums(PLATEAU_LEVELS)
    return 4.0 * math.pi * params.mass / params.hbar * sums - params.h


def thomas_kuhn(residuals, params):
    """The largest residual, against THOMAS_KUHN_TOL in units of hbar."""
    return float(np.max(np.abs(residuals))), THOMAS_KUHN_TOL * params.hbar


def rspt_matches_series(rspt, series, em, lam: float):
    """RSPT level energies against the amplitude route's energy series at
    lam, both at the same order, the series the diagonal of the energy
    matrix em; its terms at level n are sized n+1 times, as in
    `EnergyMatrix.offdiag`."""
    n = np.arange(len(series))
    size = sum(abs(lam) ** k * (np.abs(em.kinetic[k, 0]) + np.abs(em.harmonic[k, 0])
                                + np.abs(em.anharmonic[k, 0]))[n] for k in range(em.order + 1))
    return (float(np.max(np.abs(np.array(rspt) - series))),
            ROUNDING_C * EPS * float(np.max((n + 1) * size)))


def gap_couplings(params) -> tuple[float, float]:
    """lam_1 and lam_1/2 of the gap-order check, with
    lam_1 = 0.05 omega0^2 (m omega0 / hbar)^((p-1)/2): lam = 0.05 in units
    of m = omega0 = hbar = 1 for every force. For the cubic force lam_1 is
    `cubic_coupling_limit` up to that limit's slack."""
    p = params.force_exponent
    lam1 = DEFAULT_UNIT_COUPLING * params.omega0**2 * (
        params.mass * params.omega0 / params.hbar) ** ((p - 1) / 2)
    return lam1, lam1 / 2.0


def _gap_entries(sol):
    """Name and power q of lam of the order-k gap of each entry of the
    gap-order check, by quantity: E(n) for n < PLATEAU_LEVELS, omega(n+1, n)
    for n + 1 < PLATEAU_LEVELS, and X(alpha + r, r) for r = 0, 1 on each
    public band alpha. q = w + k + 1, with w the band weight (0 for the
    energies and frequencies), and one more for p even at even k: the
    potential is then odd, so the odd orders vanish."""
    p, k = sol.params.force_exponent, sol.order
    q = k + 1 + (p % 2 == 0 and k % 2 == 0)
    levels = range(PLATEAU_LEVELS)
    return {
        "energy": ([f"energy-{n}" for n in levels], [q] * len(levels)),
        "frequency": ([f"omega-{n + 1}-{n}" for n in levels[:-1]], [q] * (len(levels) - 1)),
        "amplitude": ([f"x-{n}-{m}" for n, m in _gap_pairs(sol)],
                      [q + band_weight(p, n - m) for n, m in _gap_pairs(sol)]),
    }


def _gap_pairs(sol):
    """(alpha + r, r) of each amplitude X(alpha + r, r) of the gap-order
    check: r = 0, 1 on each public band alpha."""
    return [(a + r, r) for a in sol.public_bands for r in (0, 1)]


def gap_states(sol) -> int:
    """How many of the lowest eigenstates `gap_exact` reads."""
    return max(PLATEAU_LEVELS, 1 + max(n for n, _ in _gap_pairs(sol)))


def gap_exact(spec, sol):
    """The exact values of the gap-order check's entries, by quantity, from
    one spectrum that holds at least the `gap_states` lowest states."""
    levels = range(PLATEAU_LEVELS)
    rows, cols = np.array(_gap_pairs(sol)).T
    return {
        "energy": spec.eigenvalues[:PLATEAU_LEVELS],
        "frequency": np.array([spec.omega_exact(n + 1, n) for n in levels[:-1]]),
        "amplitude": spec.position_columns(cols.max() + 1)[rows, cols],
    }


def _gap_series(sol, em, lam: float):
    """The gap-order check's entries from the order-k series at lam, the
    energies from the diagonal of the energy matrix em."""
    p, orders = sol.params.force_exponent, range(sol.order + 1)
    x = [_half(a) * lam ** band_weight(p, a) * sum(lam**k * sol.a(k, a)[a : a + 2] for k in orders)
         for a in sol.public_bands]
    n = np.arange(1, PLATEAU_LEVELS)
    return {
        "energy": em.evaluate(lam)[:PLATEAU_LEVELS],
        "frequency": sum(lam**k * sol.omega_band(k, 1)[n] for k in orders),
        "amplitude": np.concatenate(x),
    }


def gap_order(sol, em, lams, exact, basis_size: int):
    """Halving ratio gap(lam_1) / gap(lam_1/2) of each entry, where a gap is
    |exact - order-k series| and exact holds `gap_exact` at the two
    `gap_couplings` lams. An entry is judged only where both its gaps lie
    above the rounding c N eps |value| of its exact value. Returns the
    judged entries and, per quantity, the check of its worst ratio against
    the `halving_window` of its own power."""
    lo, hi = HALVING_SPREAD
    series = [_gap_series(sol, em, lam) for lam in lams]
    entries, found = [], []
    for quantity, (names, powers) in _gap_entries(sol).items():
        values = np.array([e[quantity] for e in exact])
        gaps = np.abs(values - np.array([s[quantity] for s in series]))
        judged = np.all(gaps > ROUNDING_C * basis_size * EPS * np.abs(values), axis=0)
        ratios = [(name, q, float(g1 / g2))
                  for name, q, (g1, g2), ok in zip(names, powers, gaps.T, judged) if ok]
        entries += [{"quantity": name, "power": q, "ratio": r} for name, q, r in ratios]
        # the worst is the one farthest outside its window, or nearest its
        # edge: max(lo 2^q / r, r / (hi 2^q)) exceeds 1 exactly outside
        _, q, worst = max(ratios, key=lambda e: max(lo * 2.0**e[1] / e[2], e[2] / (hi * 2.0**e[1])),
                          default=(None, powers[0], None))
        found.append((f"gap-order-{quantity}", worst, halving_window(q)))
    return entries, found


# ---------------------------------------------------------------------------
# the registry of `verify`


def _commutator_group(params, sol, seed):
    yield from sho(solve_perturbative(replace(params, lam=0.0), 0, 50))
    yield "commutator-coupling-scaling", *coupling_scaling(params, sol)


# verify's groups in report order. `sol(params, order, n_max)` is the run's
# memo of `solve_perturbative`, so that a table is solved once per run; with
# no arguments it gives verify's own table
GROUPS = {
    "algebra": lambda params, sol, seed: algebra(seed),
    "commutator": _commutator_group,
    "recursion": lambda params, sol, seed: recursion(sol()),
    "quantum-condition": lambda params, sol, seed: quantum_condition(sol()),
    "closed-form": lambda params, sol, seed: closed_form(sol()),
    "offdiag": lambda params, sol, seed: offdiag_energy(sol())[1],
}
