"""Classical Fourier-series solution of x'' + omega0^2 x + lam x^p = 0.

The periodic orbit is expanded in cosine harmonics of a single base
frequency,

    x(t) = lam a_0 + a_1 cos(w t) + lam a_2 cos(2 w t) + lam^2 a_3 cos(3 w t) + ...

(for the quartic force only odd harmonics appear and the suppression is
one power of lam per two harmonics). Coefficients and the frequency are
power series in lam, solved order by order through harmonic balance: the
fundamental fixes the frequency corrections, every other harmonic is
fixed by its own balance equation. The leading amplitude a_1 is the free
constant of the motion; prescribing the action J instead uses the
leading-order quantization a_1 = sqrt(J / (pi m omega0)).

Harmonic balance is the n-independent mode of the series engine of `core`
and `perturb`: the orbit is a table with a single row, the product drops the
row shift of the two-index law (step 0) and so becomes the convolution
over signed harmonics, and the frequency of harmonic g is g*omega. The
solve is the quantum march over the powers of lam with its own rule for
the fundamental (a1 held fixed, the frequency correction from its
residual); every other harmonic is solved as a quantum band. The
residuals come from the function the quantum recursion check reads.

This is the large-n benchmark for the quantum solver: at J = n h the
classical coefficients reproduce the leading-n behavior of the quantum
band amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import OscillatorParams
from .perturb import (
    band_weight,
    _band_list,
    _check_order,
    _engine_extent,
    _eom_terms,
    _half,
    _march,
)

__all__ = [
    "QuadratureMismatchError",
    "ClassicalSolution",
    "classical_solve",
    "balance_residuals",
    "action_integral",
    "ode_residual",
]

# points per period at which the time-domain figures sample the orbit
SAMPLES = 256


class QuadratureMismatchError(ValueError):
    """Fourier-space and time-quadrature action integrals disagree."""


@dataclass(frozen=True)
class ClassicalSolution:
    """Harmonic coefficients a_alpha^(k) and frequency series for one orbit.

    amp[k, alpha] holds the order-k coefficient of harmonic alpha (the
    lam^w(alpha) suppression is not folded in) over the engine's harmonics,
    as `PerturbSolution.coeffs` does over its bands; `harmonics` publishes
    those through `harmonic_max`, the public bands of a quantum solve of
    the same order. omega_coeffs[k] is the order-k frequency coefficient.
    """

    params: OscillatorParams
    order: int
    amp: np.ndarray
    omega_coeffs: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=float)
        om = np.asarray(self.omega_coeffs, dtype=float)
        if amp.ndim != 2 or om.shape != (amp.shape[0],) or amp.shape[1] <= self.harmonic_max:
            raise ValueError("amp must be (orders, harmonics through harmonic_max), "
                             "omega_coeffs (orders,)")
        amp.setflags(write=False)
        om.setflags(write=False)
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "omega_coeffs", om)

    @property
    def harmonic_max(self) -> int:
        """Top public harmonic: order + 1 (cubic), 2*order + 1 (quartic)."""
        return _engine_extent(self.params.force_exponent, self.order)[0][-1]

    @property
    def harmonics(self) -> np.ndarray:
        """harmonics[k, alpha] = amp[k, alpha] for alpha = 0..harmonic_max."""
        return self.amp[:, : self.harmonic_max + 1]

    def omega(self, lam: float) -> float:
        powers = lam ** np.arange(self.omega_coeffs.size)
        return float(self.omega_coeffs @ powers)

    def cosine_coefficients(self, lam: float) -> np.ndarray:
        """Full cosine coefficients c_alpha(lam), weights folded in."""
        p = self.params.force_exponent
        out = np.zeros(self.harmonic_max + 1)
        powers = lam ** np.arange(self.amp.shape[0])
        for alpha in _band_list(p, self.harmonic_max):
            out[alpha] = lam ** band_weight(p, alpha) * float(
                self.amp[:, alpha] @ powers
            )
        return out

    def xdot_of_t(self, t: np.ndarray, lam: float) -> np.ndarray:
        c = self.cosine_coefficients(lam)
        w = self.omega(lam)
        t = np.asarray(t, dtype=float)
        alphas = np.arange(c.size)
        return -np.sin(np.outer(t, alphas) * w) @ (c * alphas * w)


def classical_solve(
    params: OscillatorParams,
    order: int,
    a1: float | None = None,
    action: float | None = None,
) -> ClassicalSolution:
    """Harmonic-balance solution through the given order in lam.

    Exactly one of the leading amplitude a1 or the action must be
    prescribed. The leading amplitude is held fixed across orders (the
    fundamental's balance equation then determines the frequency
    corrections). Every harmonic of the quantum engine's extent is solved,
    so the published ones are those of any higher-order solve.
    """
    _check_order(order)
    if (a1 is None) == (action is None):
        raise ValueError("prescribe exactly one of a1 or action")
    if action is not None:
        if action <= 0:
            raise ValueError("action must be positive")
        a1 = math.sqrt(action / (math.pi * params.mass * params.omega0))
    assert a1 is not None
    if a1 <= 0:
        raise ValueError("leading amplitude must be positive")

    omega0 = params.omega0
    _, t_max, band_eng, _ = _engine_extent(params.force_exponent, order)

    # one row: the orbit is the n-independent case of the banded tables
    amp = np.zeros((order + 1, band_eng + 1, 1))
    omega_coeffs = np.zeros(order + 1)
    omega_coeffs[0] = omega0
    amp[0, 1] = a1
    # harmonic g has the frequency g * omega
    g = np.arange(-band_eng, band_eng + 1)
    om = np.multiply.outer(omega_coeffs, g)[:, :, None]

    def adjacent(t: int, res: np.ndarray, x: np.ndarray, live: np.ndarray) -> None:
        # fundamental: a1 is held fixed, the frequency correction remains
        omega_coeffs[t] = res[0] / (omega0 * a1)
        om[t, :, 0] = omega_coeffs[t] * g

    _march(params, amp, om, t_max, adjacent, step=0)
    return ClassicalSolution(params=params, order=order, amp=amp[:, :, 0],
                             omega_coeffs=omega_coeffs)


def balance_residuals(sol: ClassicalSolution) -> np.ndarray:
    """Reduced harmonic-balance residuals res[k, alpha] for every harmonic
    of the engine tables at every order the solve balanced (lam^(w+k)
    within its power ceiling); all vanish (to rounding) on a solution, and
    the orders a solve leaves open read zero.

    The normalization matches the constant-, cos(w t)-, cos(2 w t)-...
    balance equations written per harmonic, so res[0, 2] is the
    coefficient (omega0^2 - 4 omega^2) a_2 + a_1^2 / 2 and so on.
    """
    p = sol.params.force_exponent
    order = sol.order
    _, t_max, band_eng, _ = _engine_extent(p, order)
    om = np.multiply.outer(sol.omega_coeffs, np.arange(-band_eng, band_eng + 1))
    bands = _band_list(p, band_eng)
    res = _eom_terms(sol.params, sol.amp[:, :, None], om[:, :, None], t_max, bands, step=0)
    out = np.zeros((order + 1, band_eng + 1))
    for i, alpha in enumerate(bands):
        w = band_weight(p, alpha)
        for k in range(min(order, t_max - w) + 1):
            out[k, alpha] = res[w + k, i, 0] / _half(alpha)
    return out


def action_integral(sol: ClassicalSolution, lam: float) -> float:
    """Action J = closed integral of m xdot^2 dt over one period.

    Evaluated in Fourier space as 2 pi m sum_alpha |X_alpha|^2 alpha^2 w
    (signed harmonics) and cross-checked against direct time quadrature on
    SAMPLES points; a mismatch beyond 1e-8 |J| raises QuadratureMismatchError.
    J sums nonnegative terms, so |J| is their size, in the units of the run.
    """
    params = sol.params
    c = sol.cosine_coefficients(lam)
    w = sol.omega(lam)
    alphas = np.arange(c.size)
    j_fourier = math.pi * params.mass * w * float(np.sum(alphas**2 * c**2))
    period = 2.0 * math.pi / w
    t = np.linspace(0.0, period, SAMPLES, endpoint=False)
    xdot = sol.xdot_of_t(t, lam)
    j_quad = params.mass * float(np.mean(xdot**2)) * period
    if abs(j_fourier - j_quad) > 1e-8 * abs(j_fourier):
        raise QuadratureMismatchError(
            f"Fourier action {j_fourier!r} vs quadrature {j_quad!r}"
        )
    return j_fourier


def ode_residual(sol: ClassicalSolution, lam: float) -> float:
    """Max over SAMPLES points of one period of |x'' + omega0^2 x + lam x^p|
    for the truncated series; scales one power of lam beyond the solved order."""
    params = sol.params
    c = sol.cosine_coefficients(lam)
    w = sol.omega(lam)
    alphas = np.arange(c.size)
    period = 2.0 * math.pi / w
    t = np.linspace(0.0, period, SAMPLES, endpoint=False)
    phases = np.cos(np.outer(t, alphas) * w)
    x = phases @ c
    xddot = phases @ (-((alphas * w) ** 2) * c)
    res = xddot + params.omega0**2 * x + lam * x**params.force_exponent
    return float(np.max(np.abs(res)))
