"""Order-by-order perturbative solution of the anharmonic oscillator in the
transition-amplitude representation.

The coordinate is represented band by band,

    X(n, n-alpha) = (lam^w(alpha) / 2) * a(n, n-alpha)      (alpha != 0)
    X(n, n)       =  lam * a(n, n),

with w(alpha) = |alpha| - 1 for the cubic force (p = 2) and
w(alpha) = (|alpha| - 1)/2 for the quartic force (p = 3, odd bands only).
Every a(n, n-alpha) and every frequency is itself a power series in the
coupling lam. Substituting this ansatz into the equation of motion

    x'' + omega0^2 x + lam x^p = 0

and multiplying out with the two-index product law turns each (band,
order) pair into one linear equation. The solver walks these equations in
increasing total power of lam:

  * the adjacent band fixes the frequency correction at each order (its
    own amplitude drops out because the zeroth-order bracket vanishes);
  * the sum-rule quantum condition then fixes the adjacent-band amplitude
    through a first-order difference equation in n, integrated upward
    from the ground-state floor a(0, -1) = 0, whose integration constant
    is thereby forced to zero;
  * every other band follows directly, its amplitude carrying the
    invertible bracket coefficient (1 - alpha^2) * omega0^2.

Residual functionals are generated from the product law itself rather
than hand-coded per band, so the same machinery serves both force
exponents and the printed low-band recursion relations become regression
targets for the generator. With the row shift of the product law turned
off, the same engine on a single row is classical harmonic balance (see
`classical`).

Coefficients are kept symbolic in lam (one array per power); a numeric
coupling enters only when a motion representation or an energy value is
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    BandAmplitudeArray,
    DimensionMismatchError,
    FrequencyGrid,
    MotionRepresentation,
)
from .params import OscillatorParams

__all__ = [
    "UnsupportedForceError",
    "UnimplementedOrderError",
    "NoClosedFormError",
    "StructureViolationError",
    "EnergyConservationError",
    "CoefficientSet",
    "PerturbSolution",
    "build_recursions",
    "solve_perturbative",
    "sho_solve",
    "quantum_condition_order_residual",
    "closed_form_amplitude",
    "closed_form_frequency",
    "extract_structure_constants",
    "assemble_motion",
    "EnergyMatrix",
    "energy_matrix",
    "EnergyDiagonalSeries",
    "energy_diagonal_series",
]

# c of every rounding bound c*eps*(summed size of the terms) in `checks` and
# `EnergyMatrix.offdiag`: about 4 times the largest ratio measured over
# n_max 12..3000, both forces and random unit systems
ROUNDING_C = 4.0


class UnsupportedForceError(ValueError):
    """Force exponent outside the implemented set {2, 3}."""


class UnimplementedOrderError(ValueError):
    """Energy asked through an order of lam beyond the one the solution holds."""


class NoClosedFormError(LookupError):
    """No tabulated closed form for the requested coefficient."""


class StructureViolationError(ValueError):
    """Lowest-order amplitudes do not factor into an n-independent constant."""


class EnergyConservationError(ValueError):
    """An off-diagonal energy element failed to vanish order by order."""

    def __init__(self, order: int, observed: float, tolerance: float):
        super().__init__(f"off-diagonal energy at order lam^{order} reaches "
                         f"{observed:.3e}, beyond its rounding bound {tolerance:.3e}")
        self.order, self.observed, self.tolerance = order, observed, tolerance


def band_weight(force_exponent: int, alpha: int) -> int:
    """Power of lam carried by band alpha in the representation of x."""
    a = abs(alpha)
    if a == 0:
        return 1
    if force_exponent == 2:
        return a - 1
    if a % 2 == 0:
        raise ValueError("even bands vanish identically for the quartic force")
    return (a - 1) // 2


def _band_list(force_exponent: int, band_max: int) -> tuple[int, ...]:
    if force_exponent == 2:
        return tuple(range(band_max + 1))
    return tuple(a for a in range(1, band_max + 1, 2))


def _half(alpha: int) -> float:
    return 1.0 if alpha == 0 else 0.5


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


@dataclass(frozen=True)
class CoefficientSet:
    """Per-order amplitude and frequency tables.

    amp[k, alpha, n] holds a^(k)(n, n-alpha) for alpha >= 0 (negative
    bands follow from symmetry); freq_potential[k, n] holds the order-k
    frequency potential, so omega^(k)(n, m) is a difference of two
    entries. Unsolved slots are zero.
    """

    force_exponent: int
    amp: np.ndarray
    freq_potential: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=float)
        pot = np.asarray(self.freq_potential, dtype=float)
        if amp.ndim != 3:
            raise ValueError("amp must have shape (orders, bands, rows)")
        if pot.ndim != 2 or pot.shape != (amp.shape[0], amp.shape[2]):
            raise ValueError("freq_potential must have shape (orders, rows)")
        if self.force_exponent not in (2, 3):
            raise UnsupportedForceError(
                f"force exponent {self.force_exponent!r} not supported"
            )
        for a in (amp, pot):
            a.setflags(write=False)
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "freq_potential", pot)

    @property
    def orders(self) -> int:
        return self.amp.shape[0] - 1

    @property
    def band_max(self) -> int:
        return self.amp.shape[1] - 1

    @property
    def rows(self) -> int:
        return self.amp.shape[2]

    def amplitude(self, k: int, n: int, m: int) -> float:
        """a^(k)(n, m) with the symmetric convention and ground-state floor."""
        if n < 0 or m < 0:
            return 0.0
        lo, hi = min(n, m), max(n, m)
        alpha = hi - lo
        if alpha > self.band_max or hi >= self.rows:
            return 0.0
        return float(self.amp[k, alpha, hi])

    def omega(self, k: int, n: int, m: int) -> float:
        return float(self.freq_potential[k, n] - self.freq_potential[k, m])


# ---------------------------------------------------------------------------
# series arithmetic: banded arrays with one coefficient per power of lam.
# `step` is the row shift of the product law: 1 is the two-index law of
# transition amplitudes; 0 drops it, so that on one row a series is the
# Fourier series of classical harmonic balance.


def _x_series(
    p: int, amp: np.ndarray, max_power: int, band_max: int, step: int = 1
) -> np.ndarray:
    """Representation of x as data[s, band_max+g, n], the lam^s coefficient
    of X(n, n-g), with the band weights and cosine halves folded in. The
    mirrored band is X(n, n+g) = X(n+step*g, n). Leading axes of amp, past
    its (orders, bands, rows), are kept as leading axes of the series."""
    *lead, orders, bands, rows = amp.shape
    data = np.zeros((*lead, max_power + 1, 2 * band_max + 1, rows))
    for a in _band_list(p, min(bands - 1, band_max)):
        for k in range(min(orders, max_power + 1 - band_weight(p, a))):
            _x_put(data, p, amp, k, a, step)
    return data


def _x_put(x: np.ndarray, p: int, amp: np.ndarray, k: int, a: int, step: int = 1) -> None:
    """Write a^(k)(n, n-a) into the x series at its power w(a) + k, on band a
    and its mirror."""
    band_max, rows = (x.shape[-2] - 1) // 2, x.shape[-1]
    s, c = band_weight(p, a) + k, _half(a)
    x[..., s, band_max + a, :] = c * amp[..., k, a, :]
    if a > 0:
        # the mirror reads rows step*a.., none when the band outgrows the table
        x[..., s, band_max - a, : max(rows - step * a, 0)] = c * amp[..., k, a, step * a :]


def _series_mul(
    a: np.ndarray, b: np.ndarray, max_power: int, step: int = 1, min_power: int = 0
) -> np.ndarray:
    """Product of two banded lam-series: sum over g of a(n, n-g) b(n-step*g, .).
    With step 0 on one row this is the convolution over signed harmonics.
    Only the powers min_power..max_power are formed; out[s - min_power] is the
    lam^s coefficient, with the same bits as in the full product. Leading
    axes, past (powers, bands, rows), broadcast: each slice of finite
    series gets the bits of its own product."""
    *_, pa, wa, rows = a.shape
    pb, wb = b.shape[-3:-1]
    ba, bb = (wa - 1) // 2, (wb - 1) // 2
    bc = ba + bb
    out = np.zeros(
        (*(a.shape[:-3] or b.shape[:-3]), max_power + 1 - min_power, 2 * bc + 1, rows),
        dtype=np.result_type(a, b),
    )
    # band g of a feeds rows lo..hi. All-zero (i, g) slices of a and bands of
    # b outside h0..h1-1, the span of its nonzero ones at the powers read, add
    # only zeros (and nan from 0 * inf): out starts at +0 and never holds -0.
    # A slice or band is nonzero if it is in any stacked series.
    n = np.arange(rows)
    shift = step * np.arange(-ba, ba + 1)[:, None]
    mask = (n >= shift) & (n <= rows - 1 + shift)
    live = np.any((a != 0) & mask, axis=(*range(a.ndim - 3), -1)).tolist()
    nonzero = np.any(b != 0, axis=(*range(b.ndim - 3), -1))
    b_lo, b_hi = nonzero.argmax(1).tolist(), (wb - nonzero[:, ::-1].argmax(1)).tolist()
    # where the nonzero bands of b share one parity (odd x, even x^2 of the
    # quartic force), a span takes every other band, from the first of that
    # parity: the others are zero, and as above skipping them shows only as
    # the nan of 0 * inf
    held = nonzero.any(0).tolist()
    hs = 1 if any(held[::2]) and any(held[1::2]) else 2
    parity = held.index(True) % 2 if True in held else 0
    for i, row in enumerate(live[: max_power + 1]):
        j0, j1 = max(0, min_power - i), min(pb, max_power + 1 - i)
        h0, h1 = min(b_lo[j0:j1], default=wb), max(b_hi[j0:j1], default=0)
        h0 += (h0 - parity) % hs
        if h0 >= h1:
            continue
        s0 = i + j0 - min_power
        for k in [k for k, on in enumerate(row) if on]:
            g = k - ba
            sg = step * g
            lo, hi = max(0, sg), min(rows - 1, rows - 1 + sg)
            # a stays 3-d: numpy rounds a single complex product without fma
            # when it broadcasts one factor from fewer dimensions, and with fma
            # here
            g0 = bc + g - bb
            out[..., s0 : s0 + j1 - j0, g0 + h0 : g0 + h1 : hs, lo : hi + 1] += (
                a[..., i : i + 1, k : k + 1, lo : hi + 1]
                * b[..., j0:j1, h0:h1:hs, lo - sg : hi + 1 - sg]
            )
    return out


def _xp_coefficient(
    p: int, x: np.ndarray, x2: np.ndarray, s: int, step: int = 1,
    min_power: int | None = None,
) -> np.ndarray:
    """lam^s coefficient of x^p over (signed band, row), from the x series
    and x2, the coefficients of x^2, both through lam^s. Only the top power
    of x^3 is formed, so a solver that carries x2 across powers adds one
    power of each per step. With min_power, the coefficients
    lam^min_power..lam^s instead, on a powers axis, in one product."""
    lo = s if min_power is None else min_power
    if p == 2:
        xp = x2[..., lo : s + 1, :, :]
    else:
        xp = _series_mul(x2[..., : s + 1, :, :], x, s, step, min_power=lo)
    return xp if min_power is not None else xp[..., 0, :, :]


def _omega_series(pot: np.ndarray, band_max: int) -> np.ndarray:
    """omega^(k)(n, n-g) per band from the frequency potentials."""
    orders, rows = pot.shape
    out = np.zeros((orders, 2 * band_max + 1, rows))
    width = min(band_max, rows - 1)
    for g in range(-width, width + 1):
        lo, k = max(g, 0), rows - abs(g)
        out[:, band_max + g, lo : lo + k] = pot[:, lo : lo + k] - pot[:, lo - g : lo - g + k]
    return out


def _eom_residual_coefficient(
    params: OscillatorParams,
    x: np.ndarray,
    om: np.ndarray,
    power: int,
    xp_top: np.ndarray | None,
    om_right: np.ndarray | None = None,
) -> np.ndarray:
    """lam^power coefficient of the equation-of-motion representative,

        [omega0^2 - omega^2(n, n-g)] X(n, n-g) + lam (X^p)(n, n-g),

    returned as an array over (signed band g, row n), from the x series
    through lam^power, the per-band frequency series om[k, g, n] and xp_top,
    the lam^(power-1) coefficient of x^p (None at power 0). The second
    factor of each omega_i omega_j comes from om_right (default om). Leading
    axes, before (powers, bands, rows), broadcast."""
    band_max = (x.shape[-2] - 1) // 2
    om_right = om if om_right is None else om_right
    res = params.omega0**2 * x[..., power, :, :]
    # omega^2 acts entrywise per band; convolve the three order indices
    for i in range(min(om.shape[-3], power + 1)):
        for j in range(min(om.shape[-3], power + 1 - i)):
            res -= om[..., i, :, :] * om_right[..., j, :, :] * x[..., power - i - j, :, :]
    if xp_top is not None:
        res += _window(xp_top, band_max)
    return res


def _window(series: np.ndarray, band_max: int) -> np.ndarray:
    """The bands -band_max..band_max of a banded array over (band, row)."""
    bc = (series.shape[-2] - 1) // 2
    return series[..., bc - band_max : bc + band_max + 1, :]


def _solve_bands(
    p: int,
    amp: np.ndarray,
    res: np.ndarray,
    t: int,
    bands: tuple[int, ...],
    omega0: float,
    step: int = 1,
) -> dict[int, int]:
    """Solve every band alpha != 1 whose order k = t - w(alpha) is within
    the tables from the lam^t residual, a^(k) = -res / ((1 - alpha^2)
    omega0^2 / 2), on the rows the band reaches. Returns the order solved
    per band."""
    band_max = (res.shape[0] - 1) // 2
    solved = {}
    for alpha in bands:
        k = t - band_weight(p, alpha)
        if alpha == 1 or not 0 <= k < amp.shape[0]:
            continue
        denom = (1.0 - alpha * alpha) * omega0**2 * _half(alpha)
        lo = step * alpha
        amp[k, alpha, lo:] = -res[band_max + alpha, lo:] / denom
        solved[alpha] = k
    return solved


def _qc_residual_coefficient(
    params: OscillatorParams,
    amp: np.ndarray,
    pot: np.ndarray,
    k: int,
    sizes: bool = False,
) -> np.ndarray:
    """lam^k coefficient of the quantum-condition residual

        pi*m * sum_alpha lam^{2 w(alpha)} [ a^2(n+alpha, n) omega(n+alpha, n)
                                          - a^2(n, n-alpha) omega(n, n-alpha) ]
        - h,

    evaluated from the current coefficient tables. With `sizes`, it is
    stacked on a leading axis with the summed size of its terms, formed in
    the same pass: each product by its absolute value, omega(n, m) by
    |Omega(n)| + |Omega(m)|, and h."""
    p = params.force_exponent
    # lam^k reads the orders through k, on bands of weight w <= k/2; every
    # band has w >= (alpha - 1)/2, so none past k + 1
    amp, pot = amp[: k + 1, : k + 2], pot[: k + 1]
    hi = lo = pot
    sign, h = None, -params.h
    if sizes:
        # |a||b| is |ab|, and the size's downward terms enter negated where
        # the residual's are subtracted: x - (-y) is x + y
        amp, size = np.array([amp, np.abs(amp)]), np.abs(pot)
        hi, lo = np.array([pot, size]), np.array([pot, -size])
        sign, h = np.array([[1.0], [-1.0]]), np.array([[-params.h], [params.h]])
    *lead, orders, bands, rows = amp.shape
    res = np.zeros((*lead, rows))
    if k == 0:
        res += h
    for alpha in _band_list(p, bands - 1):
        rem = k - 2 * band_weight(p, alpha)
        if rem < 0:
            continue
        for i in range(min(orders, rem + 1)):
            for j in range(min(orders, rem + 1 - i)):
                l = rem - i - j
                if l >= pot.shape[0]:
                    continue
                m_hi = rows - alpha
                term = amp[..., i, alpha, alpha:] * amp[..., j, alpha, alpha:]
                term *= hi[..., l, alpha:] - lo[..., l, :m_hi]
                # the upward term a(n+alpha, n), defined for n + alpha < rows,
                # less the downward a(n, n-alpha): the same entries, shifted up
                diff = np.zeros(res.shape)
                diff[..., :m_hi] = term
                diff[..., alpha:] -= term if sign is None else sign * term
                res += math.pi * params.mass * diff
    return res


# ---------------------------------------------------------------------------
# public residual functionals


def build_recursions(
    params: OscillatorParams, alpha: int, order: int
) -> Callable[[CoefficientSet], np.ndarray]:
    """Residual functional for band alpha at the given order in lam.

    The returned callable evaluates, on a CoefficientSet, the order-`order`
    coefficient of the band-alpha component of the equation of motion,
    normalized so that the adjacent band reads
    [omega0^2 - omega^2(n, n-1)] a(n, n-1) + ... at order zero. It vanishes
    identically on a solution, row by row, wherever the tables provide the
    neighbors the band couples to.
    """
    p = params.force_exponent
    _check_order(order)
    alpha = abs(alpha)
    w = band_weight(p, alpha)  # raises for even quartic bands
    power = w + order
    scale = 1.0 / _half(alpha)

    def residual(coeffs: CoefficientSet) -> np.ndarray:
        if coeffs.force_exponent != p:
            raise UnsupportedForceError(
                "coefficient tables were built for a different force exponent"
            )
        band_max = max(coeffs.band_max, alpha)
        om = _omega_series(coeffs.freq_potential, band_max)
        return scale * _eom_terms(params, coeffs.amp, om, power)[power, band_max + alpha, :]

    return residual


def _eom_terms(params: OscillatorParams, amp: np.ndarray, om: np.ndarray, t_max: int,
               step: int = 1, om_size: np.ndarray | None = None) -> np.ndarray:
    """The lam^t coefficients, t = 0..t_max, of the equation-of-motion
    representative over (power t, signed band, row) at the amplitude tables
    and the per-band frequency series om[k, g, n], whose bands these are.
    With om_size, the summed size of each frequency's terms, they are
    stacked on a leading axis with the summed size of their own terms,
    formed in the same pass: omega0^2 |X|, 2 |omega_i| om_size_j |X| for
    each omega_i omega_j X, and |x|^p."""
    p, om_right = params.force_exponent, om
    if om_size is not None:
        # the size enters negated, so that it is subtracted as the
        # residual's terms are
        om, om_right = np.stack([om, 2.0 * np.abs(om)]), np.stack([om, -om_size])
        amp = np.stack([amp, np.abs(amp)])
    x = _x_series(p, amp, t_max, (om.shape[-2] - 1) // 2, step)
    x2 = _series_mul(x, x, max(t_max - 1, 0), step)
    xp = _xp_coefficient(p, x, x2, t_max - 1, step, min_power=0)
    return np.stack([
        _eom_residual_coefficient(params, x, om, t, xp[..., t - 1, :, :] if t else None,
                                  om_right)
        for t in range(t_max + 1)
    ], axis=-3)


def quantum_condition_order_residual(sol: "PerturbSolution", k: int) -> np.ndarray:
    """Order-k coefficient of the quantum-condition residual at the solution."""
    c = sol.coeffs
    return _qc_residual_coefficient(sol.params, c.amp, c.freq_potential, k)


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class PerturbSolution:
    """Solved coefficient tables up to the requested order.

    Rows beyond n_max are headroom that keeps rows 0..n_max+band_max, all
    that `assemble_motion` reads, exact; accessors expose n = 0..n_max.
    """

    params: OscillatorParams
    order: int
    n_max: int
    coeffs: CoefficientSet
    solved_orders: dict[int, int]

    @property
    def band_max(self) -> int:
        """Widest band with any solved order."""
        return max(self.solved_orders)

    def a(self, k: int, alpha: int) -> np.ndarray:
        """Coefficients a^(k)(n, n-alpha) for n = 0..n_max."""
        alpha = abs(alpha)
        if alpha not in self.solved_orders or k > self.solved_orders[alpha]:
            raise KeyError(f"band {alpha} not solved at order {k}")
        return self.coeffs.amp[k, alpha, : self.n_max + 1]

    def frequency_potential(self, k: int) -> np.ndarray:
        if k > self.order:
            raise KeyError(f"frequency potential not solved at order {k}")
        return self.coeffs.freq_potential[k, : self.n_max + 1]

    def omega_band(self, k: int, alpha: int = 1) -> np.ndarray:
        """omega^(k)(n, n-alpha) for n = 0..n_max (zero where n < alpha)."""
        pot = self.coeffs.freq_potential[k]
        out = np.zeros(self.n_max + 1)
        n = np.arange(alpha, self.n_max + 1)
        out[alpha:] = pot[n] - pot[n - alpha]
        return out

    @property
    def public_bands(self) -> tuple[int, ...]:
        """Bands a solve publishes: through order + 1 for the cubic force,
        the odd ones through 2*order + 1 for the quartic."""
        return _engine_extent(self.params.force_exponent, self.order)[0]

    @cached_property
    def structure_constants(self) -> dict[int, float]:
        return extract_structure_constants(self)


def _engine_extent(p: int, order: int) -> tuple[tuple[int, ...], int, int, int]:
    """Public bands, power ceiling t_max, engine band width and row pad of
    a solve through the given order.

    The pad is the dependency cone. X(n, n+g) reads row n+g, and products
    that climb h rows above n and come back span 2h in band index, costing
    h powers of lam (quartic) or 2h (cubic). So an order-k table at row n
    reads up to row n+k (quartic) or n+k/2 (cubic; n+k/2+1 on the diagonal
    band, of weight 1), and band_eng rows beyond that reach keep rows
    0..n_max+band_eng, all that `assemble_motion` reads, exact."""
    public = _band_list(p, order + 1 if p == 2 else 2 * order + 1)
    t_max = max(band_weight(p, a) for a in public) + order
    band_eng = t_max + 1 if p == 2 else 2 * t_max + 1
    reach = order // 2 + 1 if p == 2 else order
    return public, t_max, band_eng, band_eng + reach


def _march(params: OscillatorParams, amp: np.ndarray, om: np.ndarray, t_max: int,
           adjacent: Callable[[int, np.ndarray], None], step: int = 1) -> dict[int, int]:
    """Solve the tables amp[k, alpha, n] and the per-band frequency series
    om[k, g, n], both set at order 0, power by power of lam through t_max.
    At each power t within the tables, adjacent(t, res_t) sets the order-t
    frequencies in om and adjacent amplitude in amp from the lam^t
    residual; every other band follows from that residual. x and its square
    are carried across t, each power set once, as its coefficients are
    solved. Returns the order solved per band."""
    p = params.force_exponent
    orders, width, rows = amp.shape
    bands = _band_list(p, width - 1)
    x = np.zeros((t_max + 1, 2 * width - 1, rows))
    _x_put(x, p, amp, 0, 1, step)
    x2 = np.zeros((t_max, 4 * width - 3, rows))
    solved = {1: 0}
    for t in range(1, t_max + 1):
        # x is final through lam^(t-1), all that x^2 and x^p there read
        xt = x[: t + 1]
        x2[t - 1] = _series_mul(xt, xt, t - 1, step, min_power=t - 1)[0]
        res_t = _eom_residual_coefficient(params, xt, om, t,
                                          _xp_coefficient(p, xt, x2, t - 1, step))
        if t < orders:
            adjacent(t, res_t)
            solved[1] = t
            _x_put(x, p, amp, t, 1, step)
        solved_t = _solve_bands(p, amp, res_t, t, bands, params.omega0, step)
        for alpha, k in solved_t.items():
            _x_put(x, p, amp, k, alpha, step)
        solved.update(solved_t)
    return solved


def solve_perturbative(
    params: OscillatorParams, order: int, n_max: int
) -> PerturbSolution:
    """Solve the banded recursion relations through the given order in lam.

    All equation-of-motion residuals and all order-k quantum-condition
    residuals vanish (to rounding) on the returned tables for every row
    up to n_max. The adjacent-band zeroth amplitude is taken positive.
    """
    p = params.force_exponent
    _check_order(order)
    if n_max < order + 3:
        raise DimensionMismatchError(
            f"n_max = {n_max} too small; need at least order + 3 = {order + 3}"
        )
    omega0, beta = params.omega0, params.beta
    _, t_max, band_eng, pad = _engine_extent(p, order)
    rows = n_max + 1 + pad

    amp = np.zeros((order + 1, band_eng + 1, rows))
    pot = np.zeros((order + 1, rows))
    pot[0] = omega0 * np.arange(rows)
    levels = np.arange(rows, dtype=float)
    amp[0, 1, 1:] = beta * np.sqrt(levels[1:])

    om = _omega_series(pot, band_eng)
    a0 = amp[0, 1]

    def adjacent(t: int, res_t: np.ndarray) -> None:
        # the adjacent band's amplitude drops out, the frequency remains
        pot_inc = np.zeros(rows)
        pot_inc[1:] = res_t[band_eng + 1, 1:] / (omega0 * a0[1:])
        pot[t] = np.cumsum(pot_inc)
        om[t] = _omega_series(pot[t : t + 1], band_eng)[0]
        # sum rule at order t: difference equation integrated from n = 0
        u = -np.cumsum(_qc_residual_coefficient(params, amp, pot, t))
        amp[t, 1, 1:] = u[:-1] / (2.0 * math.pi * params.mass * omega0 * a0[1:])

    solved = _march(params, amp, om, t_max, adjacent)
    coeffs = CoefficientSet(force_exponent=p, amp=amp, freq_potential=pot)
    return PerturbSolution(params=params, order=order, n_max=n_max, coeffs=coeffs,
                           solved_orders=solved)


def sho_solve(params: OscillatorParams, n_max: int) -> PerturbSolution:
    """Exact solution of the unperturbed oscillator (lam = 0 required).

    Assuming only adjacent-level transitions survive, the equation of
    motion forces omega(n, n-1) = omega0 and the sum rule fixes
    a(n, n-1) = beta*sqrt(n), with the ground-state floor killing the
    integration constant. Energies follow as (n + 1/2)*hbar*omega0.
    """
    if params.lam != 0.0:
        raise ValueError("sho_solve requires lam = 0; use solve_perturbative instead")
    if n_max < 1:
        raise DimensionMismatchError("n_max must be at least 1")
    pad = 4
    rows = n_max + 1 + pad
    amp = np.zeros((1, 2, rows))
    amp[0, 1, 1:] = params.beta * np.sqrt(np.arange(1, rows, dtype=float))
    pot = params.omega0 * np.arange(rows, dtype=float)[None, :]
    coeffs = CoefficientSet(
        force_exponent=params.force_exponent, amp=amp, freq_potential=pot
    )
    return PerturbSolution(
        params=params, order=0, n_max=n_max, coeffs=coeffs, solved_orders={1: 0}
    )


# ---------------------------------------------------------------------------
# closed forms (cubic force), used as regression targets for the solver


def _falling_sqrt(n: np.ndarray | int, alpha: int) -> np.ndarray | float:
    """sqrt(n (n-1) ... (n-alpha+1)), zero below the floor."""
    n = np.asarray(n, dtype=float)
    out = np.ones_like(n)
    for j in range(alpha):
        out = out * np.clip(n - j, 0.0, None)
    return np.sqrt(out)


def closed_form_amplitude(
    k: int, n: int | np.ndarray, alpha: int, params: OscillatorParams
) -> float | np.ndarray:
    """Tabulated closed-form a^(k)(n, n-alpha) for the cubic force, zero
    below the floor n < alpha. For an array of levels n the result is the
    array of the values the scalar form gives, bit for bit."""
    if params.force_exponent != 2:
        raise NoClosedFormError("closed forms are tabulated for the cubic force only")
    alpha = abs(alpha)
    levels = np.asarray(n, dtype=float)
    floor = levels < alpha
    if levels.ndim == 0 and floor:
        return 0.0
    # rows below the floor are zeroed at the end; lifting them keeps sqrt real
    n = np.maximum(levels, alpha)
    b, w0 = params.beta, params.omega0
    root = _falling_sqrt(n, alpha)
    value = None
    if k == 0:
        if alpha == 0:
            value = -(b**2) / (4.0 * w0**2) * (2.0 * n + 1.0)
        elif alpha == 1:
            value = b * np.sqrt(n)
        elif alpha == 2:
            value = b**2 / (6.0 * w0**2) * root
        elif alpha == 3:
            value = b**3 / (48.0 * w0**4) * root
    elif k == 1:
        if alpha in (0, 1, 2):
            value = 0.0
    elif k == 2:
        if alpha == 0:
            value = -(b**4) / (72.0 * w0**6) * (30.0 * n**2 + 30.0 * n + 11.0)
        elif alpha == 1:
            value = 11.0 * b**3 / (72.0 * w0**4) * n * np.sqrt(n)
        elif alpha == 2:
            value = 3.0 * b**4 / (32.0 * w0**6) * (2.0 * n - 1.0) * root
    if value is None:
        raise NoClosedFormError(f"no tabulated closed form for (k={k}, alpha={alpha})")
    return _like(levels, np.where(floor, 0.0, value))


def closed_form_frequency(
    k: int, n: int | np.ndarray, alpha: int, params: OscillatorParams
) -> float | np.ndarray:
    """Tabulated closed-form omega^(k)(n, n-alpha); n may be an array of levels."""
    alpha = abs(alpha)
    n = np.asarray(n, dtype=float)
    b, w0 = params.beta, params.omega0
    if k == 0:
        value = alpha * params.omega0
    elif params.force_exponent != 2:
        raise NoClosedFormError(
            "frequency corrections are tabulated for the cubic force only"
        )
    elif k == 1 and alpha == 1:
        value = 0.0
    elif k == 2 and alpha == 1:
        value = -5.0 * b**2 / (12.0 * w0**3) * n
    elif k == 2 and alpha == 2:
        value = -5.0 * b**2 / (12.0 * w0**3) * (2.0 * n - 1.0)
    else:
        raise NoClosedFormError(f"no tabulated frequency form for (k={k}, alpha={alpha})")
    return _like(n, value)


def _like(levels: np.ndarray, value) -> float | np.ndarray:
    """value over the shape of levels: a float for a scalar level."""
    out = np.broadcast_to(value, levels.shape)
    return float(out) if out.ndim == 0 else np.array(out, dtype=float)


def extract_structure_constants(
    sol: PerturbSolution,
    band_max: int | None = None,
    tol: float = 1e-10,
) -> dict[int, float]:
    """Numerical factors A_alpha in the lowest-order pattern

        a^(0)(n, n-alpha) = A_alpha * beta^alpha / omega0^e * sqrt(n!/(n-alpha)!),

    with e = 2 w(alpha), twice the band weight: 2(alpha-1) for the cubic
    force and alpha-1 for the quartic.
    The factor must come out independent of n; a spread beyond tol raises
    StructureViolationError.
    """
    p = sol.params.force_exponent
    b, w0 = sol.params.beta, sol.params.omega0
    if band_max is None:
        band_max = sol.band_max
    out: dict[int, float] = {}
    for alpha in _band_list(p, band_max):
        if alpha == 0 or alpha not in sol.solved_orders:
            continue
        n = np.arange(alpha, sol.n_max + 1)
        if n.size == 0:
            continue
        exp = 2 * band_weight(p, alpha)
        norm = b**alpha / w0**exp * _falling_sqrt(n, alpha)
        vals = sol.coeffs.amp[0, alpha, alpha : sol.n_max + 1] / norm
        ref = float(np.median(vals))
        spread = float(np.max(np.abs(vals - ref)))
        if spread > tol * max(1.0, abs(ref)):
            raise StructureViolationError(
                f"band {alpha}: lowest-order amplitudes are n-dependent "
                f"(spread {spread:.3e} about {ref:.6e})"
            )
        out[alpha] = ref
    return out


# ---------------------------------------------------------------------------
# assembly at numeric coupling


def assemble_motion(
    sol: PerturbSolution, lam: float, n_max: int | None = None
) -> MotionRepresentation:
    """Sum the coefficient tables at a numeric coupling into a motion
    representation (real-symmetric amplitudes plus a frequency grid)."""
    if n_max is None:
        n_max = sol.n_max
    if n_max > sol.n_max:
        raise DimensionMismatchError(
            f"requested n_max {n_max} exceeds solved range {sol.n_max}"
        )
    p = sol.params.force_exponent
    c = sol.coeffs
    band_max = sol.band_max
    data = np.zeros((n_max + 1, 2 * band_max + 1))
    for alpha, k_hi in sorted(sol.solved_orders.items()):
        w = band_weight(p, alpha)
        series = np.zeros(c.rows)
        for k in range(k_hi + 1):
            series += lam**k * c.amp[k, alpha, :]
        series *= _half(alpha) * lam**w
        data[:, band_max + alpha] = series[: n_max + 1]
        if alpha > 0:
            upper = series[alpha : alpha + n_max + 1]
            data[: upper.size, band_max - alpha] = upper
    grid_rows = min(c.rows, n_max + band_max + 1)
    potential = np.zeros(grid_rows)
    for k in range(sol.order + 1):
        potential += lam**k * c.freq_potential[k, :grid_rows]
    params = sol.params
    if params.lam != lam:
        params = replace(params, lam=lam)
    return MotionRepresentation(
        amplitudes=BandAmplitudeArray(data),
        frequencies=FrequencyGrid(potential),
        params=params,
    )


# ---------------------------------------------------------------------------
# energy


@dataclass(frozen=True)
class EnergyMatrix:
    """Energy representatives W(n, n-alpha), split by power of lam and by
    term of the energy function (kinetic, harmonic, anharmonic).

    Arrays are indexed [power, alpha, n] with alpha >= 0; the full matrix
    is symmetric. Off-diagonal bands vanish order by order on a solution,
    which `energy_matrix` verifies before returning.
    """

    order_cap: int
    band_max: int
    n_max: int
    kinetic: np.ndarray
    harmonic: np.ndarray
    anharmonic: np.ndarray

    def total(self, k: int, alpha: int) -> np.ndarray:
        a = abs(alpha)
        return self.kinetic[k, a] + self.harmonic[k, a] + self.anharmonic[k, a]

    def diagonal(self, k: int) -> np.ndarray:
        return self.total(k, 0)

    def offdiag(self, k: int) -> tuple[float, float]:
        """Largest |W(n, n-alpha)| over the off-diagonal bands at order lam^k,
        and its rounding bound c eps (n+1) (|K|+|H|+|A|)(n) at worst; n+1 is
        the length of the sum-rule cumsum that feeds row n."""
        parts = (self.kinetic[k, 1:], self.harmonic[k, 1:], self.anharmonic[k, 1:])
        size = (np.arange(self.n_max + 1) + 1.0) * sum(np.abs(a) for a in parts)
        return (float(np.max(np.abs(parts[0] + parts[1] + parts[2]), initial=0.0)),
                ROUNDING_C * float(np.finfo(float).eps) * float(np.max(size, initial=0.0)))


def energy_matrix(sol: PerturbSolution, order_cap: int | None = None) -> EnergyMatrix:
    """Assemble W = m x'^2 / 2 + m omega0^2 x^2 / 2 + m lam x^(p+1)/(p+1)
    through lam^order_cap with the two-index product law.

    The kinetic term uses the entrywise derivative i*omega(n, m) X(n, m),
    so its frequency signs follow the antisymmetry omega(n, m) = -omega(m, n);
    with the i taken out, x'^2 = -(omega X)^2 in real arithmetic.
    Raises EnergyConservationError if any off-diagonal element fails to
    vanish to rounding (`EnergyMatrix.offdiag`) at the computed orders.
    """
    if order_cap is None:
        order_cap = sol.order
    if order_cap > sol.order:
        raise UnimplementedOrderError(
            f"energy through lam^{order_cap} needs a solution of order "
            f"{order_cap}, have {sol.order}"
        )
    p = sol.params.force_exponent
    c = sol.coeffs
    m = sol.params.mass
    band_x = sol.band_max
    x = _x_series(p, c.amp, order_cap, band_x)
    om = _omega_series(c.freq_potential, band_x)
    wx = np.zeros_like(x)
    for s in range(order_cap + 1):
        for j in range(min(om.shape[0], s + 1)):
            wx[s] += om[j] * x[s - j]

    x2 = _series_mul(x, x, order_cap)
    # negating a factor, not the product, keeps the signs of zeros of the
    # real part of (i wx)(i wx)
    d2 = _series_mul(-wx, wx, order_cap)
    # the anharmonic term x^(p+1) carries one explicit power of lam
    src = _series_mul(x2, x if p == 2 else x2, order_cap - 1)
    band_rep = min(max(_engine_extent(p, order_cap)[0]) + 1, 2 * band_x)
    n_keep = sol.n_max + 1

    def _trim(series: np.ndarray, factor: float, shift: int) -> np.ndarray:
        out = np.zeros((order_cap + 1, band_rep + 1, n_keep))
        bc = (series.shape[1] - 1) // 2
        out[shift:] = factor * series[: order_cap + 1 - shift, bc : bc + band_rep + 1, :n_keep]
        return out

    kinetic = _trim(d2, 0.5 * m, 0)
    harmonic = _trim(x2, 0.5 * m * sol.params.omega0**2, 0)
    anharmonic = _trim(src, m / (p + 1.0), 1)

    em = EnergyMatrix(
        order_cap=order_cap,
        band_max=band_rep,
        n_max=sol.n_max,
        kinetic=kinetic,
        harmonic=harmonic,
        anharmonic=anharmonic,
    )
    for s in range(order_cap + 1):
        observed, tolerance = em.offdiag(s)
        if observed > tolerance:
            raise EnergyConservationError(s, observed, tolerance)
    return em


@dataclass(frozen=True)
class EnergyDiagonalSeries:
    """Level energies as a power series in lam, with the three energy-term
    contributions reported separately."""

    params: OscillatorParams
    n_max: int
    kinetic: np.ndarray
    harmonic: np.ndarray
    anharmonic: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.kinetic + self.harmonic + self.anharmonic

    def evaluate(self, lam: float) -> np.ndarray:
        orders = self.total.shape[0]
        powers = lam ** np.arange(orders)
        return np.tensordot(powers, self.total, axes=(0, 0))


def energy_diagonal_series(sol: PerturbSolution) -> EnergyDiagonalSeries:
    """Diagonal of the energy matrix, per power of lam and per term."""
    em = energy_matrix(sol, sol.order)
    return EnergyDiagonalSeries(
        params=sol.params,
        n_max=sol.n_max,
        kinetic=em.kinetic[:, 0, :],
        harmonic=em.harmonic[:, 0, :],
        anharmonic=em.anharmonic[:, 0, :],
    )
