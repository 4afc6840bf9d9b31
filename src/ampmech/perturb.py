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
coupling enters only when an energy value or the commutator's deviation
(`checks.coupling_scaling`) is summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import DimensionMismatchError, _omega_series, _series_mul
from .params import OscillatorParams

__all__ = [
    "NoClosedFormError",
    "StructureViolationError",
    "EnergyConservationError",
    "CoefficientSet",
    "PerturbSolution",
    "solve_perturbative",
    "closed_form_amplitude",
    "closed_form_frequency",
    "extract_structure_constants",
    "EnergyMatrix",
    "energy_matrix",
]

# c of every rounding bound c*eps*(summed size of the terms) in `checks` and
# `EnergyMatrix.offdiag`: about 4 times the largest ratio measured over
# n_max 12..3000, both forces and random unit systems
ROUNDING_C = 4.0


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


def _band_list(force_exponent: int, band_max: int) -> range:
    if force_exponent == 2:
        return range(band_max + 1)
    return range(1, band_max + 1, 2)


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

    amp: np.ndarray
    freq_potential: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=float)
        pot = np.asarray(self.freq_potential, dtype=float)
        if amp.ndim != 3:
            raise ValueError("amp must have shape (orders, bands, rows)")
        if pot.ndim != 2 or pot.shape != (amp.shape[0], amp.shape[2]):
            raise ValueError("freq_potential must have shape (orders, rows)")
        for a in (amp, pot):
            a.setflags(write=False)
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "freq_potential", pot)

    @property
    def band_max(self) -> int:
        return self.amp.shape[1] - 1

    @property
    def rows(self) -> int:
        return self.amp.shape[2]


# ---------------------------------------------------------------------------
# the series of x, x^p, the equation-of-motion residual and the sum rule, in
# the series arithmetic of `core` (`step` as there). Each series the engine
# forms carries its (power, band) nonzero mask for `_series_mul`: x its table
# slots' as they are written, omega x one from the masks of its factors, and
# a product one `any` per power it forms.


def _x_series(
    p: int, amp: np.ndarray, max_power: int, band_max: int, step: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Representation of x as data[s, band_max+g, n], the lam^s coefficient
    of X(n, n-g), with the band weights and cosine halves folded in, and its
    nonzero mask over (s, band_max+g). The mirrored band is X(n, n+g) =
    X(n+step*g, n). Leading axes of amp, past its (orders, bands, rows), are
    kept as leading axes of the series."""
    *lead, orders, bands, rows = amp.shape
    data = np.zeros((*lead, max_power + 1, 2 * band_max + 1, rows))
    live = np.zeros(data.shape[-3:-1], dtype=bool)
    for a in _band_list(p, min(bands - 1, band_max)):
        for k in range(min(orders, max_power + 1 - band_weight(p, a))):
            _x_put(data, live, p, amp, k, a, step)
    return data, live


def _x_put(x: np.ndarray, live: np.ndarray, p: int, amp: np.ndarray, k: int, a: int,
           step: int = 1) -> None:
    """Write a^(k)(n, n-a) into the x series at its power w(a) + k, on band a
    and its mirror, and whether it is nonzero into the mask live."""
    band_max, rows = (x.shape[-2] - 1) // 2, x.shape[-1]
    s, c = band_weight(p, a) + k, _half(a)
    x[..., s, band_max + a, :] = c * amp[..., k, a, :]
    live[s, band_max + a] = live[s, band_max - a] = amp[..., k, a, :].any()
    if a > 0:
        # the mirror reads rows step*a.., none when the band outgrows the table
        x[..., s, band_max - a, : max(rows - step * a, 0)] = c * amp[..., k, a, step * a :]


def _x2_window(p: int, bands: range, band_max: int, max_power: int) -> tuple[int, int]:
    """Signed bands lo..hi of x^2 through lam^max_power that the bands of x^p
    from bands[0] through bands[-1] read there, for x on -band_max..band_max:
    those same bands for the cubic force (x^p = x^2). For the quartic
    (x^p = x^2 x) the band weights end the window at both ends. x holds band
    a from lam^w(a) on, so at lam^s it holds the bands up to top(s), the
    widest a with w(a) <= s, and x^2 those up to the widest sum a + b with
    w(a) + w(b) <= s. And x^p = x^2 x at lam^s reads x^2 at lam^i only
    within top(s - i) of its own bands, at most top(max_power - i). Bands
    beyond that reach at every power read no band of x^2, and take the
    one-band window of bands[0], which holds only zeros."""
    if p == 2:
        return bands[0], bands[-1]
    top = [max([a for a in _band_list(p, band_max) if band_weight(p, a) <= s], default=-1)
           for s in range(max_power + 1)]
    spans = []
    for i in range(max_power + 1):
        widest = max(top[j] + top[i - j] for j in range(i + 1))
        reach = top[max_power - i]
        lo, hi = max(-widest, bands[0] - reach), min(widest, bands[-1] + reach)
        if lo <= hi:
            spans.append((lo, hi))
    return (min((lo for lo, _ in spans), default=bands[0]),
            max((hi for _, hi in spans), default=bands[0]))


def _xp_coefficient(
    p: int, x: np.ndarray, x2: np.ndarray, x2_lo: int, s: int, bands: range, step: int = 1,
    min_power: int | None = None, *, masks: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """lam^s coefficient of x^p over (band, row), on the signed bands from
    bands[0] through bands[-1], from the x series and x2, the coefficients of
    x^2 on the bands from x2_lo up, which hold the `_x2_window` of these
    bands, both through lam^s, with masks the nonzero masks of the two.
    Only the top power of x^3 is formed, so a solver that carries x2 across
    powers adds one power of each per step. With min_power, the
    coefficients lam^min_power..lam^s instead, on a powers axis, in one
    product."""
    lo = s if min_power is None else min_power
    if p == 2:
        xp = x2[..., lo : s + 1, bands[0] - x2_lo : bands[-1] + 1 - x2_lo, :]
    else:
        xp = _series_mul(x2[..., : s + 1, :, :], x, s, step, min_power=lo,
                         bands=(bands[0], bands[-1]), a_lo=x2_lo,
                         masks=(masks[1][: s + 1], masks[0]))
    return xp if min_power is not None else xp[..., 0, :, :]


def _orders_live(om: np.ndarray, bands: range) -> list[bool]:
    """Whether each order of a frequency series om[k, g, n] holds a nonzero
    entry on the signed bands of `bands`, in any stacked series."""
    band_max = (om.shape[-2] - 1) // 2
    on = om[..., band_max + bands.start : band_max + bands.stop : bands.step, :]
    return np.any(on, axis=(*range(on.ndim - 3), -2, -1)).tolist()


def _eom_residual_coefficient(
    params: OscillatorParams,
    x: np.ndarray,
    om: np.ndarray,
    power: int,
    xp_top: np.ndarray | None,
    bands: range,
    om_right: np.ndarray,
    live: tuple[list[bool], list[bool]],
) -> np.ndarray:
    """lam^power coefficient of the equation-of-motion representative,

        [omega0^2 - omega^2(n, n-g)] X(n, n-g) + lam (X^p)(n, n-g),

    returned as an array over (band, row n) on the signed bands g of `bands`,
    from the x series through lam^power, the per-band frequency series
    om[k, g, n], both on the same bands, and xp_top, the lam^(power-1)
    coefficient of x^p on bands[0]..bands[-1] (None at power 0). The second
    factor of each omega_i omega_j comes from om_right. live says per order
    whether om and om_right hold a nonzero entry on `bands`, as
    `_orders_live` finds. Leading axes, before (powers, bands, rows),
    broadcast."""
    band_max = (x.shape[-2] - 1) // 2
    on = slice(band_max + bands.start, band_max + bands.stop, bands.step)
    left, right = live
    res = params.omega0**2 * x[..., power, on, :]
    # omega^2 acts entrywise per band; convolve the three order indices. A
    # pair with an all-zero order subtracts only zeros: after the first pair
    # res holds no -0, so skipping them keeps its bits
    for i in range(min(om.shape[-3], power + 1)):
        for j in range(min(om.shape[-3], power + 1 - i)):
            if i + j and not (left[i] and right[j]):
                continue
            res -= om[..., i, on, :] * om_right[..., j, on, :] * x[..., power - i - j, on, :]
    if xp_top is not None:
        res += xp_top[..., :: bands.step, :]
    return res


def _solve_bands(
    p: int,
    amp: np.ndarray,
    res: np.ndarray,
    t: int,
    bands: range,
    omega0: float,
    step: int = 1,
) -> dict[int, int]:
    """Solve every band alpha != 1 whose order k = t - w(alpha) is within
    the tables from the lam^t residual res on `bands`, a^(k) = -res /
    ((1 - alpha^2) omega0^2 / 2), on the rows the band reaches. Returns the
    order solved per band."""
    solved = {}
    for i, alpha in enumerate(bands):
        k = t - band_weight(p, alpha)
        if alpha == 1 or not 0 <= k < amp.shape[0]:
            continue
        denom = (1.0 - alpha * alpha) * omega0**2 * _half(alpha)
        lo = step * alpha
        amp[k, alpha, lo:] = -res[i, lo:] / denom
        solved[alpha] = k
    return solved


def _rate_series(om: np.ndarray, x: np.ndarray, powers: range) -> np.ndarray:
    """omega X, the real factor of the time derivative i omega X, at the
    powers s of `powers` on a powers axis: sum_j om[j] x[s-j] entrywise, from
    the per-band frequency series om[k, g, n] and the x series through
    lam^powers[-1], on the same bands. Leading axes, before (powers, bands,
    rows), broadcast."""
    lead = np.broadcast_shapes(om.shape[:-3], x.shape[:-3])
    out = np.zeros((*lead, len(powers), *x.shape[-2:]))
    for i, s in enumerate(powers):
        for j in range(min(om.shape[-3], s + 1)):
            out[..., i, :, :] += om[..., j, :, :] * x[..., s - j, :, :]
    return out


def _rate_mask(om_live: np.ndarray, x_live: np.ndarray, powers: range) -> np.ndarray:
    """Nonzero mask of `_rate_series` over (power, band) from om_live[k],
    whether frequency order k holds a nonzero entry, and x_live, the mask of
    the x series. omega(n, n) is formed as 0, so band 0 is zero."""
    out = np.zeros((len(powers), x_live.shape[-1]), dtype=bool)
    for i, s in enumerate(powers):
        for j in range(min(len(om_live), s + 1)):
            if om_live[j]:
                out[i] |= x_live[s - j]
    out[:, (x_live.shape[-1] - 1) // 2] = False
    return out


def _sum_rule(params: OscillatorParams, x: np.ndarray, wx: np.ndarray, max_power: int,
              min_power: int = 0, masks: tuple[np.ndarray, np.ndarray] | None = None,
              ) -> np.ndarray:
    """lam^min_power..lam^max_power coefficients of the sum-rule residual

        4 pi m sum_alpha [ X^2(n+alpha, n) omega(n+alpha, n)
                           - X^2(n, n-alpha) omega(n, n-alpha) ] - h

    over (power, row n), from the x series and wx, its `_rate_series`, both
    through lam^max_power, with masks their nonzero masks (default
    `core._nonzero`). The sum is band 0 of the product x (omega x):
    its term X(n, n-g) omega(n-g, n) X(n-g, n) is a downward one for g > 0
    and an upward one for g < 0. With X symmetric and omega antisymmetric,
    (omega x) x has the opposite diagonal, so the residual is 2 pi times
    [x, p](n, n)/i - hbar. Leading axes broadcast."""
    res = 4.0 * math.pi * params.mass * _series_mul(
        x, wx, max_power, min_power=min_power, bands=(0, 0), masks=masks)[..., 0, :]
    if min_power == 0:
        res[..., 0, :] -= params.h
    return res


def _eom_terms(params: OscillatorParams, amp: np.ndarray, om: np.ndarray, t_max: int,
               bands: range, step: int = 1, om_size: np.ndarray | None = None) -> np.ndarray:
    """The lam^t coefficients, t = 0..t_max, of the equation-of-motion
    representative over (power t, band, row) on the signed bands of `bands`,
    at the amplitude tables and the per-band frequency series om[k, g, n].
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
    band_max = (om.shape[-2] - 1) // 2
    x, x_live = _x_series(p, amp, t_max, band_max, step)
    top = max(t_max - 1, 0)
    window = _x2_window(p, bands, band_max, top)
    x2 = _series_mul(x, x, top, step, bands=window, masks=(x_live, x_live))
    x2_live = np.any(x2, axis=(*range(x2.ndim - 3), -1))
    xp = _xp_coefficient(p, x, x2, window[0], t_max - 1, bands, step, min_power=0,
                         masks=(x_live, x2_live))
    live = _orders_live(om, bands), _orders_live(om_right, bands)
    return np.stack([
        _eom_residual_coefficient(params, x, om, t, xp[..., t - 1, :, :] if t else None,
                                  bands, om_right, live)
        for t in range(t_max + 1)
    ], axis=-3)


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class PerturbSolution:
    """Solved coefficient tables up to the requested order.

    Rows beyond n_max are headroom that keeps rows 0..n_max+band_max, all
    that the sum rule of rows 0..n_max reads, exact; accessors expose
    n = 0..n_max.
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

    def omega_band(self, k: int, alpha: int) -> np.ndarray:
        """omega^(k)(n, n-alpha) for n = 0..n_max (zero where n < alpha)."""
        pot = self.coeffs.freq_potential[k : k + 1, : self.n_max + 1]
        return _omega_series(pot, alpha, range(alpha, alpha + 1))[0, 2 * alpha]

    @property
    def public_bands(self) -> range:
        """Bands a solve publishes: through order + 1 for the cubic force,
        the odd ones through 2*order + 1 for the quartic."""
        return _engine_extent(self.params.force_exponent, self.order)[0]


def _engine_extent(p: int, order: int) -> tuple[range, int, int, int]:
    """Public bands, power ceiling t_max, engine band width and row pad of
    a solve through the given order.

    The pad is the dependency cone. X(n, n+g) reads row n+g, and products
    that climb h rows above n and come back span 2h in band index, costing
    h powers of lam (quartic) or 2h (cubic). So an order-k table at row n
    reads up to row n+k (quartic) or n+k/2 (cubic; n+k/2+1 on the diagonal
    band, of weight 1), and band_eng rows beyond that reach keep rows
    0..n_max+band_eng, all that the sum rule reads, exact."""
    public = _band_list(p, order + 1 if p == 2 else 2 * order + 1)
    t_max = max(band_weight(p, a) for a in public) + order
    band_eng = t_max + 1 if p == 2 else 2 * t_max + 1
    reach = order // 2 + 1 if p == 2 else order
    return public, t_max, band_eng, band_eng + reach


def _power_bands(p: int, orders: int, band_max: int, t_max: int) -> list[range]:
    """The bands the march solves at each power t = 1..t_max of lam: those
    alpha of `_band_list` whose order t - w(alpha) is within the tables, as
    one range from the first to the last. For the quartic force at order 2
    these are {1, 3}, {1, 3, 5}, {3, 5, 7} and {5, 7, 9}."""
    bands = _band_list(p, band_max)
    out = []
    for t in range(1, t_max + 1):
        solved = [a for a in bands if 0 <= t - band_weight(p, a) < orders]
        out.append(range(solved[0], solved[-1] + 1, bands.step))
    return out


def _march(params: OscillatorParams, amp: np.ndarray, om: np.ndarray, t_max: int,
           adjacent: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None],
           step: int = 1) -> dict[int, int]:
    """Solve the tables amp[k, alpha, n] and the per-band frequency series
    om[k, g, n], both set at order 0, power by power of lam through t_max.
    At each power t within the tables, adjacent(t, res, x, live) sets the
    order-t frequencies in om and adjacent amplitude in amp from res, the
    lam^t residual on band 1, and x, the x series through lam^t, final
    through lam^(t-1), with live its nonzero mask; every other band follows
    from that residual. om is read on the bands of `_band_list`. x and its
    square are carried across t, each power set once, as its coefficients
    are solved, with their masks; x^p and the residual at lam^t are formed
    on the bands whose order t solves (`_power_bands`), and x^2 on the
    bands that x^p reads at any of them. Returns the order solved per
    band."""
    p = params.force_exponent
    orders, width, rows = amp.shape
    plan = _power_bands(p, orders, width - 1, t_max)
    x = np.zeros((t_max + 1, 2 * width - 1, rows))
    x_live = np.zeros(x.shape[:2], dtype=bool)
    _x_put(x, x_live, p, amp, 0, 1, step)
    spans = [_x2_window(p, bands, width - 1, t - 1) for t, bands in enumerate(plan, 1)]
    window = min((lo for lo, _ in spans), default=0), max((hi for _, hi in spans), default=0)
    x2 = np.zeros((t_max, window[1] + 1 - window[0], rows))
    x2_live = np.zeros(x2.shape[:2], dtype=bool)
    # the unsolved frequency orders are zero
    every = _band_list(p, width - 1)
    om_live = _orders_live(om[:1], every) + [False] * (orders - 1)
    solved = {1: 0}
    for t, bands in enumerate(plan, 1):
        # x is final through lam^(t-1), all that x^2 and x^p there read
        xt, live = x[: t + 1], x_live[: t + 1]
        x2[t - 1] = _series_mul(xt, xt, t - 1, step, min_power=t - 1, bands=window,
                                masks=(live, live))[0]
        x2_live[t - 1] = x2[t - 1].any(axis=-1)
        xp_top = _xp_coefficient(p, xt, x2, window[0], t - 1, bands, step,
                                 masks=(live, x2_live))
        res_t = _eom_residual_coefficient(params, xt, om, t, xp_top, bands, om,
                                          (om_live, om_live))
        if t < orders:
            adjacent(t, res_t[bands.index(1)], xt, live)
            om_live[t] = _orders_live(om[t : t + 1], every)[0]
            solved[1] = t
            _x_put(x, x_live, p, amp, t, 1, step)
        solved_t = _solve_bands(p, amp, res_t, t, bands, params.omega0, step)
        for alpha, k in solved_t.items():
            _x_put(x, x_live, p, amp, k, alpha, step)
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
    if n_max < 1:
        raise DimensionMismatchError("n_max must be at least 1")
    omega0, beta = params.omega0, params.beta
    public, t_max, band_eng, pad = _engine_extent(p, order)
    rows = n_max + 1 + pad

    amp = np.zeros((order + 1, band_eng + 1, rows))
    pot = np.zeros((order + 1, rows))
    pot[0] = omega0 * np.arange(rows)
    levels = np.arange(rows, dtype=float)
    amp[0, 1, 1:] = beta * np.sqrt(levels[1:])

    # omega on the bands that are read: the march's, of `_band_list`, and
    # the public window of the sum rule below, the odd ones only for the
    # quartic force, whose even bands of x are zero
    om_bands = range(-max(public), band_eng + 1, public.step)
    om = _omega_series(pot, band_eng, om_bands)
    # through lam^order the sum rule reads bands of weight w <= order/2, all
    # public: x and omega x on those
    win = slice(band_eng - max(public), band_eng + max(public) + 1)
    wx = np.zeros((order + 1, 2 * max(public) + 1, rows))
    wx_live = np.zeros(wx.shape[:2], dtype=bool)
    a0 = amp[0, 1]

    def adjacent(t: int, res: np.ndarray, x: np.ndarray, live: np.ndarray) -> None:
        # the adjacent band's amplitude drops out, the frequency remains
        pot_inc = np.zeros(rows)
        pot_inc[1:] = res[1:] / (omega0 * a0[1:])
        pot[t] = np.cumsum(pot_inc)
        om[t] = _omega_series(pot[t : t + 1], band_eng, om_bands)[0]
        # sum rule at order t: difference equation integrated from n = 0.
        # At lam^t it reads x and omega x only on bands +-1, through the
        # unknown order-t amplitude, still zero; omega x is final through
        # lam^(t-1), as x is, and its lam^t is formed again at t + 1
        x_win, live_win = x[:, win], live[:, win]
        powers = range(t - 1, t + 1)
        wx[t - 1 : t + 1] = _rate_series(om[:, win], x_win, powers)
        wx_live[t - 1 : t + 1] = _rate_mask(pot[: t + 1].any(axis=-1), live_win, powers)
        u = -np.cumsum(_sum_rule(params, x_win, wx[: t + 1], t, min_power=t,
                                 masks=(live_win, wx_live[: t + 1]))[0])
        amp[t, 1, 1:] = u[:-1] / (2.0 * math.pi * params.mass * omega0 * a0[1:])

    solved = _march(params, amp, om, t_max, adjacent)
    coeffs = CoefficientSet(amp=amp, freq_potential=pot)
    return PerturbSolution(params=params, order=order, n_max=n_max, coeffs=coeffs,
                           solved_orders=solved)


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


def extract_structure_constants(sol: PerturbSolution) -> dict[int, float]:
    """Numerical factors A_alpha in the lowest-order pattern

        a^(0)(n, n-alpha) = A_alpha * beta^alpha / omega0^e * sqrt(n!/(n-alpha)!),

    with e = 2 w(alpha), twice the band weight: 2(alpha-1) for the cubic
    force and alpha-1 for the quartic.
    The factor must come out independent of n; a spread beyond
    1e-10 max(1, |A_alpha|) raises StructureViolationError.
    """
    p = sol.params.force_exponent
    b, w0 = sol.params.beta, sol.params.omega0
    out: dict[int, float] = {}
    for alpha in _band_list(p, sol.band_max):
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
        if spread > 1e-10 * max(1.0, abs(ref)):
            raise StructureViolationError(
                f"band {alpha}: lowest-order amplitudes are n-dependent "
                f"(spread {spread:.3e} about {ref:.6e})"
            )
        out[alpha] = ref
    return out


# ---------------------------------------------------------------------------
# energy


@dataclass(frozen=True)
class EnergyMatrix:
    """Energy representatives W(n, n-alpha) through lam^order, split by power
    of lam and by term of the energy function (kinetic, harmonic,
    anharmonic).

    Arrays are indexed [power, alpha, n] with alpha >= 0; the full matrix
    is symmetric. Off-diagonal bands vanish order by order on a solution,
    which `energy_matrix` verifies before returning, and the level energies
    are the diagonal.
    """

    order: int
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

    def evaluate(self, lam: float) -> np.ndarray:
        """Level energies sum_k lam^k W^(k)(n, n) at a numeric coupling."""
        total = self.kinetic[:, 0] + self.harmonic[:, 0] + self.anharmonic[:, 0]
        return np.tensordot(lam ** np.arange(self.order + 1), total, axes=(0, 0))

    def offdiag(self, k: int) -> tuple[float, float]:
        """Largest |W(n, n-alpha)| over the off-diagonal bands at order lam^k,
        and its rounding bound c eps (n+1) (|K|+|H|+|A|)(n) at worst; n+1 is
        the length of the sum-rule cumsum that feeds row n."""
        return self._offdiag[k]

    @cached_property
    def _offdiag(self) -> list[tuple[float, float]]:
        """`offdiag` of every order, formed once, for the guard of
        `energy_matrix` and the checks alike."""
        parts = (self.kinetic[:, 1:], self.harmonic[:, 1:], self.anharmonic[:, 1:])
        size = (np.arange(self.n_max + 1) + 1.0) * (
            np.abs(parts[0]) + np.abs(parts[1]) + np.abs(parts[2]))
        observed = np.abs(parts[0] + parts[1] + parts[2]).max(axis=(1, 2), initial=0.0)
        bound = size.max(axis=(1, 2), initial=0.0)
        c = ROUNDING_C * float(np.finfo(float).eps)
        return [(o, c * b) for o, b in zip(observed.tolist(), bound.tolist())]


def energy_matrix(sol: PerturbSolution) -> EnergyMatrix:
    """Assemble W = m x'^2 / 2 + m omega0^2 x^2 / 2 + m lam x^(p+1)/(p+1)
    through the solution's order with the two-index product law.

    The kinetic term uses the entrywise derivative i*omega(n, m) X(n, m),
    so its frequency signs follow the antisymmetry omega(n, m) = -omega(m, n);
    with the i taken out, x'^2 = -(omega X)^2 in real arithmetic.
    Raises EnergyConservationError if any off-diagonal element fails to
    vanish to rounding (`EnergyMatrix.offdiag`) at the computed orders.
    """
    p, order = sol.params.force_exponent, sol.order
    c = sol.coeffs
    m = sol.params.mass
    # bands past the public ones first appear above lam^order
    band_x = max(sol.public_bands)
    x, x_live = _x_series(p, c.amp, order, band_x)
    powers = range(order + 1)
    # omega only where x may be nonzero: the products skip the even bands of
    # the quartic omega x, dead in its mask
    om = _omega_series(c.freq_potential, band_x, range(-band_x, band_x + 1, sol.public_bands.step))
    wx = _rate_series(om, x, powers)
    wx_live = _rate_mask(c.freq_potential.any(axis=-1), x_live, powers)

    # each product forms only the bands 0..band_rep that W keeps, and x^2
    # every band it holds: through lam^order the band weights end x^2 at
    # band_rep too (`_x2_window`)
    band_rep = band_x + 1
    kept = (0, band_rep)
    x2 = _series_mul(x, x, order, bands=(-band_rep, band_rep), masks=(x_live, x_live))
    x2_live = x2.any(axis=-1)
    # negating a factor, not the product, keeps the signs of zeros of the
    # real part of (i wx)(i wx)
    d2 = _series_mul(-wx, wx, order, bands=kept, masks=(wx_live, wx_live))
    # the anharmonic term x^(p+1) = x^2 y carries one explicit power of lam
    y, y_live = (x, x_live) if p == 2 else (x2, x2_live)
    src = _series_mul(x2, y, order - 1, bands=kept, a_lo=-band_rep, masks=(x2_live, y_live))
    n_keep = sol.n_max + 1

    def _trim(series: np.ndarray, factor: float, shift: int, zero: int = 0) -> np.ndarray:
        # band 0 of the series is its band `zero`
        out = np.zeros((order + 1, band_rep + 1, n_keep))
        out[shift:] = factor * series[: order + 1 - shift, zero : zero + band_rep + 1, :n_keep]
        return out

    em = EnergyMatrix(
        order=order,
        band_max=band_rep,
        n_max=sol.n_max,
        kinetic=_trim(d2, 0.5 * m, 0),
        harmonic=_trim(x2, 0.5 * m * sol.params.omega0**2, 0, zero=band_rep),
        anharmonic=_trim(src, m / (p + 1.0), 1),
    )
    for s in range(order + 1):
        observed, tolerance = em.offdiag(s)
        if observed > tolerance:
            raise EnergyConservationError(s, observed, tolerance)
    return em
