"""Value types and exact kinematics of the transition-amplitude calculus.

The state of a one-dimensional oscillator is carried by an ensemble of
transition amplitudes X(n, n-alpha) together with transition frequencies
omega(n, m). Amplitudes live in a banded two-index array (rows are levels
n, columns are bands alpha = n - m). Frequencies are stored as a per-level
potential Omega(n) so that the Ritz combination rule

    omega(n, n-alpha) + omega(n-alpha, n-beta) = omega(n, n-beta)

holds exactly by construction, not merely to rounding.

Conventions:
  * amplitudes are real and symmetric (the cosine convention):
    X(n, m) = X(m, n);
  * any entry referencing a negative level index is identically zero
    (no transitions below the ground state).

Products follow the two-index multiplication law

    (X*Y)(n, n-beta) = sum_alpha X(n, n-alpha) * Y(n-alpha, n-beta),

i.e. matrix multiplication over the stored level range, dropping
intermediate levels above the truncation ceiling. `_series_mul` forms it
for the solver, the energy, the sum rule and the commutator alike, and
`checks.algebra` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import OscillatorParams

__all__ = [
    "DimensionMismatchError",
    "FrequencyGrid",
    "BandAmplitudeArray",
    "MotionRepresentation",
    "time_derivative",
    "commutator_diagonal",
]


class DimensionMismatchError(ValueError):
    """Operands disagree on the stored level range."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FrequencyGrid:
    """Transition frequencies omega(n, m) = Omega(n) - Omega(m).

    Only the per-level potential Omega is stored, which makes the Ritz
    combination rule and the antisymmetry omega(n, m) = -omega(m, n)
    structural identities.
    """

    potential: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.potential, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("potential must be a nonempty 1-d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("potential contains a non-finite entry")
        object.__setattr__(self, "potential", _readonly(p))

    @property
    def n_max(self) -> int:
        return self.potential.size - 1


@dataclass(frozen=True)
class BandAmplitudeArray:
    """Banded two-index amplitude array X(n, n-alpha).

    data[n, band_max + alpha] holds the real X(n, n-alpha) for
    0 <= n <= n_max and |alpha| <= band_max. Entries whose column index
    n-alpha is negative are forced to zero.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.data):
            raise ValueError("amplitudes are real: complex data is refused")
        d = np.array(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] % 2 != 1:
            raise ValueError("data must be 2-d with an odd number of band columns")
        n_rows, n_cols = d.shape
        bmax = (n_cols - 1) // 2
        # ground-state floor: X(n, n-alpha) = 0 whenever n - alpha < 0, which
        # only rows n < bmax of the bands alpha > 0 hold
        floor = np.arange(min(n_rows, bmax))[:, None] < np.arange(1, bmax + 1)
        d[:bmax, bmax + 1 :][floor] = 0.0
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def n_max(self) -> int:
        return self.data.shape[0] - 1

    @property
    def band_max(self) -> int:
        return (self.data.shape[1] - 1) // 2

    def get(self, n: int, m: int) -> float:
        """Entry X(n, m), read from the mirrored orientation X(m, n) when
        only that one is stored. Out-of-band and negative-level entries are
        zero."""
        if n < 0 or m < 0:
            return 0.0
        alpha = n - m
        if abs(alpha) > self.band_max:
            return 0.0
        if n <= self.n_max:
            return self.data[n, self.band_max + alpha].item()
        if m <= self.n_max:
            return self.data[m, self.band_max - alpha].item()
        return 0.0

    def band(self, alpha: int) -> np.ndarray:
        """Values X(n, n-alpha) indexed by n."""
        if abs(alpha) > self.band_max:
            raise IndexError(f"band {alpha} outside band_max {self.band_max}")
        return self.data[:, self.band_max + alpha]


@dataclass(frozen=True)
class MotionRepresentation:
    """Amplitudes plus frequencies plus parameters: the full representation
    of the coordinate x(t) as the ensemble X(n, n-alpha)*exp(i*omega*t)."""

    amplitudes: BandAmplitudeArray
    frequencies: FrequencyGrid
    params: OscillatorParams

    def __post_init__(self) -> None:
        if self.amplitudes.n_max > self.frequencies.n_max:
            raise DimensionMismatchError(
                "frequency grid must cover at least the amplitude rows "
                f"({self.amplitudes.n_max} > {self.frequencies.n_max})"
            )


# ---------------------------------------------------------------------------
# series arithmetic: banded arrays with one coefficient per power of lam.
# `step` is the row shift of the product law: 1 is the two-index law of
# transition amplitudes; 0 drops it, so that on one row a series is the
# Fourier series of classical harmonic balance. A series holds the signed
# bands -b..b unless a window says otherwise; each function forms only the
# bands its caller reads, and every band it forms has the bits of the full
# product, since a skipped term lands only outside the window.


def _nonzero(s: np.ndarray, step: int = 0, lo: int | None = None) -> np.ndarray:
    """Nonzero mask of a series over (power, band), by a scan of its entries:
    slice (i, g) is True where any stacked series holds a nonzero entry on
    the rows of band g that a product with row shift `step` reads (all rows
    at step 0). lo is the lowest band (default centered). The engine carries
    the masks of the series it forms; this is for operands from outside."""
    *_, width, rows = s.shape
    lo = -((width - 1) // 2) if lo is None else lo
    n = np.arange(rows)
    shift = step * np.arange(lo, lo + width)[:, None]
    read = (n >= shift) & (n <= rows - 1 + shift)
    return np.any((s != 0) & read, axis=(*range(s.ndim - 3), -1))


def _series_mul(
    a: np.ndarray, b: np.ndarray, max_power: int, step: int = 1, min_power: int = 0,
    bands: tuple[int, int] | None = None, a_lo: int | None = None,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Product of two real banded lam-series: sum over g of a(n, n-g) b(n-step*g, .).
    With step 0 on one row this is the convolution over signed harmonics.
    b holds the bands -bb..bb, a those from a_lo up (default centered too).
    Only the powers min_power..max_power and the signed bands lo..hi of
    bands (default all) are formed; out[s - min_power, g - lo] is the lam^s
    coefficient on band g, with the same bits as in the full product.
    masks are the (power, band) nonzero masks of a and b (default
    `_nonzero`): a mask may mark an all-zero slice live, which adds only
    +0, but never a nonzero one dead.
    Leading axes, past (powers, bands, rows), broadcast: each slice of finite
    series gets the bits of its own product."""
    *_, pa, wa, rows = a.shape
    pb, wb = b.shape[-3:-1]
    bb = (wb - 1) // 2
    a_lo = -((wa - 1) // 2) if a_lo is None else a_lo
    lo, hi = (a_lo - bb, a_lo + wa - 1 + bb) if bands is None else bands
    out = np.zeros(
        (*(a.shape[:-3] or b.shape[:-3]), max_power + 1 - min_power, hi + 1 - lo, rows))
    # band g of a feeds rows r0..r1. Dead (i, g) slices of a and bands of b
    # outside h0..h1-1, the span of its live ones at the powers read, add
    # only zeros (and nan from 0 * inf): out starts at +0 and never holds -0.
    # A slice or band is live if it is in any stacked series.
    live_a, live_b = (_nonzero(a, step, a_lo), _nonzero(b)) if masks is None else masks
    assert live_a.shape == (pa, wa) and live_b.shape == (pb, wb)
    b_lo, b_hi = live_b.argmax(1).tolist(), (wb - live_b[:, ::-1].argmax(1)).tolist()
    # where the live bands of b share one parity (odd x, even x^2 of the
    # quartic force), a span takes every other band, from the first of that
    # parity: the others are zero, and as above skipping them shows only as
    # the nan of 0 * inf
    held = live_b.any(0).tolist()
    hs = 1 if any(held[::2]) and any(held[1::2]) else 2
    parity = held.index(True) % 2 if True in held else 0
    for i, row in enumerate(live_a.tolist()[: max_power + 1]):
        j0, j1 = max(0, min_power - i), min(pb, max_power + 1 - i)
        h0, h1 = min(b_lo[j0:j1], default=wb), max(b_hi[j0:j1], default=0)
        h0 += (h0 - parity) % hs
        if h0 >= h1:
            continue
        s0 = i + j0 - min_power
        for k in [k for k, on in enumerate(row) if on]:
            g = k + a_lo
            # band h of b lands on band g + h - bb: keep those in lo..hi, on
            # the parity of h0
            g0 = g - bb - lo
            k0, k1 = max(h0, -g0), min(h1, hi + 1 - lo - g0)
            k0 += (k0 - h0) % hs
            if k0 >= k1:
                continue
            sg = step * g
            r0, r1 = max(0, sg), min(rows - 1, rows - 1 + sg)
            out[..., s0 : s0 + j1 - j0, g0 + k0 : g0 + k1 : hs, r0 : r1 + 1] += (
                a[..., i : i + 1, k : k + 1, r0 : r1 + 1]
                * b[..., j0:j1, k0:k1:hs, r0 - sg : r1 + 1 - sg]
            )
    return out


def _omega_series(pot: np.ndarray, band_max: int, bands: range | None = None) -> np.ndarray:
    """omega^(k)(n, n-g) per band from the frequency potentials, on the
    signed bands -band_max..band_max. Only the bands g of `bands` (default
    all) are formed; the others are left zero for the caller not to read."""
    orders, rows = pot.shape
    out = np.zeros((orders, 2 * band_max + 1, rows))
    width = min(band_max, rows - 1)
    for g in range(-width, width + 1) if bands is None else bands:
        if abs(g) > width:
            continue
        lo, k = max(g, 0), rows - abs(g)
        out[:, band_max + g, lo : lo + k] = pot[:, lo : lo + k] - pot[:, lo - g : lo - g + k]
    return out


def time_derivative(motion: MotionRepresentation) -> BandAmplitudeArray:
    """Real factor omega(n, m)*X(n, m) of the entry-wise derivative
    (d/dt X)(n, m) = i*omega(n, m)*X(n, m).

    The result is antisymmetric, omega(m, n)*X(m, n) = -omega(n, m)*X(n, m),
    so `get`'s mirror does not hold for it. Entries whose column level lies
    beyond the frequency grid are zeroed (truncation edge).
    """
    x = motion.amplitudes
    pot = motion.frequencies.potential
    b, n_rows = x.band_max, x.n_max + 1
    omega = _omega_series(pot[None], b)[0, :, :n_rows].T
    # omega is 0 where the column level is off the grid; the X there is
    # zeroed too, since 0 * -X would be -0
    beyond = np.arange(n_rows)[:, None] - np.arange(-b, b + 1) >= pot.size
    return BandAmplitudeArray(omega * np.where(beyond, 0.0, x.data))


def commutator_diagonal(motion: MotionRepresentation) -> np.ndarray:
    """Diagonal of x*p - p*x with p = m*dx/dt, via the multiplication law.

    Its deviation from i*hbar is i/(2 pi) times the residual of Heisenberg's
    sum rule, which `perturb._sum_rule` forms per power of lam from the same
    product. Rows near the truncation ceiling are unreliable. The
    amplitudes are real (the cosine convention), so the products are real.
    """
    # dx/dt = i omega X; the products run on the real omega X, i taken out.
    # Only band 0 of X*wX and wX*X is formed, stacked in one product
    x = motion.amplitudes.data.T[None]
    wx = time_derivative(motion).data.T[None]
    diag = _series_mul(np.stack([x, wx]), np.stack([wx, x]), 0, bands=(0, 0))[:, 0, 0]
    return 1j * (motion.params.mass * (diag[0] - diag[1]))

