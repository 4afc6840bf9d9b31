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
intermediate levels above the truncation ceiling. The solver forms it as
`perturb._series_mul`, and `checks.algebra` checks it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import OscillatorParams

__all__ = [
    "DimensionMismatchError",
    "FrequencyGrid",
    "BandAmplitudeArray",
    "MotionRepresentation",
    "time_derivative",
    "quantum_condition_residual",
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
    # omega(n, n-alpha) for every band at once, zero where n-alpha is off the
    # grid: row n of a strided view of the zero-padded potential holds
    # Omega(n+b) .. Omega(n-b), so Omega(n-alpha) at column b + alpha. It is
    # a plain ndarray view: numpy's stride_tricks keep some memory from every
    # call (about 19 bytes with numpy 2.4)
    padded = np.zeros(pot.size + 2 * b)
    padded[b : b + pot.size] = pot
    step = padded.itemsize
    lower = np.ndarray((n_rows, 2 * b + 1), padded.dtype, padded, 2 * b * step, (step, -step))
    col = np.arange(n_rows)[:, None] - np.arange(-b, b + 1)
    keep = (col >= 0) & (col < pot.size)
    omega = np.where(keep, pot[:n_rows, None] - lower, 0.0)
    return BandAmplitudeArray(omega * np.where(keep, x.data, 0.0))


def quantum_condition_residual(motion: MotionRepresentation) -> np.ndarray:
    """Per-level residual of the sum-rule form of the quantum condition.

    residual(n) = 4*pi*m * sum_{alpha>=0} ( |X(n+alpha, n)|^2 * omega(n+alpha, n)
                  - |X(n, n-alpha)|^2 * omega(n, n-alpha) ) - h

    Terms that reference a negative level vanish identically; terms whose
    upper level exceeds the frequency grid are dropped, so only rows well
    below the ceiling are meaningful. The residual is zero exactly when
    the amplitudes obey the Thomas-Kuhn sum rule at level n.

    Costs O(rows x band_max) numpy work, one pass per band, with no
    per-entry Python calls.
    """
    x = motion.amplitudes
    pot = motion.frequencies.potential
    p = motion.params
    n_rows = x.n_max + 1
    scale = 4.0 * math.pi * p.mass
    res = np.full(n_rows, -p.h, dtype=float)
    for alpha in range(1, x.band_max + 1):
        # the term of X(n, n-alpha) is the down term of row n and the up
        # term of row n-alpha; per row the up term is added first
        low = max(n_rows - alpha, 0)
        amp2 = np.abs(x.band(alpha)[alpha:]) ** 2
        term = scale * amp2 * (pot[alpha:n_rows] - pot[:low])
        res[:low] += term
        # rows whose upper level lies above the amplitude rows but inside the
        # grid read |X(n+alpha, n)| from the stored mirror X(n, n+alpha)
        top = min(n_rows, pot.size - alpha)
        if top > low:
            amp2 = np.abs(x.band(-alpha)[low:top]) ** 2
            res[low:top] += scale * amp2 * (pot[low + alpha : top + alpha] - pot[low:top])
        res[alpha:] -= term
    return res


def commutator_diagonal(motion: MotionRepresentation) -> np.ndarray:
    """Diagonal of x*p - p*x with p = m*dx/dt, via the multiplication law.

    Equals i*hbar at every level where the quantum condition residual
    vanishes. Rows near the truncation ceiling are unreliable. The
    amplitudes are real (the cosine convention), so the products are real.
    """
    # dx/dt = i omega X; the products run on the real omega X, i taken out.
    # Only band 0 of X*wX and wX*X is formed, summed over ascending alpha:
    # stacked, row 0 is X(n, n-alpha) wX(n-alpha, n), row 1
    # wX(n, n-alpha) X(n-alpha, n)
    x = motion.amplitudes.data
    wx = time_derivative(motion).data
    left, right = np.stack([x, wx]), np.stack([wx, x])
    n_rows, b = x.shape[0], (x.shape[1] - 1) // 2
    diag = np.zeros((2, n_rows))
    width = min(b, n_rows - 1)
    for a in range(-width, width + 1):
        lo, hi = max(0, a), min(n_rows - 1, n_rows - 1 + a)
        diag[:, lo : hi + 1] += (left[:, lo : hi + 1, b + a]
                                 * right[:, lo - a : hi + 1 - a, b - a])
    return 1j * (motion.params.mass * (diag[0] - diag[1]))

