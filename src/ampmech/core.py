"""Value types and exact kinematics of the transition-amplitude calculus.

The state of a one-dimensional oscillator is carried by an ensemble of
transition amplitudes X(n, n-alpha) together with transition frequencies
omega(n, m). Amplitudes live in a banded two-index array (rows are levels
n, columns are bands alpha = n - m). Frequencies are stored as a per-level
potential Omega(n) so that the Ritz combination rule

    omega(n, n-alpha) + omega(n-alpha, n-beta) = omega(n, n-beta)

holds exactly by construction, not merely to rounding.

Conventions:
  * real-symmetric mode (the cosine convention): X(n, m) = X(m, n);
  * complex-Hermitian mode: X(n, m) = conj(X(m, n)), used for time
    derivatives where entries pick up a factor i*omega(n, m);
  * any entry referencing a negative level index is identically zero
    (no transitions below the ground state).

Products follow the two-index multiplication law

    (X*Y)(n, n-beta) = sum_alpha X(n, n-alpha) * Y(n-alpha, n-beta),

i.e. matrix multiplication over the stored level range. Intermediate
levels above the truncation ceiling are dropped; `multiply` records which
rows such discarded terms could have affected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import OscillatorParams, PhysicalConstants

__all__ = [
    "DimensionMismatchError",
    "NotAnEmissionError",
    "LevelSpectrum",
    "FrequencyGrid",
    "frequency_grid_from_levels",
    "BandAmplitudeArray",
    "MotionRepresentation",
    "multiply",
    "time_derivative",
    "quantum_condition_residual",
    "commutator_diagonal",
    "EmissionResult",
    "emission_power",
]


class DimensionMismatchError(ValueError):
    """Operands disagree on the stored level range."""


class NotAnEmissionError(ValueError):
    """Requested transition has omega <= 0 and emits nothing."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LevelSpectrum:
    """Energies W(n) for n = 0..n_max, densely indexed from the ground state."""

    energies: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise ValueError("energies must be a nonempty 1-d array")
        if not np.all(np.isfinite(e)):
            raise ValueError("energies contain a non-finite entry")
        object.__setattr__(self, "energies", _readonly(e))

    @property
    def n_max(self) -> int:
        return self.energies.size - 1


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

    def omega(self, n: int, m: int) -> float:
        if not (0 <= n <= self.n_max and 0 <= m <= self.n_max):
            raise IndexError(f"level pair ({n}, {m}) outside stored range")
        return float(self.potential[n] - self.potential[m])

    @classmethod
    def harmonic(cls, omega0: float, n_max: int) -> "FrequencyGrid":
        """Equally spaced grid with omega(n, m) = (n - m)*omega0."""
        return cls(omega0 * np.arange(n_max + 1, dtype=float))


def frequency_grid_from_levels(levels: LevelSpectrum, hbar: float) -> FrequencyGrid:
    """Bohr frequencies omega(n, m) = (W(n) - W(m)) / hbar as a grid."""
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")
    return FrequencyGrid(levels.energies / hbar)


@dataclass(frozen=True)
class BandAmplitudeArray:
    """Banded two-index amplitude array X(n, n-alpha).

    data[n, band_max + alpha] holds X(n, n-alpha) for 0 <= n <= n_max and
    |alpha| <= band_max. Entries whose column index n-alpha is negative
    are forced to zero. hermitian=False stores real amplitudes with the
    symmetric convention, hermitian=True stores complex ones with the
    conjugate convention.

    edge_touched flags rows whose content depended on levels above the
    truncation ceiling; it is propagated by `multiply`.
    """

    data: np.ndarray
    hermitian: bool = False
    edge_touched: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.hermitian and np.iscomplexobj(self.data):
            raise ValueError("real-symmetric mode cannot hold complex data")
        d = np.array(self.data, dtype=np.complex128 if self.hermitian else np.float64)
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
        flags = self.edge_touched
        if flags is None:
            flags = np.zeros(n_rows, dtype=bool)
        else:
            flags = np.asarray(flags, dtype=bool)
            if flags.shape != (n_rows,):
                raise ValueError("edge_touched must have one flag per row")
        object.__setattr__(self, "edge_touched", _readonly(flags))

    @property
    def n_max(self) -> int:
        return self.data.shape[0] - 1

    @property
    def band_max(self) -> int:
        return (self.data.shape[1] - 1) // 2

    def get(self, n: int, m: int) -> complex | float:
        """Entry X(n, m), using the symmetry convention when only the
        mirrored orientation is stored. Out-of-band and negative-level
        entries are zero."""
        zero = 0j if self.hermitian else 0.0
        if n < 0 or m < 0:
            return zero
        alpha = n - m
        if abs(alpha) > self.band_max:
            return zero
        if n <= self.n_max:
            return self.data[n, self.band_max + alpha].item()
        if m <= self.n_max:
            mirrored = self.data[m, self.band_max - alpha].item()
            return mirrored.conjugate() if self.hermitian else mirrored
        return zero

    def band(self, alpha: int) -> np.ndarray:
        """Values X(n, n-alpha) indexed by n."""
        if abs(alpha) > self.band_max:
            raise IndexError(f"band {alpha} outside band_max {self.band_max}")
        return self.data[:, self.band_max + alpha]

    def to_dense(self) -> np.ndarray:
        """Dense (n_max+1) x (n_max+1) block; columns beyond n_max are dropped."""
        n = self.n_max + 1
        dtype = np.complex128 if self.hermitian else np.float64
        out = np.zeros((n, n), dtype=dtype)
        flat = out.reshape(-1)
        width = min(self.band_max, n - 1)
        for alpha in range(-width, width + 1):
            # the cells (r, r-alpha) of rows r = lo..lo+k-1 lie n+1 apart in flat
            lo, k = max(alpha, 0), n - abs(alpha)
            flat[lo * (n + 1) - alpha :: n + 1][:k] = self.band(alpha)[lo : lo + k]
        return out

    def symmetry_defect(self) -> float:
        """Largest violation of the symmetry (or Hermiticity) convention
        over entry pairs that are both stored."""
        dense = self.to_dense()
        ref = dense.conj().T if self.hermitian else dense.T
        return float(np.max(np.abs(dense - ref))) if dense.size else 0.0

    @classmethod
    def zeros(cls, n_max: int, band_max: int, hermitian: bool = False) -> "BandAmplitudeArray":
        return cls(np.zeros((n_max + 1, 2 * band_max + 1)), hermitian=hermitian)

    @classmethod
    def identity(cls, n_max: int) -> "BandAmplitudeArray":
        return cls(np.ones((n_max + 1, 1)))

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, band_max: int | None = None, hermitian: bool = False
    ) -> "BandAmplitudeArray":
        dense = np.asarray(dense)
        n = dense.shape[0]
        if dense.shape != (n, n):
            raise ValueError("dense input must be square")
        if band_max is None:
            band_max = n - 1
        # with band_max zeros on each side of every row, X(r, c) sits at column
        # band_max + c, and row r's band X(r, r + band_max) .. X(r, r - band_max)
        # is the window from column r: the windows lie n + 2 band_max + 1
        # apart in flat, as the diagonals of `to_dense` lie n + 1 apart. They
        # are read backwards through a plain ndarray view: numpy's stride_tricks
        # keep some memory from every call (about 19 bytes with numpy 2.4)
        width = n + 2 * band_max
        padded = np.zeros((n, width), dtype=dense.dtype)
        padded[:, band_max : band_max + n] = dense
        step = padded.itemsize
        windows = np.ndarray((n, 2 * band_max + 1), padded.dtype, padded,
                             2 * band_max * step, ((width + 1) * step, -step))
        return cls(windows, hermitian=hermitian)


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


def multiply(
    x: BandAmplitudeArray, y: BandAmplitudeArray, trust_margin: int = 0
) -> BandAmplitudeArray:
    """Two-index product Z(n, n-beta) = sum_alpha X(n, n-alpha)*Y(n-alpha, n-beta).

    The sum runs over intermediate levels inside the stored range
    0..n_max; the result band width is the sum of the operand widths.
    Rows whose full (untruncated) sum would have reached a level above
    n_max - trust_margin are flagged in edge_touched, as are rows that
    depended on already-flagged rows of either operand.
    """
    if x.n_max != y.n_max:
        raise DimensionMismatchError(
            f"operand n_max mismatch: {x.n_max} != {y.n_max}"
        )
    n_rows = x.n_max + 1
    bz = x.band_max + y.band_max
    hermitian = x.hermitian or y.hermitian
    out = np.zeros((n_rows, 2 * bz + 1), dtype=np.complex128 if hermitian else np.float64)
    xd = x.data.astype(out.dtype)
    yd = y.data.astype(out.dtype)
    by = y.band_max
    width = min(x.band_max, n_rows - 1)
    for a in range(-width, width + 1):
        lo = max(0, a)
        hi = min(n_rows - 1, n_rows - 1 + a)
        out[lo : hi + 1, bz + a - by : bz + a + by + 1] += (
            xd[lo : hi + 1, x.band_max + a, None] * yd[lo - a : hi + 1 - a, :]
        )

    rows = np.arange(n_rows)
    flagged = rows + x.band_max > x.n_max - trust_margin
    flagged |= x.edge_touched
    # row n depends on the flags of y in the window n-band_max..n+band_max
    seen = np.concatenate(([0], np.cumsum(y.edge_touched)))
    lo = np.maximum(rows - x.band_max, 0)
    hi = np.minimum(rows + x.band_max, x.n_max) + 1
    flagged |= seen[hi] > seen[lo]
    return BandAmplitudeArray(out, hermitian=hermitian, edge_touched=flagged)


def time_derivative(motion: MotionRepresentation) -> BandAmplitudeArray:
    """Entry-wise derivative: (d/dt X)(n, m) = i*omega(n, m)*X(n, m).

    The result is complex-Hermitian. Entries whose column level lies
    beyond the frequency grid are zeroed (truncation edge).
    """
    x = motion.amplitudes
    pot = motion.frequencies.potential
    b, n_rows = x.band_max, x.n_max + 1
    # omega(n, n-alpha) for every band at once, zero where n-alpha is off the
    # grid: row n of a strided view of the zero-padded potential holds
    # Omega(n+b) .. Omega(n-b), so Omega(n-alpha) at column b + alpha (a plain
    # ndarray view, as in `BandAmplitudeArray.from_dense`)
    padded = np.zeros(pot.size + 2 * b)
    padded[b : b + pot.size] = pot
    step = padded.itemsize
    lower = np.ndarray((n_rows, 2 * b + 1), padded.dtype, padded, 2 * b * step, (step, -step))
    col = np.arange(n_rows)[:, None] - np.arange(-b, b + 1)
    keep = (col >= 0) & (col < pot.size)
    omega = np.where(keep, pot[:n_rows, None] - lower, 0.0)
    out = 1j * omega * np.where(keep, x.data, 0.0)
    return BandAmplitudeArray(out, hermitian=True, edge_touched=x.edge_touched)


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
    # Only band 0 of X*wX and wX*X is formed, summed over alpha in the order
    # of `multiply`: stacked, row 0 is X(n, n-alpha) wX(n-alpha, n), row 1
    # wX(n, n-alpha) X(n-alpha, n)
    x = motion.amplitudes.data
    wx = time_derivative(motion).data.imag
    left, right = np.stack([x, wx]), np.stack([wx, x])
    n_rows, b = x.shape[0], (x.shape[1] - 1) // 2
    diag = np.zeros((2, n_rows))
    width = min(b, n_rows - 1)
    for a in range(-width, width + 1):
        lo, hi = max(0, a), min(n_rows - 1, n_rows - 1 + a)
        diag[:, lo : hi + 1] += (left[:, lo : hi + 1, b + a]
                                 * right[:, lo - a : hi + 1 - a, b - a])
    return 1j * (motion.params.mass * (diag[0] - diag[1]))


class EmissionResult(NamedTuple):
    rate: float
    power: float


def emission_power(
    motion: MotionRepresentation, n: int, alpha: int, consts: PhysicalConstants
) -> EmissionResult:
    """Spontaneous-emission rate P(n, n-alpha) and radiated power for the
    downward transition n -> n-alpha.

    P = e^2 / (3*pi*eps0*hbar*c^3) * omega^3 * |X(n, n-alpha)|^2, and the
    power is P*hbar*omega. Requires omega(n, n-alpha) > 0.
    """
    omega = motion.frequencies.omega(n, n - alpha)
    if omega <= 0.0:
        raise NotAnEmissionError(
            f"omega({n}, {n - alpha}) = {omega!r} is not a positive emission frequency"
        )
    hbar = motion.params.hbar
    amp2 = abs(motion.amplitudes.get(n, n - alpha)) ** 2
    rate = consts.e**2 / (3.0 * math.pi * consts.eps0 * hbar * consts.c**3)
    rate *= omega**3 * amp2
    return EmissionResult(rate=rate, power=rate * hbar * omega)
