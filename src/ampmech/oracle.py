"""Independent ground truth from modern quantum mechanics.

Everything here is built the conventional way: ladder-operator matrices in
the truncated number basis, a dense symmetric eigensolve, and textbook
Rayleigh-Schrodinger perturbation theory at any order. None of it shares
code paths with the banded perturbation solver, so agreement between the
two is a real cross-check.

For the cubic force (p = 2) the potential is unbounded below and the
truncated eigenvalues are metastable approximants. They are trustworthy
only while they sit on a plateau under basis growth, which `spectrum`
verifies before reporting; the default coupling cap corresponds to
lam = 0.05 in units where m = omega0 = hbar = 1, where tunneling effects
are far below every tolerance used in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import BandAmplitudeArray, FrequencyGrid, MotionRepresentation
from .params import OscillatorParams

__all__ = [
    "NumericError",
    "PlateauError",
    "TruncatedOperator",
    "SpectrumResult",
    "SeriesFit",
    "build_hamiltonian",
    "diagonalize",
    "spectrum",
    "motion_from_spectrum",
    "rspt",
    "lambda_series_fit",
    "default_lambda_grid",
    "position_matrix",
    "cubic_coupling_limit",
]

# The cubic force's plateau rule in `spectrum`: a truncated eigenvalue
# stands for a metastable level only while the basis no longer moves it. The
# lowest PLATEAU_LEVELS, the ones the Thomas-Kuhn check reads, may move at
# most PLATEAU_TOL, the size of that check's truncation bound, when the basis
# loses PLATEAU_STEP states, several times the reach p + 1 of the potential.
PLATEAU_STEP = 10
PLATEAU_TOL = 1e-8
PLATEAU_LEVELS = 6
# Above this condition number a fit's design amplifies the rounding of its
# samples past 2e-6 relative, so `lambda_series_fit` flags it.
COND_THRESHOLD = 1e10


class NumericError(RuntimeError):
    """Eigensolve failed or did not meet the residual bound."""


class PlateauError(RuntimeError):
    """Truncated eigenvalues have not stabilized under basis growth."""


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense real symmetric operator in the unperturbed number basis."""

    params: OscillatorParams
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        scale = float(np.max(np.abs(m))) or 1.0
        if float(np.max(np.abs(m - m.T))) > 1e-14 * scale:
            raise ValueError("matrix is not symmetric to working precision")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def basis_size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues, eigenvectors and exact position amplitudes.

    amplitudes[k, n] = <k|x|n> between exact (truncated-basis) eigenstates,
    with each eigenvector's largest component made positive. The matrix is
    formed on first read; `amplitude(k, n)` gives one entry without it.
    plateau holds |E(N) - E(N - PLATEAU_STEP)| for the lowest
    PLATEAU_LEVELS levels when a basis-growth check was run.
    """

    params: OscillatorParams
    basis_size: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    plateau: np.ndarray | None = None

    def omega_exact(self, n: int, m: int) -> float:
        return float(
            (self.eigenvalues[n] - self.eigenvalues[m]) / self.params.hbar
        )

    @cached_property
    def amplitudes(self) -> np.ndarray:
        v = self.eigenvectors
        amps = v.T @ position_matrix(self.params, self.basis_size) @ v
        return 0.5 * (amps + amps.T)

    def amplitude(self, k: int, n: int) -> float:
        """amplitudes[k, n], to rounding, at O(basis_size) cost."""
        vk, vn = self.eigenvectors[:, k], self.eigenvectors[:, n]
        off = _position_offdiag(self.params, self.basis_size)
        # sum_r <r|x|r+1> (vk[r] vn[r+1] + vk[r+1] vn[r]): symmetric in k, n
        return float(off @ (vk[:-1] * vn[1:] + vk[1:] * vn[:-1]))


def _position_offdiag(params: OscillatorParams, n: int) -> np.ndarray:
    """<r|x|r+1> = sqrt(hbar/(2 m omega0)) * sqrt(r+1) for r = 0..n-2."""
    scale = math.sqrt(params.hbar / (2.0 * params.mass * params.omega0))
    return scale * np.sqrt(np.arange(1, n, dtype=float))


def position_matrix(params: OscillatorParams, n: int) -> np.ndarray:
    """Ladder-built x with <n-1|x|n> = sqrt(hbar/(2 m omega0)) * sqrt(n)."""
    off = _position_offdiag(params, n)
    return np.diag(off, 1) + np.diag(off, -1)


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two operators stored by diagonals.

    Row w + k of an operator of band width w, an array of shape
    (2w + 1, N), holds d[r] = <r|M|r+k> for every row r of the truncated
    basis, with 0 where r + k lies outside it. The sum over intermediate
    states runs inside the basis, as a dense product of the truncated
    matrices does."""
    wa, wb = a.shape[0] // 2, b.shape[0] // 2
    n = a.shape[1]
    out = np.zeros((2 * (wa + wb) + 1, n))
    for i in range(-wa, wa + 1):
        if a[wa + i].any():
            # rows r whose intermediate state r + i lies inside the basis
            lo, hi = max(-i, 0), n - max(i, 0)
            out[wa + i : wa + i + 2 * wb + 1, lo:hi] += a[wa + i, lo:hi] * b[:, lo + i : hi + i]
    return out


def _ladder_bands(up: np.ndarray, sign: float) -> np.ndarray:
    """c (a + sign a^dagger) by diagonals, from up[r] = c sqrt(r+1) =
    <r|c a|r+1>."""
    bands = np.zeros((3, up.size + 1))
    bands[2, :-1] = up
    bands[0, 1:] = sign * up
    return bands


def build_hamiltonian(params: OscillatorParams, basis_size: int) -> TruncatedOperator:
    """H = p^2/2m + m omega0^2 x^2 / 2 + m lam x^(p+1)/(p+1), with every
    operator product formed inside the truncated basis.

    The ladder operators are tridiagonal, so each product is formed
    diagonal by diagonal, and H is written into the dense matrix as its
    2p + 3 diagonals."""
    if basis_size < 8:
        raise ValueError("basis_size must be at least 8")
    n = basis_size
    x = _ladder_bands(_position_offdiag(params, n), 1.0)
    # p = i P with real P = sqrt(m hbar omega0 / 2) (a^dagger - a)
    p_scale = math.sqrt(params.mass * params.hbar * params.omega0 / 2.0)
    p_over_i = _ladder_bands(-p_scale * np.sqrt(np.arange(1, n, dtype=float)), -1.0)
    x2 = _band_product(x, x)
    potential = x2
    for _ in range(params.force_exponent - 1):
        potential = _band_product(x, potential)
    bands = params.mass * params.lam / (params.force_exponent + 1) * potential
    w = params.force_exponent + 1
    bands[w - 2 : w + 3] = (-_band_product(p_over_i, p_over_i) / (2.0 * params.mass)
                            + 0.5 * params.mass * params.omega0**2 * x2) + bands[w - 2 : w + 3]
    h = np.zeros((n, n))
    flat = h.reshape(-1)
    for k in range(-w, w + 1):
        # the cells (r, r+k) of rows r = lo..lo+m-1 lie n+1 apart in flat
        lo, m = max(-k, 0), n - abs(k)
        flat[lo * (n + 1) + k :: n + 1][:m] = bands[w + k, lo : lo + m]
    return TruncatedOperator(params=params, matrix=h)


def diagonalize(op: TruncatedOperator) -> SpectrumResult:
    """Symmetric eigendecomposition with a per-pair residual check.

    An operator that couples no even level to an odd one (H of the quartic
    force commutes with parity) is solved as its two half-size blocks."""
    h = op.matrix
    n = op.basis_size
    if n > 1 and not np.any(h[0::2, 1::2]):
        blocks = (slice(0, None, 2), slice(1, None, 2))
    else:
        blocks = (slice(None),)
    solved = []
    for rows in blocks:
        block = h[rows, rows]
        try:
            evals, evecs = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericError(f"eigensolver did not converge: {exc}") from exc
        solved.append((block, evals, evecs))
    evals = np.concatenate([e for _, e, _ in solved])
    scale = float(np.max(np.abs(evals))) or 1.0
    for block, e, v in solved:
        residual = np.max(np.abs(block @ v - v * e))
        if residual > 1e-10 * scale:
            raise NumericError(
                f"eigenpair residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
            )
    if len(solved) == 1:
        evecs = solved[0][2]
    else:
        evecs = np.zeros((n, n))
        even = solved[0][1].size
        evecs[0::2, :even] = solved[0][2]
        evecs[1::2, even:] = solved[1][2]
        order = np.argsort(evals, kind="stable")
        evals, evecs = evals[order], evecs[:, order]
    # deterministic phases: largest-magnitude component positive
    flips = np.sign(evecs[np.abs(evecs).argmax(axis=0), np.arange(evecs.shape[1])])
    flips[flips == 0] = 1.0
    return SpectrumResult(
        params=op.params,
        basis_size=op.basis_size,
        eigenvalues=evals,
        eigenvectors=evecs * flips,
    )


def cubic_coupling_limit(params: OscillatorParams) -> float:
    """Largest |lam| at which `spectrum` takes the cubic force's truncated
    eigenvalues for metastable levels: the unit-free |lam|*beta/omega0^2 of
    lam = 0.05 in default units."""
    return 0.05 * math.sqrt(2.0) * (1.0 + 1e-12) * params.omega0**2 / params.beta


def spectrum(
    params: OscillatorParams,
    basis_size: int,
    *,
    check_plateau: bool = True,
    allow_deep_coupling: bool = False,
) -> SpectrumResult:
    """Diagonalize the truncated Hamiltonian and vet the result.

    For the cubic force this enforces the default coupling cap and (unless
    disabled) requires the lowest PLATEAU_LEVELS eigenvalues to move less
    than PLATEAU_TOL when the basis shrinks by PLATEAU_STEP, since those
    eigenvalues only approximate metastable levels of an unbounded
    potential.
    """
    if params.force_exponent == 2 and not allow_deep_coupling:
        limit = cubic_coupling_limit(params)
        if abs(params.lam) > limit:
            raise ValueError(f"cubic-force coupling |lam| = {abs(params.lam):.4g} beyond "
                             f"{limit:.4g}, the metastable-spectrum regime at these "
                             "units; pass allow_deep_coupling=True to override")
    result = diagonalize(build_hamiltonian(params, basis_size))
    if not check_plateau:
        return result
    smaller = diagonalize(build_hamiltonian(params, basis_size - PLATEAU_STEP))
    levels = min(PLATEAU_LEVELS, basis_size - PLATEAU_STEP)
    drift = np.abs(result.eigenvalues[:levels] - smaller.eigenvalues[:levels])
    if params.force_exponent == 2 and np.any(drift > PLATEAU_TOL):
        raise PlateauError(
            f"eigenvalue drift {np.max(drift):.3e} over basis step "
            f"{PLATEAU_STEP} exceeds {PLATEAU_TOL:.1e}"
        )
    return replace(result, plateau=drift)


def motion_from_spectrum(spec: SpectrumResult) -> MotionRepresentation:
    """Exact amplitudes and frequencies repackaged as a motion
    representation, so the kinematic checks run unchanged on oracle data."""
    amps = BandAmplitudeArray.from_dense(spec.amplitudes)
    grid = FrequencyGrid(spec.eigenvalues / spec.params.hbar)
    return MotionRepresentation(
        amplitudes=amps, frequencies=grid, params=spec.params
    )


def rspt(params: OscillatorParams, levels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Textbook Rayleigh-Schrodinger perturbation theory in the number basis.

    Returns (energies, states): energies[k, n] is E^(k)(n), the lam^k term
    of the energy of level n at the coupling of params, and states[k, :, n]
    holds the state correction |n^(k)) over unperturbed states, for
    k = 0..order and n < levels. With V = m lam x^(p+1)/(p+1),

        E^(k)(n) = <n|V|n^(k-1)),
        (E^(0)(n) - H0) |n^(k)) = V |n^(k-1)) - sum_{i=1..k} E^(i)(n) |n^(k-i)),

    with intermediate normalization <n|n^(k)) = 0 for k >= 1. |n^(k)) reaches
    level n + k(p+1), so the basis of levels + order(p+1) states holds every
    correction exactly."""
    if levels < 1 or order < 0:
        raise ValueError("need levels >= 1 and order >= 0")
    p = params.force_exponent
    size = levels + order * (p + 1)
    x = position_matrix(params, size)
    v = params.mass * params.lam / (p + 1) * np.linalg.matrix_power(x, p + 1)
    n = np.arange(levels)
    step = params.hbar * params.omega0
    gap = (n - np.arange(size)[:, None]) * step
    # dividing by inf keeps each correction free of its own level
    gap[n, n] = np.inf
    energies = np.zeros((order + 1, levels))
    energies[0] = (n + 0.5) * step
    states = np.zeros((order + 1, size, levels))
    states[0, n, n] = 1.0
    for k in range(1, order + 1):
        rhs = v @ states[k - 1]
        energies[k] = rhs[n, n]
        for i in range(1, k + 1):
            rhs -= energies[i] * states[k - i]
        states[k] = rhs / gap
    return energies, states


@dataclass(frozen=True)
class SeriesFit:
    """Least-squares polynomial fit in the coupling, with conditioning info."""

    coefficients: np.ndarray
    condition_number: float
    rms_residual: float
    ill_conditioned: bool


def default_lambda_grid(lam0: float, count: int = 5) -> np.ndarray:
    """Geometric grid lam0/2^(count-1) .. lam0, balancing conditioning
    against contamination from higher orders."""
    if count < 2:
        raise ValueError("need at least two grid points")
    return lam0 / 2.0 ** np.arange(count - 1, -1, -1, dtype=float)


def lambda_series_fit(f, lambdas: np.ndarray, order: int) -> SeriesFit:
    """Fit f(lam) = c0 + c1 lam + ... + c_order lam^order by least squares.

    f may be a callable evaluated on the grid or an array of samples.
    A condition number above COND_THRESHOLD (or a rank-deficient design)
    marks the fit ill conditioned rather than raising.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < order + 2:
        raise ValueError("need a 1-d grid of at least order + 2 couplings")
    if np.unique(lam).size != lam.size:
        raise ValueError("grid couplings must be distinct")
    values = np.asarray([f(l) for l in lam] if callable(f) else f, dtype=float)
    if values.shape != lam.shape:
        raise ValueError("one sample per grid coupling required")
    design = np.vander(lam, order + 1, increasing=True)
    coeffs, _, rank, sing = np.linalg.lstsq(design, values, rcond=None)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else math.inf
    rms = float(np.sqrt(np.mean((design @ coeffs - values) ** 2)))
    return SeriesFit(
        coefficients=coeffs,
        condition_number=cond,
        rms_residual=rms,
        ill_conditioned=bool(cond > COND_THRESHOLD or rank < order + 1),
    )
