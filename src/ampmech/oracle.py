"""Independent ground truth from modern quantum mechanics.

Everything here is built the conventional way: the Hamiltonian H_N in the
truncated number basis, formed from ladder operators and kept by its
2p + 3 diagonals, a dense symmetric eigensolve of those diagonals, and
textbook Rayleigh-Schrodinger perturbation theory at any order. None of it
shares code paths with the banded perturbation solver, so agreement
between the two is a real cross-check. `SpectrumResult.position_columns` is the one
path from eigenvectors to the position amplitudes <k|x|n>; each reader
forms only the few columns n it reads, never the N x N matrix.

Where the potential is unbounded below (the cubic force, p = 2, and the
quartic force at lam < 0) the truncated eigenvalues are metastable
approximants. They are trustworthy only while they sit on a plateau under
basis growth, which `spectrum` verifies before reporting; the cubic
coupling cap corresponds to lam = 0.05 in units where
m = omega0 = hbar = 1, where tunneling effects are far below every
tolerance used in this package.

`lowest_eigenpairs` solves only the lowest few levels: Rayleigh-Ritz on a
leading block of the number basis, grown until every returned pair is an
eigenpair of the full truncated Hamiltonian H_N to rounding. Growing the
block until the pairs no longer move is the plateau rule applied to the
block. The pairs are the lowest of the block, not shown to be the lowest of
H_N. `spectrum`, the main spectrum of the oracle, adds that proof: a
Cholesky factorization of H_N shifted between the block's levels and the
next, run along the band of H_N in chunks of the block's size, so that its
time grows as N, its memory not at all, and it forms no N x N array. At
cubic N = 300 it takes a fifth of the dense factorization's time, at
N = 600 a twelfth. Where it fails, as
where H_N holds truncation states far below the metastable levels,
`spectrum` solves H_N in full. The Thomas-Kuhn sum over every level of H_N
needs no full solve either: closure forms it from the lowest pairs alone
(`SpectrumResult.closure_sums`).

The gap-order check's other spectra, at lam_1/2 and at lam_1 away from the
default --lam, are blocks of `lowest_eigenpairs` with no certificate: they
stand for the metastable levels the series describes. At cubic lam_1 and
N = 600, H_N holds 11 eigenvalues besides the block's six below sigma,
truncation states down to E = -74.85, which a certificate would refuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import OscillatorParams

__all__ = [
    "NumericError",
    "PlateauError",
    "SpectrumResult",
    "diagonalize",
    "spectrum",
    "lowest_eigenpairs",
    "rspt",
    "position_matrix",
    "cubic_coupling_limit",
]

# The plateau rule of `spectrum` for a potential unbounded below (p even, or
# lam < 0): a truncated eigenvalue stands for a metastable level only while
# the basis no longer moves it. The lowest PLATEAU_LEVELS, the ones the
# Thomas-Kuhn check reads, may move at most PLATEAU_TOL * hbar * omega0, the
# size of that check's truncation bound in units of the level spacing, when
# the basis loses PLATEAU_STEP states, several times the reach p + 1 of the
# potential.
PLATEAU_STEP = 10
PLATEAU_TOL = 1e-8
PLATEAU_LEVELS = 6
# `lowest_eigenpairs` starts from a block of BLOCK_START states per pair and
# doubles it until every pair passes. At the default --levels the main
# spectrum holds 8 pairs and passes at the first size, 64 states, for either
# force at lam_1; so do the gap-order check's blocks at lam_1/2
BLOCK_START = 8
EPS = float(np.finfo(float).eps)
# lam = 0.05 in units where m = omega0 = hbar = 1: the cubic coupling cap,
# and the larger coupling lam_1 of the gap-order check (`checks.gap_couplings`)
DEFAULT_UNIT_COUPLING = 0.05


class NumericError(RuntimeError):
    """Eigensolve failed or did not meet the residual bound."""


class PlateauError(RuntimeError):
    """Truncated eigenvalues have not stabilized under basis growth."""


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues and eigenvectors of a truncated Hamiltonian, each
    eigenvector's largest component positive; `position_columns` gives the
    exact position amplitudes between them. plateau holds
    |E(N) - E(N - PLATEAU_STEP)| for the lowest PLATEAU_LEVELS levels when
    a basis-growth check was run; bands holds the diagonals of the operator
    they solve, which `closure_sums` applies."""

    params: OscillatorParams
    basis_size: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    plateau: np.ndarray | None = None
    bands: np.ndarray | None = None

    def omega_exact(self, n: int, m: int) -> float:
        return float(
            (self.eigenvalues[n] - self.eigenvalues[m]) / self.params.hbar
        )

    def _position_images(self, count: int) -> np.ndarray:
        """x v_n for n < count, with x truncated to the basis, through its
        two off-diagonals."""
        x = _ladder_bands(_position_offdiag(self.params, self.basis_size), 1.0)
        return _apply_bands(x, self.eigenvectors[:, :count])

    def position_columns(self, count: int) -> np.ndarray:
        """X[k, n] = <k|x|n> = v_k^T (x v_n) for every held pair k and
        n < count, in one product. Only held pairs are formed: reading past
        them raises IndexError."""
        return self.eigenvectors.T @ self._position_images(count)

    def closure_sums(self, count: int) -> np.ndarray:
        """sum_k X(k, n)^2 (E_k - E_n) for n < count, the sum running over
        a complete eigenbasis of H_N, by closure:
        (x v_n)^T (H_N - E_n) (x v_n), with the x of `position_columns`
        and H_N applied through the diagonals the pairs were solved from.
        It reads only the pairs n < count."""
        xv = self._position_images(count)
        hxv = _apply_bands(self.bands, xv)
        hxv -= self.eigenvalues[:count] * xv
        return np.sum(xv * hxv, axis=0)


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


def _apply_bands(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for an operator M stored by diagonals, as in `_band_product`,
    and each column of v."""
    w = bands.shape[0] // 2
    out = bands[w, :, None] * v
    for k in range(1, w + 1):
        out[:-k] += bands[w + k, :-k, None] * v[k:]
        out[k:] += bands[w - k, k:, None] * v[:-k]
    return out


def _dense(bands: np.ndarray) -> np.ndarray:
    """The dense matrix of an operator stored by diagonals."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    h = np.zeros((n, n))
    flat = h.reshape(-1)
    # a diagonal at |k| >= n holds no entry
    reach = min(w, n - 1)
    for k in range(-reach, reach + 1):
        # the cells (r, r+k) of rows r = lo..lo+m-1 lie n+1 apart in flat
        lo, m = max(-k, 0), n - abs(k)
        flat[lo * (n + 1) + k :: n + 1][:m] = bands[w + k, lo : lo + m]
    return h


def _ladder_bands(up: np.ndarray, sign: float) -> np.ndarray:
    """c (a + sign a^dagger) by diagonals, from up[r] = c sqrt(r+1) =
    <r|c a|r+1>."""
    bands = np.zeros((3, up.size + 1))
    bands[2, :-1] = up
    bands[0, 1:] = sign * up
    return bands


def _hamiltonian_bands(params: OscillatorParams, n: int) -> np.ndarray:
    """The 2p + 3 diagonals of H = p^2/2m + m omega0^2 x^2 / 2
    + m lam x^(p+1)/(p+1) on n states, with every operator product formed
    inside the truncated basis, diagonal by diagonal, since the ladder
    operators are tridiagonal. Fewer than 8 states are refused."""
    if n < 8:
        raise ValueError("basis_size must be at least 8")
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
    return bands


def _symmetric(bands: np.ndarray) -> np.ndarray:
    """0.5 (M + M^T) by diagonals: each mirrored pair (a, b) becomes
    (a + b) * 0.5, the bits of 0.5 * (m + m.T) of the dense matrix. A
    diagonal at |k| >= n holds no entry and stays zero."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    out = np.zeros_like(bands)
    reach = min(w, n - 1)
    for k in range(-reach, reach + 1):
        lo, hi = max(-k, 0), n - max(k, 0)
        out[w + k, lo:hi] = (bands[w + k, lo:hi] + bands[w - k, lo + k : hi + k]) * 0.5
    return out


def _parity_blocks(bands: np.ndarray):
    """The blocks of an operator stored by diagonals, each with the slice of
    basis states it spans and its own diagonals: its two parity blocks where
    it couples no even level to an odd one (H of the quartic force commutes
    with parity), the whole operator otherwise. A parity block of band width
    w keeps the even diagonals, w // 2 of them on each side."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    step = 2 if n > 1 and not bands[(w + 1) % 2 :: 2].any() else 1
    for start in range(step):
        yield slice(start, None, step), bands[w % step :: step, start::step]


def diagonalize(params: OscillatorParams, bands: np.ndarray) -> SpectrumResult:
    """Eigendecomposition of the symmetric part of an operator stored by
    diagonals, solved per parity block, with a per-pair residual check."""
    n = bands.shape[1]
    solved, residuals = [], []
    for rows, block_bands in _parity_blocks(_symmetric(bands)):
        block = _dense(block_bands)
        try:
            evals, evecs = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericError(f"eigensolver did not converge: {exc}") from exc
        r = block @ evecs
        r -= evecs * evals
        residuals.append(np.max(np.abs(r, out=r)))
        solved.append((rows, evals, evecs))
    evals = np.concatenate([e for _, e, _ in solved])
    scale = float(np.max(np.abs(evals))) or 1.0
    for residual in residuals:
        # a nan residual or scale fails this test
        if not residual <= 1e-10 * scale:
            raise NumericError(
                f"eigenpair residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
            )
    if len(solved) == 1:
        evecs = solved[0][2]
    else:
        evecs = np.zeros((n, n))
        col = 0
        for rows, e, v in solved:
            evecs[rows, col : col + e.size] = v
            col += e.size
        order = np.argsort(evals, kind="stable")
        evals, evecs = evals[order], evecs[:, order]
    # deterministic phases: largest-magnitude component positive
    flips = np.sign(evecs[np.abs(evecs).argmax(axis=0), np.arange(evecs.shape[1])])
    flips[flips == 0] = 1.0
    evecs *= flips
    return SpectrumResult(params=params, basis_size=n, eigenvalues=evals, eigenvectors=evecs,
                          bands=bands)


def cubic_coupling_limit(params: OscillatorParams) -> float:
    """Largest |lam| at which `spectrum` takes the cubic force's truncated
    eigenvalues for metastable levels: the unit-free |lam|*beta/omega0^2 of
    lam = 0.05 in default units."""
    return DEFAULT_UNIT_COUPLING * math.sqrt(2.0) * (1.0 + 1e-12) * params.omega0**2 / params.beta


def _refuse_deep_cubic(params: OscillatorParams) -> None:
    if params.force_exponent == 2:
        limit = cubic_coupling_limit(params)
        if abs(params.lam) > limit:
            raise ValueError(f"cubic-force coupling |lam| = {abs(params.lam):.4g} beyond "
                             f"{limit:.4g}, the metastable-spectrum regime at these units")


def _unbounded_below(params: OscillatorParams) -> bool:
    """Whether m lam x^(p+1)/(p+1) is unbounded below: p even, or lam < 0."""
    return params.force_exponent % 2 == 0 or params.lam < 0


def spectrum(params: OscillatorParams, basis_size: int, count: int) -> SpectrumResult:
    """The `count` lowest eigenpairs of the truncated Hamiltonian H_N,
    N = basis_size, certified and vetted.

    The pairs are the Rayleigh-Ritz block of `lowest_eigenpairs`, which
    shows that each is an eigenpair of H_N. `_certified` then shows that
    no other eigenvalue of H_N lies below them; where it cannot, H_N is
    solved in full. The diagonals of H_N are built once and serve every
    Ritz block, the certificate, the full solve and the closure sums of the
    result. The certificate runs along the band of H_N in O(N M^2)
    operations and O(M^2) memory for a block of M states.

    For the cubic force this enforces the coupling cap. Where the potential
    is unbounded below it requires the lowest PLATEAU_LEVELS eigenvalues to
    move at most PLATEAU_TOL * hbar * omega0 when the basis shrinks by
    PLATEAU_STEP, since those eigenvalues only approximate metastable
    levels; count must be at least PLATEAU_LEVELS. The smaller basis needs
    no solve of its own where the accepted block of M states has
    M + 2(p + 1) <= N - PLATEAU_STEP: its Ritz problem is then the same
    matrix, with the same tail, so the pairs are eigenpairs of H(N -
    PLATEAU_STEP) as well and the drift is 0. By Cauchy interlacing the
    certificate carries over to the leading N - PLATEAU_STEP states of H_N,
    which differ from H(N - PLATEAU_STEP) only in the last rows, where the
    smaller basis cuts its operator products; a partner of
    `lowest_eigenpairs` is not certified either. Otherwise it is solved for
    those levels by `lowest_eigenpairs` once it holds more than
    2 * BLOCK_START * PLATEAU_LEVELS states, and in full below that, where
    the block's first doubling would already reach it.
    """
    _refuse_deep_cubic(params)
    bands = _hamiltonian_bands(params, basis_size)
    w = params.force_exponent + 1
    smaller_size = basis_size - PLATEAU_STEP
    # a first block too large to stand in for the plateau partner saves no
    # solve, so the spectrum is then solved in full at once
    block = None
    if BLOCK_START * count + 2 * w <= smaller_size:
        block = _ritz_block(params, bands, count)
    if block is None or (block.basis_size < basis_size
                         and not _certified(bands, block, count)):
        block = diagonalize(params, bands)
    result = _held(block, bands, count)
    levels = min(PLATEAU_LEVELS, smaller_size)
    if block.basis_size + 2 * w <= smaller_size:
        smaller = result
    elif smaller_size > 2 * BLOCK_START * PLATEAU_LEVELS:
        smaller = lowest_eigenpairs(params, smaller_size, levels)
    else:
        smaller = diagonalize(params, _hamiltonian_bands(params, smaller_size))
    drift = np.abs(result.eigenvalues[:levels] - smaller.eigenvalues[:levels])
    bound = PLATEAU_TOL * params.hbar * params.omega0
    if _unbounded_below(params) and np.any(drift > bound):
        raise PlateauError(
            f"eigenvalue drift {np.max(drift):.3e} over basis step "
            f"{PLATEAU_STEP} exceeds {bound:.1e}"
        )
    return replace(result, plateau=drift)


def _certified(bands: np.ndarray, block: SpectrumResult, count: int) -> bool:
    """Whether H_N, given by its diagonals, has no eigenvalue below sigma
    but the `count` lowest pairs of an accepted Ritz block, with sigma
    midway between the block's count-th and next Ritz value.

    Those pairs (E_i, v_i) are eigenpairs of H_N, so A = H_N - sigma I
    + c V V^T with c = 2 (sigma - E_0) has the eigenvalues
    E_i - sigma + c > 0 on them and lambda - sigma on every other
    eigenvalue lambda of H_N. A is positive definite exactly when no such
    lambda lies below sigma, up to rounding of order N eps max |H_N|, which
    `_positive_definite` tests along the band of A in O(N M^2) operations
    for a block of M states. An operator that couples no even level to an
    odd one, as the quartic H, is tested as its two parity blocks, as
    `diagonalize` solves it."""
    e = block.eigenvalues
    sigma = 0.5 * (e[count - 1] + e[count])
    c = 2.0 * (sigma - e[0])
    for rows, block_bands in _parity_blocks(bands):
        v = block.eigenvectors[rows, :count]
        if not _positive_definite(block_bands, sigma, (c * v) @ v.T, block.basis_size):
            return False
    return True


def _positive_definite(bands: np.ndarray, shift: float, corner: np.ndarray,
                       step: int) -> bool:
    """Whether A = M - shift I + C is positive definite, for an operator M
    stored by diagonals and a dense C on its leading len(C) <= step states,
    by the block Cholesky factorization that `np.linalg.cholesky` of the
    dense A performs in exact arithmetic, reading the lower triangle of M as
    it does, with no N x N array.

    The rows are factored in chunks: the first [0, step + w) for band width
    w, then step rows at a time (at least w). A chunk's rows reach back to
    the last w states of the chunk before it only, through
    G = M[next w rows, last w states], so its factor L_tt there leaves the
    new chunk's leading w x w corner less Y^T Y, Y = L_tt^-1 G^T: the rows
    of L that join the two chunks are Y^T."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    stop = min(step + w, n)
    a = _dense(bands[:, :stop])
    a.flat[:: stop + 1] -= shift
    a[: len(corner), : len(corner)] += corner
    while True:
        try:
            factor = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        if stop == n:
            return True
        start, stop = stop, min(stop + max(step, w), n)
        # the chunk with the w states before it, whose rows hold G
        a = _dense(bands[:, start - w : stop])
        a.flat[:: stop - start + w + 1] -= shift
        g = a[w : 2 * w, :w]
        t = len(factor) - w
        y = np.linalg.solve(factor[t:, t:], g.T)
        a = a[w:, w:]
        a[: len(g), : len(g)] -= y.T @ y


def _ritz_block(params: OscillatorParams, bands: np.ndarray, count: int) -> SpectrumResult:
    """The accepted Rayleigh-Ritz block of `lowest_eigenpairs` on the
    diagonals of H_N, every one of its pairs."""
    w = params.force_exponent + 1
    n = bands.shape[1]
    m = BLOCK_START * count
    while True:
        m = min(m, n)
        block = diagonalize(params, bands[:, :m])
        if m == n:
            return block
        # H_N[M:M+w, M-w:M], from the states M-w..M+w-1
        coupling = _dense(_symmetric(bands[:, m - w : m + w]))[w:, :w]
        tail = coupling @ block.eigenvectors[m - w :, :count]
        if np.max(np.abs(tail)) <= EPS * np.max(np.abs(block.eigenvalues)):
            return block
        m *= 2


def _held(block: SpectrumResult, bands: np.ndarray, count: int) -> SpectrumResult:
    """The `count` lowest pairs of a Ritz block as eigenpairs of H_N, given
    by its diagonals: each eigenvector padded with zeros to the N states."""
    v = np.zeros((bands.shape[1], count))
    v[: block.basis_size] = block.eigenvectors[:, :count]
    return replace(block, basis_size=bands.shape[1], eigenvalues=block.eigenvalues[:count],
                   eigenvectors=v, bands=bands)


def lowest_eigenpairs(params: OscillatorParams, basis_size: int, count: int) -> SpectrumResult:
    """`count` eigenpairs of the Hamiltonian truncated to N = basis_size
    states, by Rayleigh-Ritz on its leading M states: the lowest of the
    M x M block, not shown to be the lowest of H_N (`spectrum` certifies
    that).

    H has band reach w = p + 1, and the M x M block is the leading M
    states of the diagonals of H_N, built once. A Ritz pair (e, v), with v
    padded by zeros, leaves H_N v - e v = block residual + the tail
    t = H_N[M:M+w, M-w:M] v[M-w:]. The pairs are accepted when every
    max |t| <= eps times the block's largest |eigenvalue|, below the
    rounding of the block's own eigensolve, so each is an eigenpair of H_N
    to rounding; otherwise M doubles. At M = N this is the full solve of
    H_N, bit for bit. Only the accepted pairs are kept, their eigenvectors
    padded to the N states: reading pair `count` or past raises
    IndexError. The cubic coupling cap is enforced as in `spectrum`."""
    _refuse_deep_cubic(params)
    bands = _hamiltonian_bands(params, basis_size)
    return _held(_ritz_block(params, bands, count), bands, count)


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
