import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from ampmech import (BandAmplitudeArray, OscillatorParams, diagonalize, position_matrix,
                     solve_perturbative, spectrum)
from ampmech.oracle import _dense, _hamiltonian_bands, _symmetric

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


DEFAULTS = OscillatorParams()  # m = omega0 = hbar = 1, lam = 0.05, cubic force
QUARTIC = OscillatorParams(force_exponent=3)


@pytest.fixture(scope="session")
def params():
    return DEFAULTS


@pytest.fixture(scope="session")
def sol_cubic():
    return solve_perturbative(DEFAULTS, 2, 24)


@pytest.fixture(scope="session")
def sol_quartic():
    return solve_perturbative(QUARTIC, 2, 24)


_SPECTRA: dict = {}


@pytest.fixture(scope="session")
def cached_spectrum():
    """Memoized diagonalizations keyed by (lam, force, basis)."""

    def get(lam, force_exponent=2, basis_size=80):
        key = (lam, force_exponent, basis_size)
        if key not in _SPECTRA:
            p = OscillatorParams(lam=lam, force_exponent=force_exponent)
            _SPECTRA[key] = spectrum(p, basis_size, basis_size)
        return _SPECTRA[key]

    return get


def dense_hamiltonian(params, n):
    """H_N as one dense matrix: the symmetric part 0.5 (H + H^T) of the
    diagonals that `diagonalize` solves."""
    return _dense(_symmetric(_hamiltonian_bands(params, n)))


def full_spectrum(params, n):
    """Every eigenpair of H_N, by one unvetted `diagonalize` of its
    diagonals."""
    return diagonalize(params, _hamiltonian_bands(params, n))


def load_script(relative):
    """A script of the repository, e.g. "scripts/oracle_sweep.py", loaded
    as a module."""
    path = pathlib.Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_symmetric_band(rng, n_max, band_max, scale=1.0):
    """Random real-symmetric banded array with zeroed top-edge mirrors."""
    data = np.zeros((n_max + 1, 2 * band_max + 1))
    for a in range(band_max + 1):
        vals = scale * rng.normal(size=n_max + 1)
        vals[:a] = 0.0
        data[:, band_max + a] = vals
        if a:
            data[: max(n_max + 1 - a, 0), band_max - a] = vals[a:]
    return BandAmplitudeArray(data)


def band_from_dense(dense, band_max=None):
    """The band array of a square matrix: X(r, r - alpha) = dense[r, r - alpha]
    for |alpha| <= band_max (every band by default)."""
    n = dense.shape[0]
    band_max = n - 1 if band_max is None else band_max
    data = np.zeros((n, 2 * band_max + 1), dtype=dense.dtype)
    for alpha in range(-min(band_max, n - 1), min(band_max, n - 1) + 1):
        data[max(alpha, 0) : n + min(alpha, 0), band_max + alpha] = np.diagonal(dense, -alpha)
    return BandAmplitudeArray(data)


def dense_of(arr):
    """The dense (n_max+1) x (n_max+1) block of a band array, by
    `oracle._dense`: band alpha is diagonal -alpha, and bands wider than
    n_max reach no cell."""
    w = min(arr.band_max, arr.n_max)
    return _dense(arr.data.T[arr.band_max - w : arr.band_max + w + 1][::-1])


def series_product(x, y):
    """The two-index product of two band arrays by `_series_mul` at one
    power, on its series layout data.T[None]."""
    from ampmech.core import _series_mul

    return BandAmplitudeArray(_series_mul(x.data.T[None], y.data.T[None], 0)[0].T)


def dense_amplitudes(spec):
    """<k|x|n> between every two held eigenstates as one dense matrix,
    v^T x v symmetrized."""
    v = spec.eigenvectors
    amps = v.T @ position_matrix(spec.params, spec.basis_size) @ v
    return 0.5 * (amps + amps.T)


def motion_from_spectrum(spec):
    """The exact amplitudes of a spectrum as a band array of every band, and
    its frequency potentials E_n / hbar, so that the sum rule runs on
    oracle data: `quantum_condition_residual` with them is the reference of
    the oracle's Thomas-Kuhn rows."""
    return band_from_dense(dense_amplitudes(spec)), spec.eigenvalues / spec.params.hbar


def summed_motion(sol, lam):
    """The tables of sol summed at the numeric coupling lam, as
    `checks._commutator_deviation` sums them: the engine's x series as a band
    array over every row of the tables, and the frequency potentials."""
    from ampmech.perturb import _engine_extent, _x_series

    p, c = sol.params.force_exponent, sol.coeffs
    t_max = _engine_extent(p, sol.order)[1]
    x = np.tensordot(lam ** np.arange(t_max + 1), _x_series(p, c.amp, t_max, c.band_max)[0], 1)
    return BandAmplitudeArray(x.T), np.tensordot(lam ** np.arange(sol.order + 1),
                                                 c.freq_potential, 1)


def quantum_condition_residual(params, x, pot):
    """Per-level residual of Heisenberg's sum rule in the paper's form, band
    by band, for the band array x on the frequency potentials pot,

        4 pi m sum_{alpha>=1} ( |X(n+alpha, n)|^2 omega(n+alpha, n)
                                - |X(n, n-alpha)|^2 omega(n, n-alpha) ) - h:

    the reference that `perturb._sum_rule`, band 0 of x (omega x) per power
    of lam, is tested against. Terms that reference a negative level
    vanish; an upward term whose upper level lies above the amplitude rows
    but inside the potentials reads the stored mirror X(n, n+alpha), and
    one above them is dropped."""
    n_rows = x.n_max + 1
    scale = 4.0 * math.pi * params.mass
    res = np.full(n_rows, -params.h, dtype=float)
    for alpha in range(1, x.band_max + 1):
        # the term of X(n, n-alpha) is the down term of row n and the up
        # term of row n-alpha; per row the up term is added first
        low = max(n_rows - alpha, 0)
        term = scale * np.abs(x.band(alpha)[alpha:]) ** 2 * (pot[alpha:n_rows] - pot[:low])
        res[:low] += term
        top = min(n_rows, pot.size - alpha)
        if top > low:
            amp2 = np.abs(x.band(-alpha)[low:top]) ** 2
            res[low:top] += scale * amp2 * (pot[low + alpha : top + alpha] - pot[low:top])
        res[alpha:] -= term
    return res


def qc_residual_reference(params, amp, pot, k, absolute=False):
    """The lam^k coefficient of the sum-rule residual from the tables, one
    (band, order) term at a time, as the solver formed it before the sum
    rule was band 0 of x (omega x): with `absolute`, the summed size of its
    terms instead. The diagonal band adds nothing: omega(n, n) = 0."""
    from ampmech.perturb import _band_list, band_weight

    orders, bands, rows = amp.shape
    res = np.zeros(rows)
    if k == 0:
        res += params.h if absolute else -params.h
    for alpha in _band_list(params.force_exponent, min(bands, rows) - 1):
        rem = k - 2 * band_weight(params.force_exponent, alpha)
        if alpha == 0 or rem < 0:
            continue
        for i in range(min(orders, rem + 1)):
            for j in range(min(orders, rem + 1 - i)):
                l = rem - i - j
                if l >= pot.shape[0]:
                    continue
                up = np.zeros(rows)
                m_hi = rows - alpha
                term = amp[i, alpha, alpha:] * amp[j, alpha, alpha:]
                if absolute:
                    term = np.abs(term) * (np.abs(pot[l, alpha:]) + np.abs(pot[l, :m_hi]))
                else:
                    term *= pot[l, alpha:] - pot[l, :m_hi]
                up[:m_hi] = term
                down = np.zeros(rows)
                down[alpha:] = term
                res += math.pi * params.mass * (up + down if absolute else up - down)
    return res


def symmetry_defect(arr):
    """Largest violation of the symmetry convention over entry pairs that
    are both stored."""
    dense = dense_of(arr)
    return float(np.max(np.abs(dense - dense.T))) if dense.size else 0.0


def dyadic_potential(rng, size):
    """Potentials on a dyadic grid so frequency sums are exact in binary fp."""
    return rng.integers(-(2**20), 2**20, size=size).astype(float) / 1024.0


def assert_same_bits(got, ref):
    """Same dtype, shape and bytes: equal values, signs of zeros included."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def check_bits(found):
    """The (id, observed, tolerance) of a group of checks with the two
    numbers by `float.hex`, signs of zeros included."""
    return [(check_id, float(observed).hex(), float(tolerance).hex())
            for check_id, observed, tolerance in found]


def xp_rebuild_reference(p, x, x2, x2_lo, s, bands, step=1, min_power=None, masks=None):
    """lam^s coefficient of x^p formed from scratch through lam^s on every
    band at every call, as the engine did before it carried x^2 across
    powers, then cut to the bands bands[0]..bands[-1]; the carry array x2,
    its lowest band x2_lo and the carried masks are ignored, and the
    products scan their factors.
    Patched over `_xp_coefficient` it gives the old per-power rebuild of the
    solvers. With min_power, the coefficients lam^min_power..lam^s."""
    from ampmech.core import _series_mul

    xp = _series_mul(x, x, s, step)
    if p == 3:
        xp = _series_mul(xp, x, s, step)
    bc = (xp.shape[-2] - 1) // 2
    xp = xp[..., bc + bands[0] : bc + bands[-1] + 1, :]
    return xp[s] if min_power is None else xp[min_power : s + 1]


def xp_full_bands(p, x, x2, s, step=1):
    """lam^s coefficient of x^p on the bands of x, from x2, the full-band
    x^2 through lam^s, and the unwindowed product: the x^p term of the
    equation of motion as the engine formed it before it took band windows."""
    from ampmech.core import _series_mul

    xp = x2[s] if p == 2 else _series_mul(x2[: s + 1], x, s, step, min_power=s)[0]
    bc, band_max = (xp.shape[-2] - 1) // 2, (x.shape[-2] - 1) // 2
    return xp[bc - band_max : bc + band_max + 1]


def build_recursions(params, alpha, order):
    """Residual functional for band alpha at the given order in lam: the
    returned callable evaluates, on a CoefficientSet, the order-`order`
    coefficient of the band-alpha component of the equation of motion,
    normalized so that the adjacent band reads
    [omega0^2 - omega^2(n, n-1)] a(n, n-1) + ... at order zero. It vanishes
    identically on a solution, row by row, wherever the tables provide the
    neighbors the band couples to. The reference the recursion check and the
    printed recursion relations are tested against."""
    from ampmech.core import _omega_series
    from ampmech.perturb import _check_order, _eom_terms, _half, band_weight

    p = params.force_exponent
    _check_order(order)
    alpha = abs(alpha)
    w = band_weight(p, alpha)  # raises for even quartic bands
    power = w + order
    scale = 1.0 / _half(alpha)

    def residual(coeffs):
        om = _omega_series(coeffs.freq_potential, max(coeffs.band_max, alpha))
        return scale * _eom_terms(params, coeffs.amp, om, power, range(alpha, alpha + 1))[power, 0]

    return residual


def default_lambda_grid(lam0, count=5):
    """Geometric grid lam0/2^(count-1) .. lam0 of the series-fit references."""
    return lam0 / 2.0 ** np.arange(count - 1, -1, -1, dtype=float)


def lambda_series_fit(samples, lambdas, order):
    """Coefficients c0..c_order of the least-squares fit of the samples by
    c0 + c1 lam + ... + c_order lam^order over the grid of couplings: the
    coefficient of a power of lam read off exact spectra, as the oracle's
    series fits read it before the gap-order check replaced them."""
    design = np.vander(lambdas, order + 1, increasing=True)
    return np.linalg.lstsq(design, samples, rcond=None)[0]
