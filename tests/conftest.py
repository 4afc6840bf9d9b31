import numpy as np
import pytest
from hypothesis import settings

from ampmech import OscillatorParams, solve_perturbative, spectrum
from ampmech.core import BandAmplitudeArray

settings.register_profile("suite", deadline=None, max_examples=40)
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

    def get(lam, force_exponent=2, basis_size=80, **kw):
        key = (lam, force_exponent, basis_size, tuple(sorted(kw.items())))
        if key not in _SPECTRA:
            p = OscillatorParams(lam=lam, force_exponent=force_exponent)
            _SPECTRA[key] = spectrum(p, basis_size, **kw)
        return _SPECTRA[key]

    return get


def random_symmetric_band(rng, n_max, band_max, scale=1.0):
    """Random real-symmetric banded array with zeroed top-edge mirrors."""
    data = np.zeros((n_max + 1, 2 * band_max + 1))
    for a in range(band_max + 1):
        vals = scale * rng.normal(size=n_max + 1)
        vals[:a] = 0.0
        data[:, band_max + a] = vals
        if a:
            data[: n_max + 1 - a, band_max - a] = vals[a:]
    return BandAmplitudeArray(data)


def dyadic_potential(rng, size):
    """Potentials on a dyadic grid so frequency sums are exact in binary fp."""
    return rng.integers(-(2**20), 2**20, size=size).astype(float) / 1024.0


def assert_same_bits(got, ref):
    """Same dtype, shape and bytes: equal values, signs of zeros included."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def xp_rebuild_reference(p, x, x2, s, step=1, min_power=None):
    """lam^s coefficient of x^p formed from scratch through lam^s at every
    call, as the engine did before it carried x^2 across powers; the carry
    array x2 is ignored. Patched over `_xp_coefficient` it gives the old
    per-power rebuild of the solvers. With min_power, the coefficients
    lam^min_power..lam^s."""
    from ampmech.perturb import _series_mul

    xp = _series_mul(x, x, s, step)
    if p == 3:
        xp = _series_mul(xp, x, s, step)
    return xp[s] if min_power is None else xp[min_power : s + 1]
