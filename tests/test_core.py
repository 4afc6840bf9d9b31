import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ampmech import BandAmplitudeArray, OscillatorParams
from ampmech.checks import _commutator_deviation
from ampmech.core import _omega_series
from ampmech.perturb import _sum_rule, solve_perturbative

from conftest import (assert_same_bits, band_from_dense, dense_of, dyadic_potential,
                      motion_from_spectrum, quantum_condition_residual, random_symmetric_band,
                      series_product, summed_motion, symmetry_defect)

SQ2 = math.sqrt(2.0)
# the engine's commutator against the complex reference, per unit of the
# summed size of the terms: about 3 times the largest ratio measured (1.4 eps)
ROUNDING_TOL = 4 * np.finfo(float).eps


def sho_motion(n_max):
    """The oscillator's x as a band array and its frequency potentials."""
    return summed_motion(solve_perturbative(OscillatorParams(lam=0.0), 0, n_max), 0.0)


def zeros(n_max, band_max):
    return BandAmplitudeArray(np.zeros((n_max + 1, 2 * band_max + 1)))


def harmonic_potential(omega0, n_max):
    """Potentials of the equally spaced grid omega(n, m) = (n - m)*omega0."""
    return omega0 * np.arange(n_max + 1, dtype=float)


def rate(x, pot):
    """omega X, the real factor of the time derivative i omega X, of the band
    array x on the frequency potentials pot, as the engine forms it: omega
    by `_omega_series`, times X entry by entry. omega is 0 where the column
    level lies beyond the potentials (truncation edge)."""
    om = _omega_series(pot[None], x.band_max)[0, :, : x.n_max + 1]
    return BandAmplitudeArray(om.T * x.data)


def multiply_reference(xd, yd):
    """The band data of the two-index product of two band data arrays, one
    (a, b) band pair at a time, in the dtype of the pair."""
    n_rows = xd.shape[0]
    bx, by = (xd.shape[1] - 1) // 2, (yd.shape[1] - 1) // 2
    out = np.zeros((n_rows, 2 * (bx + by) + 1), dtype=np.result_type(xd, yd))
    for a in range(-bx, bx + 1):
        lo = max(0, a)
        hi = min(n_rows - 1, n_rows - 1 + a)
        if lo > hi:
            continue
        xa = xd[lo : hi + 1, bx + a]
        for b in range(-by, by + 1):
            out[lo : hi + 1, bx + by + a + b] += xa * yd[lo - a : hi + 1 - a, by + b]
    return out


def commutator_complex_reference(params, x, pot):
    """Diagonal of x*p - p*x from the complex derivative i*omega*X, by two
    full products, with the summed size of its terms, m sum |X| |omega X|
    over both products."""
    xd, wd = x.data, rate(x, pot).data
    b = 2 * x.band_max
    comm = params.mass * (multiply_reference(xd, 1j * wd)[:, b]
                          - multiply_reference(1j * wd, xd)[:, b])
    return comm, 2.0 * params.mass * multiply_reference(np.abs(xd), np.abs(wd))[:, b]


def sum_rule_reference(params, x, pot):
    """The sum-rule residual 2 pi [x, p](n, n)/i - h of a symmetric band array
    x, with [x, p](n, n)/i = m (X (omega X) - (omega X) X)(n, n) from two full
    real products, for which `_sum_rule` forms the first alone: with X
    symmetric and omega antisymmetric the two diagonals are each other's
    negatives, bit for bit, so half their difference is the first."""
    xd, wd = x.data, rate(x, pot).data
    b = 2 * x.band_max
    half = 0.5 * (multiply_reference(xd, wd)[:, b] - multiply_reference(wd, xd)[:, b])
    return 4.0 * math.pi * params.mass * half - params.h


def time_derivative_reference(x, pot):
    """omega(n, m)*X(n, m) one band at a time, with omega read off the
    potentials entry by entry: 0 where the column level lies beyond them."""
    n_rows = x.n_max + 1
    out = np.zeros((n_rows, 2 * x.band_max + 1))
    for alpha in range(-x.band_max, x.band_max + 1):
        col = np.arange(n_rows) - alpha
        keep = (col >= 0) & (col < pot.size)
        omega = np.zeros(n_rows)
        omega[keep] = pot[np.arange(n_rows)[keep]] - pot[col[keep]]
        out[:, x.band_max + alpha] = omega * x.band(alpha)
    return BandAmplitudeArray(out)


def random_motion(seed, n_max, band_max, extra):
    """Random banded amplitudes (top-edge mirrors nonzero), random
    potentials `extra` levels taller than the amplitude rows, and a random
    mass."""
    rng = np.random.default_rng(seed)
    x = BandAmplitudeArray(rng.normal(size=(n_max + 1, 2 * band_max + 1)))
    return x, rng.normal(size=n_max + 1 + extra), OscillatorParams(mass=rng.uniform(0.5, 2.0))


def residual_reference(params, x, pot):
    """The sum-rule residual entry by entry through `get`, with the sum of
    the absolute values of each row's terms."""
    res = np.full(x.n_max + 1, -params.h)
    size = np.full(x.n_max + 1, params.h)
    for n in range(x.n_max + 1):
        for alpha in range(1, x.band_max + 1):
            up, dn = n + alpha, n - alpha
            if up < pot.size:
                term = 4.0 * math.pi * params.mass * abs(x.get(up, n)) ** 2 * (pot[up] - pot[n])
                res[n] += term
                size[n] += abs(term)
            if dn >= 0:
                term = 4.0 * math.pi * params.mass * abs(x.get(n, dn)) ** 2 * (pot[n] - pot[dn])
                res[n] -= term
                size[n] += abs(term)
    return res, size


class TestParams:
    def test_beta_identity(self):
        p = OscillatorParams(mass=2.5, omega0=0.7, hbar=3.0)
        assert p.beta**2 == pytest.approx(2.0 * p.hbar / (p.mass * p.omega0), rel=1e-15)
        assert p.h == pytest.approx(2.0 * math.pi * p.hbar, rel=1e-15)

    @pytest.mark.parametrize("field,value", [
        ("mass", 0.0), ("omega0", -1.0), ("hbar", float("nan")),
        ("force_exponent", 4), ("lam", float("inf")),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            OscillatorParams(**{field: value})


class TestFrequencyGrid:
    """Transition frequencies omega(n, n-g) as `_omega_series` forms them
    from the per-level potentials."""

    def test_diagonal_is_zero(self):
        om = _omega_series(np.array([[0.3, 1.7, 2.9]]), 2)[0]
        assert not np.any(om[2])

    def test_antisymmetry(self):
        om = _omega_series(np.array([[0.1, 0.9, 2.2, 3.8]]), 3)[0]
        # omega(3, 1) on band 2 of row 3, omega(1, 3) on band -2 of row 1
        assert om[3 + 2, 3] == -om[3 - 2, 1] == 2.9

    @given(st.integers(0, 2**31 - 1))
    def test_ritz_combination_exact(self, seed):
        rng = np.random.default_rng(seed)
        om = _omega_series(dyadic_potential(rng, 12)[None], 6)[0]
        for n in range(11, 3, -1):
            for a in range(1, 4):
                for b in range(1, 4):
                    if n - a - b < 0:
                        continue
                    assert om[6 + a, n] + om[6 + b, n - a] == om[6 + a + b, n]

    def test_oracle_levels_soften_fundamental(self, cached_spectrum):
        # cubic anharmonicity lowers omega(1, 0) below omega0
        spec = cached_spectrum(0.05)
        shift = -5.0 * 2.0 / 12.0 * 0.05**2  # second-order softening at n = 1
        assert spec.omega_exact(1, 0) < 1.0
        assert spec.omega_exact(1, 0) == pytest.approx(1.0 + shift, abs=5e-5)


class TestBandAmplitudeArray:
    def test_floor_entries_zeroed(self):
        data = np.ones((3, 5))
        arr = BandAmplitudeArray(data)
        assert arr.get(0, -1) == 0.0
        assert arr.get(1, -1) == 0.0
        assert arr.band(2)[0] == 0.0 and arr.band(2)[1] == 0.0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 7), st.integers(0, 9),
           st.sampled_from((np.float64, np.float32, np.int64, np.complex128)),
           st.booleans())
    def test_single_copy_matches_former_constructor(self, seed, rows, bmax, dtype, fortran):
        # the former __post_init__: copy, cast, then zero the floor band by band;
        # amplitudes are real, so complex data is refused
        data = np.random.default_rng(seed).normal(size=(rows, 2 * bmax + 1, 2)) * 4.0
        data = (data[..., 0] + 1j * data[..., 1] if dtype == np.complex128
                else data[..., 0]).astype(dtype)
        if fortran:
            data = np.asfortranarray(data)
        if dtype == np.complex128:
            with pytest.raises(ValueError):
                BandAmplitudeArray(data)
            return
        ref = np.array(data, copy=True).astype(np.float64)
        for alpha in range(1, bmax + 1):
            ref[:alpha, bmax + alpha] = 0.0
        arr = BandAmplitudeArray(data)
        assert_same_bits(arr.data, ref)
        assert not arr.data.flags.writeable and not np.shares_memory(arr.data, data)

    def test_get_uses_mirror_above_ceiling(self):
        arr = random_symmetric_band(np.random.default_rng(0), 6, 2)
        assert arr.get(7, 6) == arr.get(6, 7)

    def test_dense_roundtrip(self):
        # band_max below, equal to and above n_max; entrywise against get and
        # back to the same bits
        cases = [(9, 3), (7, 0), (7, 7), (4, 6), (0, 0)]
        for n_max, band_max in cases:
            rng = np.random.default_rng(17 + n_max + band_max)
            values = rng.normal(size=(n_max + 1, n_max + 1))
            dense = values + values.T
            arr = band_from_dense(dense, band_max=band_max)
            out = dense_of(arr)
            for n in range(n_max + 1):
                for m in range(n_max + 1):
                    expect = dense[n, m] if abs(n - m) <= band_max else 0.0
                    assert out[n, m] == expect == arr.get(n, m)
            back = band_from_dense(out, band_max=band_max)
            assert back.data.tobytes() == arr.data.tobytes()

    def test_symmetry_defect_zero_for_symmetric(self):
        arr = random_symmetric_band(np.random.default_rng(5), 8, 2)
        assert symmetry_defect(arr) == 0.0


class TestMultiply:
    """The two-index product law, as the solver forms it: `_series_mul` at
    one power."""

    def test_identity_law(self):
        rng = np.random.default_rng(11)
        y = random_symmetric_band(rng, 10, 3)
        ident = BandAmplitudeArray(np.ones((11, 1)))
        z = series_product(ident, y)
        assert np.allclose(dense_of(z), dense_of(y), atol=0, rtol=0)

    def test_sho_two_step_amplitude(self):
        # single surviving path 2 -> 1 -> 0 of the product law
        x = sho_motion(10)[0]
        z = series_product(x, x)
        assert z.get(2, 0) == pytest.approx(SQ2 / 2.0, rel=1e-14)

    def test_sho_diagonal_of_square(self):
        x = sho_motion(12)[0]
        z = series_product(x, x)
        n = np.arange(10)
        expect = 0.5 * (2 * n + 1)  # beta^2 / 4 * (2n + 1), beta^2 = 2
        assert np.allclose(z.band(0)[:10], expect, rtol=1e-14)
        dense = dense_of(x) @ dense_of(x)
        assert np.allclose(np.diag(dense)[:10], expect, rtol=1e-14)

    @settings(max_examples=300)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 10), st.integers(0, 12),
           st.integers(0, 12))
    def test_matches_band_pair_loop(self, seed, n_max, bx, by):
        # widths up to 12 over as few as one row, so some bands reach no row
        rng = np.random.default_rng(seed)
        x, y = (BandAmplitudeArray(rng.normal(size=(n_max + 1, 2 * b + 1))) for b in (bx, by))
        assert_same_bits(series_product(x, y).data, multiply_reference(x.data, y.data))

    @given(st.integers(0, 2**31 - 1), st.integers(4, 12), st.integers(1, 3))
    def test_matches_dense_product(self, seed, n_max, band):
        rng = np.random.default_rng(seed)
        x = random_symmetric_band(rng, n_max, band)
        y = random_symmetric_band(rng, n_max, min(band + 1, n_max))
        z = series_product(x, y)
        dense = dense_of(x) @ dense_of(y)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(dense_of(z) - dense)) <= 1e-14 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        x = random_symmetric_band(rng, 11, 2)
        y = random_symmetric_band(rng, 11, 3)
        z = random_symmetric_band(rng, 11, 2)
        left = dense_of(series_product(series_product(x, y), z))
        right = dense_of(series_product(x, series_product(y, z)))
        scale = max(1.0, np.max(np.abs(left)))
        assert np.max(np.abs(left - right)) <= 1e-14 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_transpose_reverses_order(self, seed):
        rng = np.random.default_rng(seed)
        x = random_symmetric_band(rng, 10, 2)
        y = random_symmetric_band(rng, 10, 3)
        lhs = dense_of(series_product(x, y)).T
        rhs = dense_of(series_product(y, x))
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * scale


class TestTimeDerivative:
    """omega X, the real factor of dX/dt = i omega X, as the engine forms it."""

    def test_diagonal_entries_vanish(self):
        d = rate(*sho_motion(8))
        assert np.max(np.abs(d.band(0))) == 0.0

    def test_sho_adjacent_magnitude(self):
        d = rate(*sho_motion(8))
        assert abs(d.get(1, 0)) == pytest.approx(SQ2 / 2.0, rel=1e-14)
        # omega X is antisymmetric: the real form of i omega X being Hermitian
        assert d.get(0, 1) == -d.get(1, 0)

    @given(st.integers(0, 2**31 - 1))
    def test_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        n_max, bx, by = 10, 2, 2
        pot = dyadic_potential(rng, n_max + bx + by + 2)
        x = random_symmetric_band(rng, n_max, bx)
        y = random_symmetric_band(rng, n_max, by)
        # omega (XY) = (omega X) Y + X (omega Y), the real factor of the rule
        lhs = dense_of(rate(series_product(x, y), pot))
        rhs = (dense_of(series_product(rate(x, pot), y))
               + dense_of(series_product(x, rate(y, pot))))
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_velocity_commutator_antihermitian(self, seed):
        rng = np.random.default_rng(seed)
        pot = dyadic_potential(rng, 16)
        x = random_symmetric_band(rng, 10, 2)
        # [x, xdot] = i [x, omega X] is anti-Hermitian when the real
        # commutator of x with omega X is symmetric
        wx = rate(x, pot)
        comm = dense_of(series_product(x, wx)) - dense_of(series_product(wx, x))
        assert np.max(np.abs(comm - comm.T)) <= 1e-12 * max(1.0, np.max(np.abs(comm)))

    @settings(max_examples=200)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 30), st.integers(0, 40),
           st.integers(0, 4))
    def test_gather_matches_band_loop(self, seed, n_max, band_max, extra):
        x, pot, _ = random_motion(seed, n_max, band_max, extra)
        assert_same_bits(rate(x, pot).data, time_derivative_reference(x, pot).data)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gather_matches_band_loop_on_solutions(self, p):
        sol = solve_perturbative(OscillatorParams(mass=2.3, omega0=0.4, force_exponent=p), 4, 30)
        x, pot = summed_motion(sol, 0.07)
        assert_same_bits(rate(x, pot).data, time_derivative_reference(x, pot).data)


class TestQuantumCondition:
    """The tests' band-by-band reference of the sum rule."""

    def test_sho_residual_tiny(self):
        res = quantum_condition_residual(OscillatorParams(lam=0.0), *sho_motion(50))
        assert np.max(np.abs(res[:51])) <= 1e-12

    def test_all_zero_amplitudes(self):
        params = OscillatorParams(lam=0.0)
        res = quantum_condition_residual(params, zeros(10, 2), harmonic_potential(1.0, 12))
        assert np.allclose(res, -params.h, rtol=0, atol=0)

    def test_oracle_amplitudes_quartic(self, cached_spectrum):
        spec = cached_spectrum(0.1, force_exponent=3)
        res = quantum_condition_residual(spec.params, *motion_from_spectrum(spec))
        assert np.max(np.abs(res[:6])) <= 1e-8

    @given(st.integers(0, 2**31 - 1), st.integers(0, 9), st.integers(0, 11),
           st.integers(0, 3))
    def test_matches_entrywise_reference(self, seed, n_max, band, extra):
        # extra > 0 makes the potentials taller than the amplitude rows, so
        # upper levels are read from the mirrored band
        rng = np.random.default_rng(seed)
        # unconstrained data: top-edge mirrors are nonzero
        x = BandAmplitudeArray(rng.normal(size=(n_max + 1, 2 * band + 1)))
        pot = dyadic_potential(rng, n_max + 1 + extra)
        params = OscillatorParams(mass=rng.uniform(0.5, 2.0))
        expect, size = residual_reference(params, x, pot)
        # same operations in the same order per row; numpy's |z| and x*x may
        # round differently from Python's abs and **2 by an ulp
        tol = 8 * np.finfo(float).eps * size
        assert np.all(np.abs(quantum_condition_residual(params, x, pot) - expect) <= tol)

    @pytest.mark.parametrize("n,alpha", [(5, 1), (5, 5), (9, 3), (11, 2)])
    def test_injected_violation_moves_two_rows(self, n, alpha):
        x = random_symmetric_band(np.random.default_rng(n + alpha), 11, 5)
        pot, params = harmonic_potential(1.0, 11), OscillatorParams()
        base = quantum_condition_residual(params, x, pot)
        data = np.array(x.data)
        data[n, 5 + alpha] = 1.0 + 2.0 * abs(data[n, 5 + alpha])  # |X(n, n-alpha)| grows
        moved = quantum_condition_residual(params, BandAmplitudeArray(data), pot) - base
        assert np.flatnonzero(moved).tolist() == [n - alpha, n]
        # X(n, n-alpha) is the down term of row n and the up term of row n-alpha
        assert moved[n - alpha] > 0.0 > moved[n]


@pytest.mark.parametrize("kernel", ["time_derivative"])
def test_strided_views_keep_no_memory(kernel):
    # numpy's stride_tricks keep about 19 bytes from every call; the kernel
    # uses none and keeps nothing
    x, pot, _ = random_motion(0, 12, 3, 2)
    call = {"time_derivative": lambda: rate(x, pot)}[kernel]
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3000):
            call()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 8 * 1024


class TestCommutator:
    """[x, p](n, n) - i hbar as the engine forms it: the sum-rule residual
    over 2 pi (`checks._commutator_deviation`, through `perturb._sum_rule`)."""

    def test_sho_equals_i_hbar(self):
        sol = solve_perturbative(OscillatorParams(lam=0.0), 0, 30)
        assert np.max(np.abs(_commutator_deviation(sol, 0.0)[:31])) <= 1e-12

    def test_zero_amplitudes_give_zero(self):
        # the residual is [x, p]/i - hbar over 2 pi: -h where [x, p] is 0
        x, params = zeros(6, 1), OscillatorParams()
        wx = rate(x, harmonic_potential(1.0, 8))
        res = _sum_rule(params, x.data.T[None], wx.data.T[None], 0)[0]
        assert np.all(res == -params.h)

    def test_quartic_deviation_scales_as_coupling_cubed(self, sol_quartic):
        devs = [np.max(np.abs(_commutator_deviation(sol_quartic, lam)[:5]))
                for lam in (0.1, 0.05)]
        ratio = devs[0] / devs[1]
        assert 8.0 * 0.7 <= ratio <= 8.0 * 1.3

    def test_cubic_deviation_scales_as_coupling_fourth(self, sol_cubic):
        # odd-order corrections vanish for the cubic force, so the residual
        # after a second-order solve starts at the fourth power
        devs = [np.max(np.abs(_commutator_deviation(sol_cubic, lam)[:5]))
                for lam in (0.1, 0.05)]
        ratio = devs[0] / devs[1]
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    @pytest.mark.parametrize("n_max", [5, 12, 60, 400])
    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("units", [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7), (1.0, 0.3, 1.0)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_real_products_match_complex_reference(self, p, units, lam, n_max):
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
        sol = solve_perturbative(params, 2, n_max)
        ref, size = commutator_complex_reference(params, *summed_motion(sol, lam))
        got = _commutator_deviation(sol, lam)
        assert not np.any(ref.real)
        tol = ROUNDING_TOL * (hbar + size)
        assert np.all(np.abs(got - (ref.imag - hbar)) <= tol)

    @settings(max_examples=200)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 30), st.integers(0, 40), st.integers(0, 4))
    def test_diagonal_sum_matches_full_products(self, seed, n_max, band_max, extra):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n_max + 1, n_max + 1))
        x = band_from_dense(values + values.T, band_max)
        pot, params = rng.normal(size=n_max + 1 + extra), OscillatorParams(mass=rng.uniform(0.5, 2.0))
        got = _sum_rule(params, x.data.T[None], rate(x, pot).data.T[None], 0)[0]
        assert_same_bits(got, sum_rule_reference(params, x, pot))

    @pytest.mark.parametrize("n_max", [5, 12, 400])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("order", [0, 2, 6])
    @pytest.mark.parametrize("p", [2, 3])
    def test_diagonal_sum_matches_full_products_on_solutions(self, p, order, lam, n_max):
        params = OscillatorParams(mass=2.3, omega0=0.4, hbar=0.7, force_exponent=p)
        sol = solve_perturbative(params, order, max(n_max, order + 3))
        ref = sum_rule_reference(params, *summed_motion(sol, lam)) / (2.0 * math.pi)
        assert_same_bits(_commutator_deviation(sol, lam), ref)

    def test_sum_rule_chain(self, sol_cubic):
        # the deviation of the commutator from i hbar is the sum-rule
        # residual over 2 pi, on every row 0..n_max
        res = quantum_condition_residual(sol_cubic.params, *summed_motion(sol_cubic, 0.1))
        rows = slice(0, sol_cubic.n_max + 1)
        dev = _commutator_deviation(sol_cubic, 0.1)
        assert np.max(np.abs(dev[rows] - res[rows] / (2.0 * math.pi))) <= 1e-12
