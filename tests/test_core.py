import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ampmech import (
    BandAmplitudeArray,
    DimensionMismatchError,
    FrequencyGrid,
    MotionRepresentation,
    OscillatorParams,
    commutator_diagonal,
    quantum_condition_residual,
    time_derivative,
)
from ampmech.perturb import assemble_motion, solve_perturbative

from conftest import (assert_same_bits, band_from_dense, dense_of, dyadic_potential,
                      motion_from_spectrum, random_symmetric_band, series_product,
                      symmetry_defect)

SQ2 = math.sqrt(2.0)


def sho_motion(n_max, params=None):
    p = params or OscillatorParams(lam=0.0)
    return assemble_motion(solve_perturbative(p, 0, n_max), 0.0)


def zeros(n_max, band_max):
    return BandAmplitudeArray(np.zeros((n_max + 1, 2 * band_max + 1)))


def harmonic_grid(omega0, n_max):
    """Equally spaced grid with omega(n, m) = (n - m)*omega0."""
    return FrequencyGrid(omega0 * np.arange(n_max + 1, dtype=float))


def omega(grid, n, m):
    """omega(n, m) read off the grid's potential."""
    return grid.potential[n] - grid.potential[m]


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


def commutator_complex_reference(motion):
    """Diagonal of x*p - p*x from the complex derivative i*omega*X, as
    computed before the products ran on the real omega*X."""
    x, xdot = motion.amplitudes.data, 1j * time_derivative(motion).data
    b = x.shape[1] - 1
    return motion.params.mass * (multiply_reference(x, xdot)[:, b]
                                 - multiply_reference(xdot, x)[:, b])


def commutator_multiply_reference(motion):
    """Diagonal of x*p - p*x as band 0 of two full products on the real
    omega*X, as computed before only the diagonal was summed."""
    x, wx = motion.amplitudes.data, time_derivative(motion).data
    b = x.shape[1] - 1
    return 1j * (motion.params.mass * (multiply_reference(x, wx)[:, b]
                                       - multiply_reference(wx, x)[:, b]))


def time_derivative_reference(motion):
    """omega(n, m)*X(n, m) one band at a time, as computed before the
    frequencies of all bands were gathered at once."""
    x = motion.amplitudes
    pot = motion.frequencies.potential
    n_rows = x.n_max + 1
    out = np.zeros((n_rows, 2 * x.band_max + 1))
    for alpha in range(-x.band_max, x.band_max + 1):
        col = np.arange(n_rows) - alpha
        keep = (col >= 0) & (col <= motion.frequencies.n_max)
        omega = np.zeros(n_rows)
        omega[keep] = pot[np.arange(n_rows)[keep]] - pot[col[keep]]
        out[:, x.band_max + alpha] = omega * np.where(keep, x.band(alpha), 0.0)
    return out


def random_motion(seed, n_max, band_max, extra):
    """A motion of random banded amplitudes (top-edge mirrors nonzero) on a
    random grid `extra` levels taller than the amplitude rows."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_max + 1, 2 * band_max + 1))
    grid = FrequencyGrid(rng.normal(size=n_max + 1 + extra))
    params = OscillatorParams(mass=rng.uniform(0.5, 2.0))
    return MotionRepresentation(BandAmplitudeArray(data), grid, params)


def residual_reference(motion):
    """The sum-rule residual entry by entry through `get`, with the sum of
    the absolute values of each row's terms."""
    x = motion.amplitudes
    pot = motion.frequencies.potential
    p = motion.params
    res = np.full(x.n_max + 1, -p.h)
    size = np.full(x.n_max + 1, p.h)
    for n in range(x.n_max + 1):
        for alpha in range(1, x.band_max + 1):
            up, dn = n + alpha, n - alpha
            if up <= motion.frequencies.n_max:
                term = 4.0 * math.pi * p.mass * abs(x.get(up, n)) ** 2 * (pot[up] - pot[n])
                res[n] += term
                size[n] += abs(term)
            if dn >= 0:
                term = 4.0 * math.pi * p.mass * abs(x.get(n, dn)) ** 2 * (pot[n] - pot[dn])
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
    def test_diagonal_is_zero(self):
        grid = FrequencyGrid(np.array([0.3, 1.7, 2.9]))
        for n in range(3):
            assert omega(grid, n, n) == 0.0

    def test_antisymmetry(self):
        grid = FrequencyGrid(np.array([0.1, 0.9, 2.2, 3.8]))
        assert omega(grid, 3, 1) == -omega(grid, 1, 3)

    def test_rejects_nonfinite_levels(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0, float("nan")]))

    @given(st.integers(0, 2**31 - 1))
    def test_ritz_combination_exact(self, seed):
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(dyadic_potential(rng, 12))
        for n in range(11, 3, -1):
            for a in range(1, 4):
                for b in range(1, 4):
                    if n - a - b < 0:
                        continue
                    lhs = omega(grid, n, n - a) + omega(grid, n - a, n - a - b)
                    assert lhs == omega(grid, n, n - a - b)

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
        m = sho_motion(10)
        z = series_product(m.amplitudes, m.amplitudes)
        assert z.get(2, 0) == pytest.approx(SQ2 / 2.0, rel=1e-14)

    def test_sho_diagonal_of_square(self):
        m = sho_motion(12)
        z = series_product(m.amplitudes, m.amplitudes)
        n = np.arange(10)
        expect = 0.5 * (2 * n + 1)  # beta^2 / 4 * (2n + 1), beta^2 = 2
        assert np.allclose(z.band(0)[:10], expect, rtol=1e-14)
        dense = dense_of(m.amplitudes) @ dense_of(m.amplitudes)
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
    def test_diagonal_entries_vanish(self):
        m = sho_motion(8)
        d = time_derivative(m)
        assert np.max(np.abs(d.band(0))) == 0.0

    def test_sho_adjacent_magnitude(self):
        m = sho_motion(8)
        d = time_derivative(m)
        assert abs(d.get(1, 0)) == pytest.approx(SQ2 / 2.0, rel=1e-14)
        # omega X is antisymmetric: the real form of i omega X being Hermitian
        assert d.get(0, 1) == -d.get(1, 0)

    @given(st.integers(0, 2**31 - 1))
    def test_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        n_max, bx, by = 10, 2, 2
        params = OscillatorParams()
        grid = FrequencyGrid(dyadic_potential(rng, n_max + bx + by + 2))
        x = random_symmetric_band(rng, n_max, bx)
        y = random_symmetric_band(rng, n_max, by)
        # omega (XY) = (omega X) Y + X (omega Y), the real factor of the rule
        lhs = dense_of(time_derivative(MotionRepresentation(series_product(x, y), grid, params)))
        rhs = (
            dense_of(series_product(time_derivative(MotionRepresentation(x, grid, params)), y))
            + dense_of(series_product(x, time_derivative(MotionRepresentation(y, grid, params))))
        )
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_velocity_commutator_antihermitian(self, seed):
        rng = np.random.default_rng(seed)
        params = OscillatorParams()
        grid = FrequencyGrid(dyadic_potential(rng, 16))
        x = random_symmetric_band(rng, 10, 2)
        # [x, xdot] = i [x, omega X] is anti-Hermitian when the real
        # commutator of x with omega X is symmetric
        wx = time_derivative(MotionRepresentation(x, grid, params))
        comm = dense_of(series_product(x, wx)) - dense_of(series_product(wx, x))
        assert np.max(np.abs(comm - comm.T)) <= 1e-12 * max(1.0, np.max(np.abs(comm)))


    @settings(max_examples=200)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 30), st.integers(0, 40),
           st.integers(0, 4))
    def test_gather_matches_band_loop(self, seed, n_max, band_max, extra):
        motion = random_motion(seed, n_max, band_max, extra)
        assert_same_bits(time_derivative(motion).data, time_derivative_reference(motion))

    @pytest.mark.parametrize("p", [2, 3])
    def test_gather_matches_band_loop_on_solutions(self, p):
        sol = solve_perturbative(OscillatorParams(mass=2.3, omega0=0.4, force_exponent=p), 4, 30)
        motion = assemble_motion(sol, 0.07)
        assert_same_bits(time_derivative(motion).data, time_derivative_reference(motion))


class TestQuantumCondition:
    def test_sho_residual_tiny(self):
        m = sho_motion(50)
        res = quantum_condition_residual(m)
        assert np.max(np.abs(res[:49])) <= 1e-12

    def test_all_zero_amplitudes(self):
        params = OscillatorParams(lam=0.0)
        m = MotionRepresentation(
            zeros(10, 2), harmonic_grid(1.0, 12), params
        )
        res = quantum_condition_residual(m)
        assert np.allclose(res, -params.h, rtol=0, atol=0)

    def test_oracle_amplitudes_quartic(self, cached_spectrum):
        spec = cached_spectrum(0.1, force_exponent=3)
        res = quantum_condition_residual(motion_from_spectrum(spec))
        assert np.max(np.abs(res[:6])) <= 1e-8

    @given(st.integers(0, 2**31 - 1), st.integers(0, 9), st.integers(0, 11),
           st.integers(0, 3))
    def test_matches_entrywise_reference(self, seed, n_max, band, extra):
        # extra > 0 makes the frequency grid taller than the amplitude rows,
        # so upper levels are read from the mirrored band
        rng = np.random.default_rng(seed)
        # unconstrained data: top-edge mirrors are nonzero
        x = BandAmplitudeArray(rng.normal(size=(n_max + 1, 2 * band + 1)))
        grid = FrequencyGrid(dyadic_potential(rng, n_max + 1 + extra))
        motion = MotionRepresentation(x, grid, OscillatorParams(mass=rng.uniform(0.5, 2.0)))
        expect, size = residual_reference(motion)
        # same operations in the same order per row; numpy's |z| and x*x may
        # round differently from Python's abs and **2 by an ulp
        tol = 8 * np.finfo(float).eps * size
        assert np.all(np.abs(quantum_condition_residual(motion) - expect) <= tol)

    @pytest.mark.parametrize("n,alpha", [(5, 1), (5, 5), (9, 3), (11, 2)])
    def test_injected_violation_moves_two_rows(self, n, alpha):
        x = random_symmetric_band(np.random.default_rng(n + alpha), 11, 5)
        grid = harmonic_grid(1.0, 11)
        base = quantum_condition_residual(MotionRepresentation(x, grid, OscillatorParams()))
        data = np.array(x.data)
        data[n, 5 + alpha] = 1.0 + 2.0 * abs(data[n, 5 + alpha])  # |X(n, n-alpha)| grows
        bumped = MotionRepresentation(BandAmplitudeArray(data), grid, OscillatorParams())
        moved = quantum_condition_residual(bumped) - base
        assert np.flatnonzero(moved).tolist() == [n - alpha, n]
        # X(n, n-alpha) is the down term of row n and the up term of row n-alpha
        assert moved[n - alpha] > 0.0 > moved[n]


@pytest.mark.parametrize("kernel", ["time_derivative"])
def test_strided_views_keep_no_memory(kernel):
    # numpy's stride_tricks keep about 19 bytes from every call; the kernel
    # uses none and keeps nothing
    motion = random_motion(0, 12, 3, 2)
    call = {"time_derivative": lambda: time_derivative(motion)}[kernel]
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
    def test_sho_equals_i_hbar(self):
        m = sho_motion(30)
        comm = commutator_diagonal(m)
        assert np.max(np.abs(comm[:28] - 1j)) <= 1e-12

    def test_zero_amplitudes_give_zero(self):
        m = MotionRepresentation(
            zeros(6, 1),
            harmonic_grid(1.0, 8),
            OscillatorParams(),
        )
        assert np.max(np.abs(commutator_diagonal(m))) == 0.0

    def test_quartic_deviation_scales_as_coupling_cubed(self, sol_quartic):
        devs = []
        for lam in (0.1, 0.05):
            comm = commutator_diagonal(assemble_motion(sol_quartic, lam))
            devs.append(np.max(np.abs(comm[:5] - 1j)))
        ratio = devs[0] / devs[1]
        assert 8.0 * 0.7 <= ratio <= 8.0 * 1.3

    def test_cubic_deviation_scales_as_coupling_fourth(self, sol_cubic):
        # odd-order corrections vanish for the cubic force, so the residual
        # after a second-order solve starts at the fourth power
        devs = []
        for lam in (0.1, 0.05):
            comm = commutator_diagonal(assemble_motion(sol_cubic, lam))
            devs.append(np.max(np.abs(comm[:5] - 1j)))
        ratio = devs[0] / devs[1]
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    @pytest.mark.parametrize("n_max", [5, 12, 60, 400])
    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("units", [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7), (1.0, 0.3, 1.0)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_real_products_match_complex_reference(self, p, units, lam, n_max):
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
        motion = assemble_motion(solve_perturbative(params, 2, n_max), lam)
        got, ref = commutator_diagonal(motion), commutator_complex_reference(motion)
        assert_same_bits(got.imag, ref.imag)
        assert not np.any(got.real) and not np.any(ref.real)

    @settings(max_examples=200)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 30), st.integers(0, 40), st.integers(0, 4))
    def test_diagonal_sum_matches_full_products(self, seed, n_max, band_max, extra):
        motion = random_motion(seed, n_max, band_max, extra)
        assert_same_bits(commutator_diagonal(motion), commutator_multiply_reference(motion))

    @pytest.mark.parametrize("n_max", [5, 12, 400])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("order", [0, 2, 6])
    @pytest.mark.parametrize("p", [2, 3])
    def test_diagonal_sum_matches_full_products_on_solutions(self, p, order, lam, n_max):
        params = OscillatorParams(mass=2.3, omega0=0.4, hbar=0.7, force_exponent=p)
        motion = assemble_motion(solve_perturbative(params, order, max(n_max, order + 3)), lam)
        assert_same_bits(commutator_diagonal(motion), commutator_multiply_reference(motion))

    def test_sum_rule_chain(self, sol_cubic):
        # the diagonal commutator equals i*hbar + i/(2 pi) * sum-rule residual
        m = assemble_motion(sol_cubic, 0.1)
        comm = commutator_diagonal(m)
        res = quantum_condition_residual(m)
        interior = slice(0, 12)
        predicted = 1j + 1j * res[interior] / (2.0 * math.pi)
        assert np.max(np.abs(comm[interior] - predicted)) <= 1e-12


class TestMotionRepresentation:
    def test_requires_frequency_coverage(self):
        with pytest.raises(DimensionMismatchError):
            MotionRepresentation(
                zeros(10, 1),
                harmonic_grid(1.0, 5),
                OscillatorParams(),
            )
