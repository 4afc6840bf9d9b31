import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ampmech import (
    BandAmplitudeArray,
    DimensionMismatchError,
    FrequencyGrid,
    LevelSpectrum,
    MotionRepresentation,
    NotAnEmissionError,
    OscillatorParams,
    PhysicalConstants,
    commutator_diagonal,
    emission_power,
    frequency_grid_from_levels,
    motion_from_spectrum,
    multiply,
    quantum_condition_residual,
    time_derivative,
)
from ampmech.perturb import assemble_motion, sho_solve, solve_perturbative

from conftest import assert_same_bits, dyadic_potential, random_symmetric_band

SQ2 = math.sqrt(2.0)


def sho_motion(n_max, params=None):
    p = params or OscillatorParams(lam=0.0)
    return assemble_motion(sho_solve(p, n_max), 0.0)


def random_values(rng, shape, hermitian):
    values = rng.normal(size=shape)
    return values + 1j * rng.normal(size=shape) if hermitian else values


def commutator_complex_reference(motion):
    """Diagonal of x*p - p*x from the complex derivative, as computed before
    the products ran on the real omega*X."""
    xdot = time_derivative(motion)
    x_xdot = multiply(motion.amplitudes, xdot)
    xdot_x = multiply(xdot, motion.amplitudes)
    return motion.params.mass * (x_xdot.band(0) - xdot_x.band(0))


def commutator_multiply_reference(motion):
    """Diagonal of x*p - p*x as band 0 of two full `multiply` products on the
    real omega*X, as computed before only the diagonal was summed."""
    x = motion.amplitudes
    wx = BandAmplitudeArray(time_derivative(motion).data.imag, edge_touched=x.edge_touched)
    return 1j * (motion.params.mass * (multiply(x, wx).band(0) - multiply(wx, x).band(0)))


def time_derivative_reference(motion):
    """i*omega(n, m)*X(n, m) one band at a time, as computed before the
    frequencies of all bands were gathered at once."""
    x = motion.amplitudes
    pot = motion.frequencies.potential
    n_rows = x.n_max + 1
    out = np.zeros((n_rows, 2 * x.band_max + 1), dtype=np.complex128)
    for alpha in range(-x.band_max, x.band_max + 1):
        col = np.arange(n_rows) - alpha
        keep = (col >= 0) & (col <= motion.frequencies.n_max)
        omega = np.zeros(n_rows)
        omega[keep] = pot[np.arange(n_rows)[keep]] - pot[col[keep]]
        out[:, x.band_max + alpha] = 1j * omega * np.where(keep, x.band(alpha), 0.0)
    return out


def random_motion(seed, n_max, band_max, extra, hermitian=False):
    """A motion of random banded amplitudes (top-edge mirrors nonzero) on a
    random grid `extra` levels taller than the amplitude rows."""
    rng = np.random.default_rng(seed)
    data = random_values(rng, (n_max + 1, 2 * band_max + 1), hermitian)
    grid = FrequencyGrid(rng.normal(size=n_max + 1 + extra))
    params = OscillatorParams(mass=rng.uniform(0.5, 2.0))
    return MotionRepresentation(BandAmplitudeArray(data, hermitian), grid, params)


def multiply_reference(x, y):
    """The band data of the two-index product, one (a, b) band pair at a time."""
    n_rows = x.n_max + 1
    bz = x.band_max + y.band_max
    hermitian = x.hermitian or y.hermitian
    out = np.zeros((n_rows, 2 * bz + 1), dtype=np.complex128 if hermitian else np.float64)
    xd = x.data.astype(out.dtype)
    yd = y.data.astype(out.dtype)
    for a in range(-x.band_max, x.band_max + 1):
        lo = max(0, a)
        hi = min(n_rows - 1, n_rows - 1 + a)
        if lo > hi:
            continue
        xa = xd[lo : hi + 1, x.band_max + a]
        for b in range(-y.band_max, y.band_max + 1):
            out[lo : hi + 1, bz + a + b] += xa * yd[lo - a : hi + 1 - a, y.band_max + b]
    return out


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

    def test_constants_positive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(e=0.0)


class TestFrequencyGrid:
    def test_equally_spaced_levels(self):
        levels = LevelSpectrum((np.arange(8) + 0.5) * 1.0)
        grid = frequency_grid_from_levels(levels, hbar=1.0)
        assert grid.omega(5, 3) == pytest.approx(2.0, abs=0)

    def test_diagonal_is_zero(self):
        grid = FrequencyGrid(np.array([0.3, 1.7, 2.9]))
        for n in range(3):
            assert grid.omega(n, n) == 0.0

    def test_antisymmetry(self):
        grid = FrequencyGrid(np.array([0.1, 0.9, 2.2, 3.8]))
        assert grid.omega(3, 1) == -grid.omega(1, 3)

    def test_rejects_nonfinite_levels(self):
        with pytest.raises(ValueError):
            LevelSpectrum(np.array([1.0, float("nan")]))

    def test_rejects_bad_hbar(self):
        with pytest.raises(ValueError):
            frequency_grid_from_levels(LevelSpectrum(np.ones(3)), hbar=0.0)

    @given(st.integers(0, 2**31 - 1))
    def test_ritz_combination_exact(self, seed):
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(dyadic_potential(rng, 12))
        for n in range(11, 3, -1):
            for a in range(1, 4):
                for b in range(1, 4):
                    if n - a - b < 0:
                        continue
                    lhs = grid.omega(n, n - a) + grid.omega(n - a, n - a - b)
                    assert lhs == grid.omega(n, n - a - b)

    def test_oracle_levels_soften_fundamental(self, cached_spectrum):
        # cubic anharmonicity lowers omega(1, 0) below omega0
        spec = cached_spectrum(0.05)
        grid = frequency_grid_from_levels(
            LevelSpectrum(spec.eigenvalues), hbar=1.0
        )
        shift = -5.0 * 2.0 / 12.0 * 0.05**2  # second-order softening at n = 1
        assert grid.omega(1, 0) < 1.0
        assert grid.omega(1, 0) == pytest.approx(1.0 + shift, abs=5e-5)


class TestBandAmplitudeArray:
    def test_floor_entries_zeroed(self):
        data = np.ones((3, 5))
        arr = BandAmplitudeArray(data)
        assert arr.get(0, -1) == 0.0
        assert arr.get(1, -1) == 0.0
        assert arr.band(2)[0] == 0.0 and arr.band(2)[1] == 0.0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 7), st.integers(0, 9),
           st.sampled_from((np.float64, np.float32, np.int64, np.complex128)),
           st.booleans(), st.booleans())
    def test_single_copy_matches_former_constructor(self, seed, rows, bmax, dtype,
                                                    hermitian, fortran):
        # the former __post_init__: copy, cast, then zero the floor band by band
        data = np.random.default_rng(seed).normal(size=(rows, 2 * bmax + 1, 2)) * 4.0
        data = (data[..., 0] + 1j * data[..., 1] if dtype == np.complex128
                else data[..., 0]).astype(dtype)
        if fortran:
            data = np.asfortranarray(data)
        if dtype == np.complex128 and not hermitian:
            with pytest.raises(ValueError):
                BandAmplitudeArray(data)
            return
        ref = np.array(data, copy=True).astype(np.complex128 if hermitian else np.float64)
        for alpha in range(1, bmax + 1):
            ref[:alpha, bmax + alpha] = 0.0
        arr = BandAmplitudeArray(data, hermitian=hermitian)
        assert_same_bits(arr.data, ref)
        assert not arr.data.flags.writeable and not np.shares_memory(arr.data, data)

    def test_mode_controls_dtype(self):
        arr = BandAmplitudeArray(np.ones((2, 3)), hermitian=True)
        assert arr.data.dtype == np.complex128
        with pytest.raises(ValueError):
            BandAmplitudeArray(np.ones((2, 3)) * 1j, hermitian=False)

    def test_get_uses_mirror_above_ceiling(self):
        arr = random_symmetric_band(np.random.default_rng(0), 6, 2)
        assert arr.get(7, 6) == arr.get(6, 7)

    def test_dense_roundtrip(self):
        # band_max below, equal to and above n_max; entrywise against get and
        # back to the same bits
        cases = [(9, 3), (7, 0), (7, 7), (4, 6), (0, 0)]
        for hermitian in (False, True):
            for n_max, band_max in cases:
                rng = np.random.default_rng(17 + n_max + band_max)
                values = random_values(rng, (n_max + 1, n_max + 1), hermitian)
                dense = values + values.conj().T
                arr = BandAmplitudeArray.from_dense(
                    dense, band_max=band_max, hermitian=hermitian
                )
                out = arr.to_dense()
                for n in range(n_max + 1):
                    for m in range(n_max + 1):
                        expect = dense[n, m] if abs(n - m) <= band_max else 0.0
                        assert out[n, m] == expect == arr.get(n, m)
                back = BandAmplitudeArray.from_dense(
                    out, band_max=band_max, hermitian=hermitian
                )
                assert back.data.tobytes() == arr.data.tobytes()
                strided = BandAmplitudeArray.from_dense(
                    np.asfortranarray(dense), band_max=band_max, hermitian=hermitian
                )
                assert strided.data.tobytes() == arr.data.tobytes()

    def test_symmetry_defect_zero_for_symmetric(self):
        arr = random_symmetric_band(np.random.default_rng(5), 8, 2)
        assert arr.symmetry_defect() == 0.0


class TestMultiply:
    def test_identity_law(self):
        rng = np.random.default_rng(11)
        y = random_symmetric_band(rng, 10, 3)
        ident = BandAmplitudeArray.identity(10)
        z = multiply(ident, y)
        assert np.allclose(z.to_dense(), y.to_dense(), atol=0, rtol=0)

    def test_sho_two_step_amplitude(self):
        # single surviving path 2 -> 1 -> 0 of the product law
        m = sho_motion(10)
        z = multiply(m.amplitudes, m.amplitudes)
        assert z.get(2, 0) == pytest.approx(SQ2 / 2.0, rel=1e-14)

    def test_sho_diagonal_of_square(self):
        m = sho_motion(12)
        z = multiply(m.amplitudes, m.amplitudes)
        n = np.arange(10)
        expect = 0.5 * (2 * n + 1)  # beta^2 / 4 * (2n + 1), beta^2 = 2
        assert np.allclose(z.band(0)[:10], expect, rtol=1e-14)
        dense = m.amplitudes.to_dense() @ m.amplitudes.to_dense()
        assert np.allclose(np.diag(dense)[:10], expect, rtol=1e-14)

    def test_nmax_mismatch_raises(self):
        a = BandAmplitudeArray.zeros(5, 1)
        b = BandAmplitudeArray.zeros(6, 1)
        with pytest.raises(DimensionMismatchError):
            multiply(a, b)

    def test_trust_margin_flags_edge_rows(self):
        rng = np.random.default_rng(2)
        x = random_symmetric_band(rng, 10, 2)
        z = multiply(x, x, trust_margin=1)
        assert not z.edge_touched[:7].any()
        assert z.edge_touched[8:].all()
        # flags propagate through chained products
        z2 = multiply(z, x)
        assert z2.edge_touched[8:].all()

    @given(st.integers(0, 2**31 - 1), st.integers(0, 24), st.integers(0, 12),
           st.integers(0, 12), st.integers(0, 4))
    def test_edge_flags_match_row_loop(self, seed, n_max, bx, by, margin):
        rng = np.random.default_rng(seed)
        x, y = (
            BandAmplitudeArray(
                np.zeros((n_max + 1, 2 * b + 1)),
                edge_touched=rng.random(n_max + 1) < rng.random() ** 3,  # often sparse
            )
            for b in (bx, by)
        )
        expect = [
            n + bx > n_max - margin
            or x.edge_touched[n]
            or y.edge_touched[max(0, n - bx) : min(n_max, n + bx) + 1].any()
            for n in range(n_max + 1)
        ]
        assert multiply(x, y, trust_margin=margin).edge_touched.tolist() == expect

    @settings(max_examples=300)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 10), st.integers(0, 12),
           st.integers(0, 12), st.booleans(), st.booleans())
    def test_matches_band_pair_loop(self, seed, n_max, bx, by, hx, hy):
        # widths up to 12 over as few as one row, so some bands reach no row
        rng = np.random.default_rng(seed)
        x, y = (
            BandAmplitudeArray(random_values(rng, (n_max + 1, 2 * b + 1), h), hermitian=h)
            for b, h in ((bx, hx), (by, hy))
        )
        assert_same_bits(multiply(x, y).data, multiply_reference(x, y))

    @given(st.integers(0, 2**31 - 1), st.integers(4, 12), st.integers(1, 3))
    def test_matches_dense_product(self, seed, n_max, band):
        rng = np.random.default_rng(seed)
        x = random_symmetric_band(rng, n_max, band)
        y = random_symmetric_band(rng, n_max, min(band + 1, n_max))
        z = multiply(x, y)
        dense = x.to_dense() @ y.to_dense()
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(z.to_dense() - dense)) <= 1e-14 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        x = random_symmetric_band(rng, 11, 2)
        y = random_symmetric_band(rng, 11, 3)
        z = random_symmetric_band(rng, 11, 2)
        left = multiply(multiply(x, y), z).to_dense()
        right = multiply(x, multiply(y, z)).to_dense()
        scale = max(1.0, np.max(np.abs(left)))
        assert np.max(np.abs(left - right)) <= 1e-14 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_transpose_reverses_order(self, seed):
        rng = np.random.default_rng(seed)
        x = random_symmetric_band(rng, 10, 2)
        y = random_symmetric_band(rng, 10, 3)
        lhs = multiply(x, y).to_dense().T
        rhs = multiply(y, x).to_dense()
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
        assert d.hermitian

    def test_hermitian_convention(self):
        m = sho_motion(8)
        d = time_derivative(m)
        assert d.get(1, 0) == np.conj(d.get(0, 1))
        assert d.symmetry_defect() <= 1e-15

    @given(st.integers(0, 2**31 - 1))
    def test_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        n_max, bx, by = 10, 2, 2
        params = OscillatorParams()
        grid = FrequencyGrid(dyadic_potential(rng, n_max + bx + by + 2))
        x = random_symmetric_band(rng, n_max, bx)
        y = random_symmetric_band(rng, n_max, by)
        lhs = time_derivative(
            MotionRepresentation(multiply(x, y), grid, params)
        ).to_dense()
        rhs = (
            multiply(
                time_derivative(MotionRepresentation(x, grid, params)), y
            ).to_dense()
            + multiply(
                x, time_derivative(MotionRepresentation(y, grid, params))
            ).to_dense()
        )
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @given(st.integers(0, 2**31 - 1))
    def test_velocity_commutator_antihermitian(self, seed):
        rng = np.random.default_rng(seed)
        params = OscillatorParams()
        grid = FrequencyGrid(dyadic_potential(rng, 16))
        x = random_symmetric_band(rng, 10, 2)
        xdot = time_derivative(MotionRepresentation(x, grid, params))
        comm = multiply(x, xdot).to_dense() - multiply(xdot, x).to_dense()
        assert np.max(np.abs(comm + comm.conj().T)) <= 1e-12 * max(
            1.0, np.max(np.abs(comm))
        )


    @settings(max_examples=200)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 30), st.integers(0, 40),
           st.integers(0, 4), st.booleans())
    def test_gather_matches_band_loop(self, seed, n_max, band_max, extra, hermitian):
        motion = random_motion(seed, n_max, band_max, extra, hermitian)
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
            BandAmplitudeArray.zeros(10, 2), FrequencyGrid.harmonic(1.0, 12), params
        )
        res = quantum_condition_residual(m)
        assert np.allclose(res, -params.h, rtol=0, atol=0)

    def test_oracle_amplitudes_quartic(self, cached_spectrum):
        spec = cached_spectrum(0.1, force_exponent=3)
        res = quantum_condition_residual(motion_from_spectrum(spec))
        assert np.max(np.abs(res[:6])) <= 1e-8

    @given(st.integers(0, 2**31 - 1), st.booleans(), st.integers(0, 9),
           st.integers(0, 11), st.integers(0, 3))
    def test_matches_entrywise_reference(self, seed, hermitian, n_max, band, extra):
        # extra > 0 makes the frequency grid taller than the amplitude rows,
        # so upper levels are read from the mirrored band
        rng = np.random.default_rng(seed)
        # unconstrained data: top-edge mirrors are nonzero
        data = random_values(rng, (n_max + 1, 2 * band + 1), hermitian)
        x = BandAmplitudeArray(data, hermitian)
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
        grid = FrequencyGrid.harmonic(1.0, 11)
        base = quantum_condition_residual(MotionRepresentation(x, grid, OscillatorParams()))
        data = np.array(x.data)
        data[n, 5 + alpha] = 1.0 + 2.0 * abs(data[n, 5 + alpha])  # |X(n, n-alpha)| grows
        bumped = MotionRepresentation(BandAmplitudeArray(data), grid, OscillatorParams())
        moved = quantum_condition_residual(bumped) - base
        assert np.flatnonzero(moved).tolist() == [n - alpha, n]
        # X(n, n-alpha) is the down term of row n and the up term of row n-alpha
        assert moved[n - alpha] > 0.0 > moved[n]


@pytest.mark.parametrize("kernel", ["from_dense", "time_derivative"])
def test_strided_views_keep_no_memory(kernel):
    # numpy's stride_tricks keep about 19 bytes from every call; the kernels
    # read their strided views through plain ndarray views instead
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(9, 9))
    motion = random_motion(0, 12, 3, 2)
    call = {"from_dense": lambda: BandAmplitudeArray.from_dense(dense, 3),
            "time_derivative": lambda: time_derivative(motion)}[kernel]
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
            BandAmplitudeArray.zeros(6, 1),
            FrequencyGrid.harmonic(1.0, 8),
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


class TestEmissionPower:
    def test_zero_amplitude_zero_rate(self):
        m = sho_motion(6)
        # band 2 amplitude of the pure oscillator vanishes
        r = emission_power(m, 4, 2, PhysicalConstants())
        assert r.rate == 0.0 and r.power == 0.0

    def test_quadratic_in_amplitude(self):
        m1 = sho_motion(6)
        doubled = BandAmplitudeArray(2.0 * np.asarray(m1.amplitudes.data))
        m2 = MotionRepresentation(doubled, m1.frequencies, m1.params)
        c = PhysicalConstants()
        assert emission_power(m2, 1, 1, c).rate == pytest.approx(
            4.0 * emission_power(m1, 1, 1, c).rate, rel=1e-14
        )

    def test_rejects_non_emission(self):
        m = sho_motion(6)
        with pytest.raises(NotAnEmissionError):
            emission_power(m, 1, -1, PhysicalConstants())
        with pytest.raises(NotAnEmissionError):
            emission_power(m, 1, 0, PhysicalConstants())

    def test_si_magnitude_against_independent_evaluation(self):
        mp = pytest.importorskip("mpmath")
        mass = 9.1093837015e-31
        omega0 = 1.0e15
        hbar = 1.054571817e-34
        params = OscillatorParams(mass=mass, omega0=omega0, lam=0.0, hbar=hbar)
        m = sho_motion(4, params)
        consts = PhysicalConstants()
        got = emission_power(m, 1, 1, consts)

        mp.mp.dps = 50
        amp2 = mp.mpf(hbar) / (2 * mp.mpf(mass) * mp.mpf(omega0))
        rate = (
            mp.mpf(consts.e) ** 2
            / (3 * mp.pi * mp.mpf(consts.eps0) * mp.mpf(hbar) * mp.mpf(consts.c) ** 3)
            * mp.mpf(omega0) ** 3
            * amp2
        )
        assert got.rate == pytest.approx(float(rate), rel=1e-12)
        assert got.power == pytest.approx(float(rate * hbar * omega0), rel=1e-12)


class TestMotionRepresentation:
    def test_requires_frequency_coverage(self):
        with pytest.raises(DimensionMismatchError):
            MotionRepresentation(
                BandAmplitudeArray.zeros(10, 1),
                FrequencyGrid.harmonic(1.0, 5),
                OscillatorParams(),
            )
