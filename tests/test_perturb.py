import contextlib
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ampmech import (
    DimensionMismatchError,
    EnergyConservationError,
    NoClosedFormError,
    OscillatorParams,
    StructureViolationError,
)
from ampmech import checks, classical, core, perturb
from ampmech.core import _nonzero, _omega_series, _series_mul
from ampmech.oracle import position_matrix
from ampmech.perturb import (
    CoefficientSet,
    PerturbSolution,
    closed_form_amplitude,
    closed_form_frequency,
    energy_matrix,
    extract_structure_constants,
    solve_perturbative,
    _x_series,
)

from conftest import (assert_same_bits, build_recursions, check_bits, qc_residual_reference,
                      quantum_condition_residual, summed_motion, symmetry_defect,
                      xp_full_bands, xp_rebuild_reference)

B = math.sqrt(2.0)  # beta in default units
P2 = OscillatorParams()
N_CHECK = 21  # rows 0..20
EPS = float(np.finfo(float).eps)


def closed_form_amplitude_reference(k, n, alpha, params):
    """The closed forms one level at a time in Python floats, as tabulated
    before they took arrays of levels."""
    alpha = abs(alpha)
    if n < alpha or n < 0:
        return 0.0
    b, w0 = params.beta, params.omega0
    root = math.sqrt(math.prod(range(n - alpha + 1, n + 1)))
    table = {
        (0, 0): lambda: -(b**2) / (4.0 * w0**2) * (2.0 * n + 1.0),
        (0, 1): lambda: b * math.sqrt(n),
        (0, 2): lambda: b**2 / (6.0 * w0**2) * root,
        (0, 3): lambda: b**3 / (48.0 * w0**4) * root,
        (1, 0): lambda: 0.0,
        (1, 1): lambda: 0.0,
        (1, 2): lambda: 0.0,
        (2, 0): lambda: -(b**4) / (72.0 * w0**6) * (30.0 * n**2 + 30.0 * n + 11.0),
        (2, 1): lambda: 11.0 * b**3 / (72.0 * w0**4) * n * math.sqrt(n),
        (2, 2): lambda: 3.0 * b**4 / (32.0 * w0**6) * (2.0 * n - 1.0) * root,
    }
    return table[k, alpha]()


def closed_form_frequency_reference(k, n, alpha, params):
    b, w0 = params.beta, params.omega0
    table = {
        (1, 1): lambda: 0.0,
        (2, 1): lambda: -5.0 * b**2 / (12.0 * w0**3) * n,
        (2, 2): lambda: -5.0 * b**2 / (12.0 * w0**3) * (2.0 * n - 1.0),
    }
    return alpha * params.omega0 if k == 0 else table[k, alpha]()


def random_tables(seed, rows=16, band_max=4, orders=2):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(orders + 1, band_max + 1, rows))
    for a in range(1, band_max + 1):
        amp[:, a, :a] = 0.0
    pot = rng.normal(size=(orders + 1, rows))
    pot[0] = np.arange(rows, dtype=float)
    return CoefficientSet(amp, pot)


def table_amplitude(cs, k, n, m):
    """a^(k)(n, m) with the symmetric convention and ground-state floor."""
    if n < 0 or m < 0:
        return 0.0
    lo, hi = min(n, m), max(n, m)
    alpha = hi - lo
    if alpha > cs.band_max or hi >= cs.rows:
        return 0.0
    return float(cs.amp[k, alpha, hi])


def table_omega(cs, k, n, m):
    """omega^(k)(n, m) as a difference of two frequency potentials."""
    return float(cs.freq_potential[k, n] - cs.freq_potential[k, m])


def series_mul_reference(a, b, max_power):
    """The two-index series product one (i, j, g, d) term at a time."""
    pa, wa, rows = a.shape
    pb, wb, _ = b.shape
    ba, bb = (wa - 1) // 2, (wb - 1) // 2
    bc = ba + bb
    out = np.zeros((max_power + 1, 2 * bc + 1, rows), dtype=np.result_type(a, b))
    for i in range(min(pa, max_power + 1)):
        for j in range(min(pb, max_power + 1 - i)):
            s = i + j
            for g in range(-ba, ba + 1):
                lo, hi = max(0, g), min(rows - 1, rows - 1 + g)
                if lo > hi:
                    continue
                xa = a[i, ba + g, lo : hi + 1]
                if not np.any(xa):
                    continue
                for d in range(-bb, bb + 1):
                    out[s, bc + g + d, lo : hi + 1] += (
                        xa * b[j, bb + d, lo - g : hi + 1 - g]
                    )
    return out


def omega_series_reference(pot, band_max):
    """omega^(k)(n, n-g) gathered through (row, column) index arrays."""
    orders, rows = pot.shape
    out = np.zeros((orders, 2 * band_max + 1, rows))
    idx = np.arange(rows)
    for g in range(-band_max, band_max + 1):
        cols = idx - g
        keep = (cols >= 0) & (cols < rows)
        out[:, band_max + g, keep] = pot[:, idx[keep]] - pot[:, cols[keep]]
    return out


def random_series(rng, orders, band_max, rows):
    """Random banded lam-series in which some (order, band) slices are zero,
    or zero on every row their band reaches and nonzero outside it."""
    shape = (orders, 2 * band_max + 1, rows)
    s = rng.normal(size=shape)
    for i in range(orders):
        for g in range(-band_max, band_max + 1):
            u = rng.random()
            if u < 0.3:
                s[i, band_max + g] = 0.0
            elif u < 0.45:
                s[i, band_max + g, max(0, g) : rows + min(0, g)] = 0.0
    return s


class TestSeriesKernels:
    """The sliced series kernels reproduce the per-term loops bit for bit."""

    # the inf put into b on purpose gives nan from inf * 0 in the term loop
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=300)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 4), st.integers(0, 4),
        st.integers(1, 12), st.integers(0, 8), st.booleans(),
    )
    def test_series_mul_matches_term_loop(
        self, seed, pa, pb, ba, bb, rows, max_power, nonfinite
    ):
        rng = np.random.default_rng(seed)
        a = random_series(rng, pa, ba, rows)
        b = random_series(rng, pb, bb, rows)
        if nonfinite:
            # 0 * inf is nan, so a skipped all-zero slice must stay skipped
            b[rng.random(b.shape) < 0.1] = np.inf
        assert_same_bits(_series_mul(a, b, max_power), series_mul_reference(a, b, max_power))

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 4), st.integers(0, 4),
        st.integers(1, 12), st.integers(0, 8), st.data(),
        st.booleans(), st.sampled_from((0, 1)),
    )
    def test_bounded_series_mul_is_slice_of_full(
        self, seed, pa, pb, ba, bb, rows, max_power, data, nonfinite, step
    ):
        min_power = data.draw(st.integers(0, max_power))
        rng = np.random.default_rng(seed)
        a = random_series(rng, pa, ba, rows)
        b = random_series(rng, pb, bb, rows)
        if nonfinite:
            b[rng.random(b.shape) < 0.1] = np.inf
        with np.errstate(invalid="ignore"):
            full = _series_mul(a, b, max_power, step)
            bounded = _series_mul(a, b, max_power, step, min_power=min_power)
        assert_same_bits(bounded, full[min_power:])

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 4), st.integers(0, 4),
        st.integers(1, 12), st.integers(0, 8), st.data(),
        st.sampled_from(("a", "b", None)), st.sampled_from((0, 1)), st.sampled_from((None, 2)),
    )
    def test_windowed_series_mul_is_band_slice_of_full(
        self, seed, pa, pb, ba, bb, rows, max_power, data, nonfinite, step, lead
    ):
        min_power = data.draw(st.integers(0, max_power))
        bc = ba + bb
        lo = data.draw(st.integers(-bc, bc))
        hi = data.draw(st.integers(lo, bc))
        rng = np.random.default_rng(seed)

        def series(orders, band_max):
            if lead is None:
                return random_series(rng, orders, band_max, rows)
            return np.stack([random_series(rng, orders, band_max, rows) for _ in range(lead)])

        a, b = series(pa, ba), series(pb, bb)
        factor = {"a": a, "b": b}.get(nonfinite)
        if factor is not None:
            factor[rng.random(factor.shape) < 0.1] = np.inf
        # a cut to the bands that reach lo..hi, held from a_lo up
        a_lo, a_hi = max(lo - bb, -ba), min(hi + bb, ba)
        cut = a[..., ba + a_lo : ba + a_hi + 1, :]
        with np.errstate(invalid="ignore"):
            full = _series_mul(a, b, max_power, step, min_power=min_power)
            windowed = _series_mul(a, b, max_power, step, min_power=min_power, bands=(lo, hi))
            from_cut = _series_mul(cut, b, max_power, step, min_power=min_power,
                                   bands=(lo, hi), a_lo=a_lo)
        assert_same_bits(windowed, full[..., bc + lo : bc + hi + 1, :])
        assert_same_bits(from_cut, windowed)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 12), st.integers(0, 14))
    def test_omega_series_matches_gather(self, seed, orders, rows, band_max):
        pot = np.random.default_rng(seed).normal(size=(orders, rows))
        assert_same_bits(_omega_series(pot, band_max), omega_series_reference(pot, band_max))


class TestRecursionGenerator:
    """The generated residual functionals must agree with the hand-written
    low-band balance equations on arbitrary tables, not just on solutions."""

    @given(st.integers(0, 2**31 - 1))
    def test_adjacent_band_lowest_order(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 1, 0)(cs)
        for n in range(1, 10):
            om = table_omega(cs, 0, n, n - 1)
            expect = (1.0 - om**2) * table_amplitude(cs, 0, n, n - 1)
            assert res[n] == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_diagonal_band_lowest_order(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 0, 0)(cs)
        for n in range(10):
            expect = table_amplitude(cs, 0, n, n) + 0.25 * (
                table_amplitude(cs, 0, n + 1, n) ** 2 + table_amplitude(cs, 0, n, n - 1) ** 2
            )
            assert res[n] == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_third_band_lowest_order(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 3, 0)(cs)
        for n in range(3, 10):
            om = table_omega(cs, 0, n, n - 3)
            expect = (1.0 - om**2) * table_amplitude(cs, 0, n, n - 3) + 0.5 * (
                table_amplitude(cs, 0, n, n - 1) * table_amplitude(cs, 0, n - 1, n - 3)
                + table_amplitude(cs, 0, n, n - 2) * table_amplitude(cs, 0, n - 2, n - 3)
            )
            assert res[n] == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_adjacent_band_second_order_bracket(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 1, 2)(cs)

        def a(k, n, m):
            return table_amplitude(cs, k, n, m)

        for n in range(1, 9):
            o0, o1, o2 = (table_omega(cs, k, n, n - 1) for k in range(3))
            expect = (
                (1.0 - o0**2) * a(2, n, n - 1)
                - 2.0 * o0 * o1 * a(1, n, n - 1)
                - (o1**2 + 2.0 * o0 * o2) * a(0, n, n - 1)
            )
            expect += (
                a(0, n, n) * a(0, n, n - 1)
                + a(0, n, n - 1) * a(0, n - 1, n - 1)
                + 0.5 * a(0, n, n + 1) * a(0, n + 1, n - 1)
                + 0.5 * a(0, n, n - 2) * a(0, n - 2, n - 1)
            )
            assert res[n] == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_rejects_even_quartic_band(self):
        with pytest.raises(ValueError):
            build_recursions(OscillatorParams(force_exponent=3), 2, 0)

    def test_rejects_deep_order(self):
        with pytest.raises(ValueError):
            build_recursions(P2, 1, -1)


class TestCarriedPowers:
    """The solver carries x^2 across powers of lam and forms only the top
    coefficient of x^p; the per-power rebuild is the reference."""

    @staticmethod
    def assert_same_solution(got, ref):
        assert_same_bits(got.coeffs.amp, ref.coeffs.amp)
        assert_same_bits(got.coeffs.freq_potential, ref.coeffs.freq_potential)
        assert got.solved_orders == ref.solved_orders

    @pytest.mark.parametrize("n_max", [5, 40])
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("p", [2, 3])
    def test_solve_matches_rebuild(self, monkeypatch, p, order, n_max):
        params = OscillatorParams(force_exponent=p)
        got = solve_perturbative(params, order, n_max)
        monkeypatch.setattr(perturb, "_xp_coefficient", xp_rebuild_reference)
        self.assert_same_solution(got, solve_perturbative(params, order, n_max))

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    @pytest.mark.parametrize("p", [2, 3])
    def test_solve_matches_rebuild_beyond_order_cap(self, monkeypatch, p, order):
        params = OscillatorParams(mass=1.3, omega0=0.8, hbar=0.7, force_exponent=p)
        got = solve_perturbative(params, order, order + 3)
        monkeypatch.setattr(perturb, "_xp_coefficient", xp_rebuild_reference)
        self.assert_same_solution(got, solve_perturbative(params, order, order + 3))

    @pytest.mark.parametrize("alpha, order", [(1, 0), (0, 2), (1, 2), (3, 1), (4, 0)])
    def test_recursion_residual_matches_rebuild(
        self, monkeypatch, sol_cubic, alpha, order
    ):
        got = build_recursions(P2, alpha, order)(sol_cubic.coeffs)
        monkeypatch.setattr(perturb, "_xp_coefficient", xp_rebuild_reference)
        assert_same_bits(got, build_recursions(P2, alpha, order)(sol_cubic.coeffs))


def solve_rebuild_reference(params, order, n_max):
    """The solver as it was before it carried x, omega x and the
    frequencies across powers: all rebuilt from the tables at every power,
    and x^2, x^p and the residual formed on every band. Returns the tables,
    and the solved orders."""
    p, omega0 = params.force_exponent, params.omega0
    _, t_max, band_eng, pad = perturb._engine_extent(p, order)
    bands = perturb._band_list(p, band_eng)
    rows = n_max + 1 + pad
    amp = np.zeros((order + 1, band_eng + 1, rows))
    pot = np.zeros((order + 1, rows))
    pot[0] = omega0 * np.arange(rows)
    amp[0, 1, 1:] = params.beta * np.sqrt(np.arange(rows, dtype=float)[1:])
    solved = {1: 0}
    x2 = np.zeros((t_max, 4 * band_eng + 1, rows))
    for t in range(1, t_max + 1):
        x, _ = _x_series(p, amp, t, band_eng)
        x2[t - 1] = _series_mul(x, x, t - 1, min_power=t - 1)[0]
        xp_top = xp_full_bands(p, x, x2, t - 1)
        res_t = perturb._eom_residual_coefficient(
            params, x, _omega_series(pot, band_eng), t, xp_top, range(-band_eng, band_eng + 1))
        if t <= order:
            a0 = amp[0, 1]
            pot_inc = np.zeros(rows)
            pot_inc[1:] = res_t[band_eng + 1, 1:] / (omega0 * a0[1:])
            pot[t] = np.cumsum(pot_inc)
            wx = perturb._rate_series(_omega_series(pot, band_eng), x, range(t + 1))
            u = -np.cumsum(perturb._sum_rule(params, x, wx, t, min_power=t)[0])
            amp[t, 1, 1:] = u[:-1] / (2.0 * math.pi * params.mass * omega0 * a0[1:])
            solved[1] = t
        solved.update(perturb._solve_bands(p, amp, res_t[[band_eng + a for a in bands]], t,
                                           bands, omega0))
    return amp, pot, solved


def omega_size(pot, band_max):
    """|Omega(n)| + |Omega(n-g)| per band, as `checks.recursion` sizes a
    frequency."""
    return 2.0 * np.abs(pot)[:, None, :] - _omega_series(np.abs(pot), band_max)


def eom_terms_two_pass_reference(params, coeffs, t_max, band_max, absolute=False):
    """`_eom_terms` as it was before the residual and its size shared one
    pass: one series pass for each, from the tables alone."""
    p, pot = params.force_exponent, coeffs.freq_potential
    x, _ = _x_series(p, np.abs(coeffs.amp) if absolute else coeffs.amp, t_max, band_max)
    x2 = _series_mul(x, x, max(t_max - 1, 0))
    om = _omega_series(pot, band_max)
    big = omega_size(pot, band_max)
    out = []
    for t in range(t_max + 1):
        res = params.omega0**2 * x[t].copy()
        for i in range(min(om.shape[0], t + 1)):
            for j in range(min(om.shape[0], t + 1 - i)):
                if absolute:
                    res += 2.0 * np.abs(om[i]) * big[j] * x[t - i - j]
                else:
                    res -= om[i] * om[j] * x[t - i - j]
        if t:
            res += xp_full_bands(p, x, x2, t - 1)
        out.append(res)
    return out


def eom_terms_full_band_reference(params, amp, om, t_max, step=1, om_size=None):
    """`_eom_terms` as it was before it took a band window: x^2, x^p and the
    residual on every signed band of om, over (power, band, row)."""
    p, om_right = params.force_exponent, om
    if om_size is not None:
        om, om_right = np.stack([om, 2.0 * np.abs(om)]), np.stack([om, -om_size])
        amp = np.stack([amp, np.abs(amp)])
    band_max = (om.shape[-2] - 1) // 2
    x, _ = _x_series(p, amp, t_max, band_max, step)
    x2 = _series_mul(x, x, max(t_max - 1, 0), step)
    xp = x2 if p == 2 else _series_mul(x2, x, max(t_max - 1, 0), step)
    bc = (xp.shape[-2] - 1) // 2
    out = []
    for t in range(t_max + 1):
        res = params.omega0**2 * x[..., t, :, :]
        for i in range(min(om.shape[-3], t + 1)):
            for j in range(min(om.shape[-3], t + 1 - i)):
                res -= om[..., i, :, :] * om_right[..., j, :, :] * x[..., t - i - j, :, :]
        if t:
            res += xp[..., t - 1, bc - band_max : bc + band_max + 1, :]
        out.append(res)
    return np.stack(out, axis=-3)


ORDERS_UNITS = [(p, order, units) for p in (2, 3) for order in range(7)
                for units in [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7)]]


class TestIncrementalSeries:
    """The solver sets each power of x and of the frequencies once, as its
    coefficients are solved; the rebuild of both at every power is the
    reference."""

    @pytest.mark.parametrize("n_max", ["order+3", 40])
    @pytest.mark.parametrize("p, order, units", ORDERS_UNITS, ids=str)
    def test_solve_matches_rebuild(self, p, order, units, n_max):
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
        n_max = order + 3 if n_max == "order+3" else n_max
        sol = solve_perturbative(params, order, n_max)
        amp, pot, solved = solve_rebuild_reference(params, order, n_max)
        assert_same_bits(sol.coeffs.amp, amp)
        assert_same_bits(sol.coeffs.freq_potential, pot)
        assert sol.solved_orders == solved


class TestWindowedSolve:
    """The solver forms x^2, x^p and the residual only on the bands it
    reads; the solver on every band is the reference."""

    @pytest.mark.parametrize("n_max", [12, 200])
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_solve_matches_full_band(self, p, order, n_max):
        params = OscillatorParams(mass=2.3, omega0=0.4, hbar=0.7, force_exponent=p)
        sol = solve_perturbative(params, order, n_max)
        amp, pot, solved = solve_rebuild_reference(params, order, n_max)
        assert_same_bits(sol.coeffs.amp, amp)
        assert_same_bits(sol.coeffs.freq_potential, pot)
        assert sol.solved_orders == solved


class TestStackedEomTerms:
    """The residual and the summed size of its terms share one series pass,
    stacked on a leading axis, on the bands the caller asks for. `_eom_terms`
    on every band, and two separate passes from the tables, are the
    references."""

    @staticmethod
    def assert_matches_two_passes(params, coeffs, t_max, band_max, windows):
        pot = coeffs.freq_potential
        om, size = _omega_series(pot, band_max), omega_size(pot, band_max)
        full = eom_terms_full_band_reference(params, coeffs.amp, om, t_max, om_size=size)
        signed = eom_terms_two_pass_reference(params, coeffs, t_max, band_max)
        sizes = eom_terms_two_pass_reference(params, coeffs, t_max, band_max, absolute=True)
        assert full.shape[:2] == (2, t_max + 1)
        for t, (res, size_t) in enumerate(zip(signed, sizes)):
            assert_same_bits(full[0, t], res)
            assert_same_bits(full[1, t], size_t)
        for bands in windows:
            stacked = perturb._eom_terms(params, coeffs.amp, om, t_max, bands, om_size=size)
            assert stacked.shape == (2, t_max + 1, len(bands), coeffs.rows)
            for i, g in enumerate(bands):
                assert_same_bits(stacked[:, :, i], full[:, :, band_max + g])

    @classmethod
    def assert_callers_windows_match(cls, sol):
        c, p = sol.coeffs, sol.params.force_exponent
        t_max = perturb._engine_extent(p, sol.order)[1]
        # the windows of `checks.recursion`, of the solver and harmonic
        # balance, and of `build_recursions`
        bands = perturb._band_list(p, c.band_max)
        windows = [sol.public_bands, bands, *(range(a, a + 1) for a in bands)]
        cls.assert_matches_two_passes(sol.params, c, t_max, c.band_max, windows)

    @pytest.mark.parametrize("n_max", ["order+3", 40])
    @pytest.mark.parametrize("p, order, units", ORDERS_UNITS, ids=str)
    def test_solution_matches_two_passes(self, p, order, units, n_max):
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
        sol = solve_perturbative(params, order, order + 3 if n_max == "order+3" else n_max)
        self.assert_callers_windows_match(sol)

    @pytest.mark.parametrize("n_max", [12, 200])
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_high_order_solution_windows(self, p, order, n_max):
        params = OscillatorParams(mass=2.3, omega0=0.4, hbar=0.7, force_exponent=p)
        self.assert_callers_windows_match(solve_perturbative(params, order, n_max))

    @given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(1, 6),
           st.integers(1, 20), st.sampled_from((2, 3)), st.data())
    def test_random_tables_match_two_passes(self, seed, orders, band_max, rows, p, data):
        cs = random_tables(seed, rows=rows, band_max=band_max, orders=orders)
        params = OscillatorParams(mass=1.7, omega0=0.6, force_exponent=p)
        lo = data.draw(st.integers(-band_max, band_max))
        hi = data.draw(st.integers(lo, band_max))
        bands = range(lo, hi + 1, data.draw(st.sampled_from((1, 2))))
        self.assert_matches_two_passes(params, cs, orders + 2, band_max, [bands])

    def test_bands_wider_than_the_table(self):
        # band 3 outgrows two rows: its mirror has no entry, and the residual
        # of band 3 reads it as zero (a ValueError before)
        cs = random_tables(0, rows=2, band_max=3, orders=0)
        res = build_recursions(P2, 3, 0)(cs)
        assert res.shape == (2,) and np.all(np.isfinite(res))

    def test_signed_pass_alone_is_the_residual(self, sol_cubic):
        c = sol_cubic.coeffs
        om = _omega_series(c.freq_potential, c.band_max)
        got = perturb._eom_terms(P2, c.amp, om, 4, range(-c.band_max, c.band_max + 1))
        for res, ref in zip(got, eom_terms_two_pass_reference(P2, c, 4, c.band_max)):
            assert_same_bits(res, ref)


class TestStackedSumRule:
    """The sum rule is band 0 of x (omega x) under the product law, and the
    summed size of its terms comes from the same product, stacked; the
    band-by-band loop over the tables, called once for each, is the
    reference, within the rounding of that size."""

    @staticmethod
    def assert_matches_two_calls(sol):
        residual, size = checks._sum_rule_terms(sol)
        c, params = sol.coeffs, sol.params
        assert residual.shape == size.shape == (sol.order + 1, c.rows)
        for k in range(sol.order + 1):
            ref = qc_residual_reference(params, c.amp, c.freq_potential, k)
            ref_size = qc_residual_reference(params, c.amp, c.freq_potential, k, absolute=True)
            assert np.all(np.abs(residual[k] - ref) <= perturb.ROUNDING_C * EPS * ref_size)
            # the same positive terms, summed in another order: the sizes
            # agree to a relative eps per term (up to 7 measured at order 8)
            assert np.allclose(size[k], ref_size, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n_max", [12, 200])
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_solution_matches_two_calls(self, p, order, n_max):
        self.assert_matches_two_calls(
            solve_perturbative(OscillatorParams(force_exponent=p), order, n_max))

    @given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(1, 6),
           st.integers(1, 20), st.sampled_from((2, 3)), st.integers(0, 3))
    def test_random_tables_match_two_calls(self, seed, orders, band_max, rows, p, order):
        # the sum rule through lam^order, which may pass the tables' orders
        cs = random_tables(seed, rows=rows, band_max=band_max, orders=orders)
        params = OscillatorParams(mass=1.7, omega0=0.6, hbar=0.8, force_exponent=p)
        self.assert_matches_two_calls(PerturbSolution(params, order, rows - 1, cs, {1: orders}))

    def test_bands_wider_than_the_table(self):
        # band 3 outgrows two rows and has no entry
        cs = random_tables(0, rows=2, band_max=3, orders=2)
        params = OscillatorParams(mass=1.7, omega0=0.6, hbar=0.8, force_exponent=3)
        self.assert_matches_two_calls(PerturbSolution(params, 2, 1, cs, {1: 2}))

    @pytest.mark.parametrize("p", [2, 3])
    def test_residual_alone_has_the_stacked_bits(self, p):
        # the solver forms the residual alone, with the bits of the stacked
        # product that the checks read
        sol = solve_perturbative(OscillatorParams(mass=2.3, omega0=0.4, force_exponent=p), 4, 30)
        c = sol.coeffs
        x, _ = _x_series(p, c.amp, 4, c.band_max)
        wx = perturb._rate_series(_omega_series(c.freq_potential, c.band_max), x, range(5))
        assert_same_bits(perturb._sum_rule(sol.params, x, wx, 4), checks._sum_rule_terms(sol)[0])


def parity_series(rng, orders, band_max, rows, parity):
    """A random series whose bands of one parity (index band_max + g) are all
    zero, as in odd x and even x^2 of the quartic force, with all-zero powers."""
    s = random_series(rng, orders, band_max, rows)
    s[:, parity::2] = 0.0
    s[rng.random(orders) < 0.3] = 0.0
    return s


class TestSeriesMulStructure:
    """The product skips the zero bands of one parity and forms stacked
    products in one pass, with the bits of the term loop per slice."""

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 4), st.integers(0, 5),
        st.integers(1, 12), st.integers(0, 8),
        st.sampled_from(("a", "b", None)), st.sampled_from((0, 1)),
    )
    def test_parity_skip_matches_term_loop(
        self, seed, pa, pb, ba, bb, rows, max_power, nonfinite, parity
    ):
        rng = np.random.default_rng(seed)
        a = random_series(rng, pa, ba, rows)
        b = parity_series(rng, pb, bb, rows, parity)
        factor = {"a": a, "b": b}.get(nonfinite)
        if factor is not None:
            factor[(rng.random(factor.shape) < 0.1) & (factor != 0)] = np.inf
        with np.errstate(invalid="ignore"):
            got, ref = _series_mul(a, b, max_power), series_mul_reference(a, b, max_power)
        if nonfinite != "a":
            assert_same_bits(got, ref)
        else:
            # a skipped product has a zero factor from b: it changes the sum
            # only where the term loop formed inf * 0 = nan
            keep = ~np.isnan(ref)
            assert_same_bits(got[keep], ref[keep])

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 4), st.integers(0, 4),
        st.integers(1, 12), st.integers(0, 8), st.data(),
        st.sampled_from((0, 1)), st.booleans(),
    )
    def test_stacked_product_is_per_slice_product(
        self, seed, pa, pb, ba, bb, rows, max_power, data, step, parity
    ):
        min_power = data.draw(st.integers(0, max_power))
        rng = np.random.default_rng(seed)
        a = np.stack([random_series(rng, pa, ba, rows) for _ in range(2)])
        make = parity_series if parity else lambda *args: random_series(*args[:-1])
        b = np.stack([make(rng, pb, bb, rows, 1) for _ in range(2)])
        stacked = _series_mul(a, b, max_power, step, min_power=min_power)
        for q in range(2):
            assert_same_bits(stacked[q], _series_mul(a[q], b[q], max_power, step,
                                                     min_power=min_power))


class TestWeightWindow:
    """x^2 is formed only on the bands that x^p reads, which the band weights
    end at both ends: x^p from the window has the bits of x^p from the full
    x^2."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**31 - 1), st.sampled_from((2, 3)), st.integers(1, 6),
           st.integers(0, 6), st.integers(0, 3), st.integers(1, 12), st.sampled_from((0, 1)),
           st.data())
    # band_max 1: x^2 reaches band 2 = band_max + 1, past a cap of band_max - 1
    @example(seed=0, p=3, band_max=1, t_max=2, orders=2, rows=6, step=1, data=None)
    def test_window_drops_only_unread_bands(self, seed, p, band_max, t_max, orders, rows, step,
                                            data):
        amp = random_tables(seed, rows=rows, band_max=band_max, orders=orders).amp
        x, _ = _x_series(p, amp, t_max, band_max, step)
        bands = perturb._band_list(p, band_max)
        if data is not None:
            lo = data.draw(st.integers(-band_max, band_max))
            bands = range(lo, data.draw(st.integers(lo, band_max)) + 1,
                          data.draw(st.sampled_from((1, 2))))
        full = _series_mul(x, x, t_max, step)
        bc = 2 * band_max
        reach = 0 if p == 2 else band_max
        lo, hi = perturb._x2_window(p, bands, band_max, t_max)
        assert bands[0] - reach <= lo <= hi <= bands[-1] + reach
        capped = _series_mul(x, x, t_max, step, bands=(lo, hi))
        assert_same_bits(capped, full[:, bc + lo : bc + hi + 1])
        # every power at once, as `_eom_terms` forms x^p, and the top alone,
        # as the march does
        for min_power in (0, t_max):
            assert_same_bits(
                perturb._xp_coefficient(p, x, capped, lo, t_max, bands, step, min_power),
                perturb._xp_coefficient(p, x, full, -bc, t_max, bands, step, min_power))

    def test_quartic_solve_window(self):
        # the order-2 quartic march solves these bands at lam^1..lam^4, and
        # x^3 there reads x^2 on bands -2..8 in all, where it read -8..8
        # before the weights ended the window's low end too (its bits are
        # those of the full-band solve, `TestWindowedSolve`)
        _, t_max, band_eng, _ = perturb._engine_extent(3, 2)
        plan = perturb._power_bands(3, 3, band_eng, t_max)
        assert [list(bands) for bands in plan] == [[1, 3], [1, 3, 5], [3, 5, 7], [5, 7, 9]]
        assert [perturb._x2_window(3, bands, band_eng, t - 1)
                for t, bands in enumerate(plan, 1)] == [(0, 2), (-2, 4), (-2, 6), (-2, 8)]


def _masks_checked(mul, eom_residual):
    """`_series_mul` and `_eom_residual_coefficient` that assert that their
    masks mark every nonzero slice live, against `_nonzero`, and count the
    calls that pass masks."""
    calls = []

    def checked_mul(a, b, *args, masks=None, **kwargs):
        if masks is not None:
            for factor, live in zip((a, b), masks):
                assert not np.any(_nonzero(factor) & ~live), "a live slice marked dead"
            calls.append(1)
        return mul(a, b, *args, masks=masks, **kwargs)

    def checked_residual(params, x, om, power, xp_top, bands, om_right=None, live=None):
        right = om if om_right is None else om_right
        if live is not None:
            for f, got in zip((om, right), live):
                scanned = perturb._orders_live(f, bands)
                assert all(g or not s for g, s in zip(got, scanned)), "a live order marked dead"
            calls.append(1)
        return eom_residual(params, x, om, power, xp_top, bands, om_right, live)

    return checked_mul, checked_residual, calls


def _masks_scanned(mul, eom_residual):
    """`_series_mul` and `_eom_residual_coefficient` that drop the masks they
    are passed and scan their operands."""

    def scanned_mul(a, b, *args, masks=None, **kwargs):
        return mul(a, b, *args, **kwargs)

    def scanned_residual(params, x, om, power, xp_top, bands, om_right=None, live=None):
        return eom_residual(params, x, om, power, xp_top, bands, om_right)

    return scanned_mul, scanned_residual


MASK_UNITS = [(1.0, 1.0, 1.0), (1.3, 0.7, 1.1), (1e-3, 10.0, 1e4)]


def _digests(arrays):
    return [hashlib.sha256(a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes())
            .hexdigest() for a in arrays]


@contextlib.contextmanager
def _engine_mode(mode):
    """Run the engine with its masks checked at every call against the scan
    (mode "checked"), or with every product scanning its operands ("scan").
    Yields the list that counts the checked calls."""
    mul, residual = perturb._series_mul, perturb._eom_residual_coefficient
    calls = []
    if mode == "checked":
        mul, residual, calls = _masks_checked(mul, residual)
    else:
        mul, residual = _masks_scanned(mul, residual)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb, "_series_mul", mul)
        mp.setattr(perturb, "_eom_residual_coefficient", residual)
        yield calls


def _unit_params(p, units):
    m, w0, hbar = units
    return OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)


@functools.cache
def classical_bytes(p, order, units, mode):
    """Digests of the harmonic-balance solve at a1 = 1 and of its residuals,
    which do not depend on n_max, in an `_engine_mode`, and the number of
    checked calls."""
    with _engine_mode(mode) as calls:
        cl = classical.classical_solve(_unit_params(p, units), order, a1=1.0)
        return _digests([cl.amp, cl.omega_coeffs, classical.balance_residuals(cl)]), len(calls)


@functools.cache
def engine_bytes(p, order, n_max, units, mode):
    """Digests of every output the engine forms for one case, by name: the
    solve's tables, the energy matrix (or its error), the harmonic-balance
    solve, `_eom_terms` as the recursion check calls it, and
    `_sum_rule_terms`, in an `_engine_mode`; and the number of checked
    calls."""
    params = _unit_params(p, units)
    out = {}
    with _engine_mode(mode) as calls:
        sol = solve_perturbative(params, order, n_max)
        c = sol.coeffs
        out["solve"] = [c.amp, c.freq_potential]
        try:
            em = energy_matrix(sol)
            out["energy"] = [em.kinetic, em.harmonic, em.anharmonic]
        except EnergyConservationError as exc:
            out["energy"] = [np.frombuffer(str(exc).encode(), dtype=np.uint8)]
        t_max = perturb._engine_extent(p, order)[1]
        pot = c.freq_potential
        bands = sol.public_bands
        out["eom_terms"] = [perturb._eom_terms(
            params, c.amp, _omega_series(pot, c.band_max, bands), t_max, bands,
            om_size=checks._omega_size(pot, c.band_max, bands))]
        out["sum_rule_terms"] = list(checks._sum_rule_terms(sol))
    digests = {k: _digests(v) for k, v in out.items()}
    digests["classical"], classical_calls = classical_bytes(p, order, units, mode)
    return digests, len(calls) + classical_calls


MASK_CASES = [(p, order, n_max, units) for p in (2, 3) for order in range(9)
              for n_max in (1, 3, 12, 200) for units in MASK_UNITS]


class TestCarriedMasks:
    """The engine's products read carried (power, band) nonzero masks
    instead of scanning their operands. A mask may mark a zero slice live,
    never a nonzero one dead, and the products keep the bits of the scan."""

    @pytest.mark.parametrize("p, order, n_max, units", MASK_CASES, ids=str)
    def test_masks_mark_every_nonzero_slice_live(self, p, order, n_max, units):
        _, calls = engine_bytes(p, order, n_max, units, "checked")
        assert calls > 0

    @pytest.mark.parametrize("p, order, n_max, units",
                             MASK_CASES + [(p, order, 1000, units) for p in (2, 3)
                                           for order in range(9) for units in MASK_UNITS],
                             ids=str)
    def test_masks_give_the_bits_of_the_scan(self, p, order, n_max, units):
        assert engine_bytes(p, order, n_max, units, "checked")[0] == \
            engine_bytes(p, order, n_max, units, "scan")[0]

    @pytest.mark.parametrize("n_max", [1, 12, 200])
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_march_scans_no_operand(self, monkeypatch, p, order, n_max):
        scans = []

        def counted(*args, **kwargs):
            scans.append(1)
            return _nonzero(*args, **kwargs)

        monkeypatch.setattr(core, "_nonzero", counted)
        solve_perturbative(OscillatorParams(force_exponent=p), order, n_max)
        classical.classical_solve(OscillatorParams(force_exponent=p), order, a1=1.0)
        assert scans == []

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_cleared_mask_entry_is_caught(self, monkeypatch, p):
        # a mutant that marks the slot of a^(0)(n, n-1) dead in x's mask
        real = perturb._x_put

        def mutant(x, live, p, amp, k, a, step=1):
            real(x, live, p, amp, k, a, step)
            if (k, a) == (0, 1):
                live[0, (live.shape[-1] - 1) // 2 + 1] = False

        mul, residual, _ = _masks_checked(perturb._series_mul,
                                          perturb._eom_residual_coefficient)
        monkeypatch.setattr(perturb, "_x_put", mutant)
        monkeypatch.setattr(perturb, "_series_mul", mul)
        with pytest.raises(AssertionError, match="a live slice marked dead"):
            solve_perturbative(OscillatorParams(force_exponent=p), 2, 12)


def engine_outputs(p, order, n_max):
    """The bytes of a solve, its energy matrix (or its error), the
    harmonic-balance solve at a1 = 1, and the (id, observed, tolerance) of
    the checks that read the series engine, with the observed and the
    tolerance by `float.hex`."""
    params = OscillatorParams(mass=1.3, omega0=0.7, hbar=1.1, force_exponent=p)
    sol = solve_perturbative(params, order, n_max)
    out = {"solve": _digests([sol.coeffs.amp, sol.coeffs.freq_potential])}
    try:
        em = energy_matrix(sol)
        out["energy"] = _digests([em.kinetic, em.harmonic, em.anharmonic])
    except EnergyConservationError as exc:
        out["energy"] = str(exc)
    cl = classical.classical_solve(params, order, a1=1.0)
    out["classical"] = _digests([cl.amp, cl.omega_coeffs])
    for group in (checks.recursion, checks.quantum_condition, checks.sho):
        out[group.__name__] = check_bits(group(sol))
    return out


UNREAD_CASES = [(p, order, n_max) for p in (2, 3) for order in range(9) for n_max in (3, 40)]


class TestUnreadBands:
    """The engine forms omega, x^2, x^p and the residual only on the bands
    that their readers read, and drops no band that they do read."""

    @pytest.mark.parametrize("p, order, n_max", UNREAD_CASES, ids=str)
    def test_no_reader_reads_an_unformed_omega_band(self, monkeypatch, p, order, n_max):
        # the bands that `_omega_series` is not asked for are nan, which any
        # read would carry into an output
        want = engine_outputs(p, order, n_max)
        real = core._omega_series

        def unformed_nan(pot, band_max, bands=None):
            out = real(pot, band_max, bands)
            if bands is not None:
                unformed = np.ones(2 * band_max + 1, dtype=bool)
                unformed[[band_max + g for g in bands]] = False
                out[:, unformed] = np.nan
            return out

        for module in (core, perturb, checks):
            monkeypatch.setattr(module, "_omega_series", unformed_nan)
        assert engine_outputs(p, order, n_max) == want

    @pytest.mark.parametrize("p, order, n_max", UNREAD_CASES, ids=str)
    def test_wider_windows_change_no_bit(self, monkeypatch, p, order, n_max):
        # x^2 on two more bands at each end, and x^p and the residual on
        # every band at every power of the march
        want = engine_outputs(p, order, n_max)
        window = perturb._x2_window

        def wider(*args):
            lo, hi = window(*args)
            return lo - 2, hi + 2

        def every_band(p, orders, band_max, t_max):
            return [perturb._band_list(p, band_max)] * t_max

        monkeypatch.setattr(perturb, "_x2_window", wider)
        monkeypatch.setattr(perturb, "_power_bands", every_band)
        assert engine_outputs(p, order, n_max) == want


WIDE_PAD = 600
PAD_UNITS = [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7)]


@functools.cache
def wide_pad_solve(p, order, units):
    """A solve at n_max 37 with 600 rows of pad, far beyond the dependency
    cone: its rows 0..n_max+band_max are the reference for every n_max up
    to 37, since a row's value does not depend on the table length."""
    tight = perturb._engine_extent

    def wide(p, order):
        public, t_max, band_eng, _ = tight(p, order)
        return public, t_max, band_eng, WIDE_PAD

    m, w0, hbar = units
    params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb, "_engine_extent", wide)
        return solve_perturbative(params, order, 37)


@functools.cache
def tall_solve(p, order):
    """A solve at n_max = order + 12 and its energy matrix."""
    sol = solve_perturbative(OscillatorParams(force_exponent=p), order, order + 12)
    return sol, energy_matrix(sol)


class TestEnginePad:
    """The row pad is the engine's dependency cone: every row that the sum
    rule of rows 0..n_max reads, 0..n_max+band_max, has the bits of a solve
    with a far wider pad."""

    @pytest.mark.parametrize("units", PAD_UNITS, ids=str)
    @pytest.mark.parametrize("n_max", ["order+3", 12, 37])
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_rows_read_match_wide_pad(self, p, order, n_max, units):
        n_max = order + 3 if n_max == "order+3" else n_max
        ref = wide_pad_solve(p, order, units)
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
        sol = solve_perturbative(params, order, n_max)
        read = n_max + sol.band_max + 1
        assert sol.coeffs.rows < ref.coeffs.rows
        assert_same_bits(sol.coeffs.amp[..., :read], ref.coeffs.amp[..., :read])
        assert_same_bits(sol.coeffs.freq_potential[:, :read],
                         ref.coeffs.freq_potential[:, :read])
        assert sol.solved_orders == ref.solved_orders

    @pytest.mark.parametrize("p, order, n_max", [
        (p, order, n_max) for p in (2, 3) for order in (0, 2, 8)
        for n_max in range(1, order + 3)])
    def test_short_tables_are_rows_of_a_tall_solve(self, p, order, n_max):
        # n_max needs no floor past 1: a short solve publishes the rows
        # 0..n_max of a tall one, bit for bit
        ref, em_ref = tall_solve(p, order)
        sol = solve_perturbative(OscillatorParams(force_exponent=p), order, n_max)
        em, rows = energy_matrix(sol), slice(0, n_max + 1)
        assert sol.solved_orders == ref.solved_orders
        for alpha, k_hi in sol.solved_orders.items():
            for k in range(k_hi + 1):
                assert_same_bits(sol.a(k, alpha), ref.a(k, alpha)[rows])
        for k in range(order + 1):
            assert_same_bits(sol.frequency_potential(k), ref.frequency_potential(k)[rows])
            assert_same_bits(em.diagonal(k), em_ref.diagonal(k)[rows])


def kinetic_complex_reference(sol):
    """Kinetic energy terms from the complex derivative i*omega*X, squared
    as a complex series product by the term loop: the real kinetic term's
    reference."""
    p, c, order = sol.params.force_exponent, sol.coeffs, sol.order
    x, _ = _x_series(p, c.amp, order, sol.band_max)
    om = _omega_series(c.freq_potential, sol.band_max)
    xdot = np.zeros_like(x, dtype=np.complex128)
    for s in range(order + 1):
        for j in range(min(om.shape[0], s + 1)):
            xdot[s] += 1j * om[j] * x[s - j]
    d2 = series_mul_reference(xdot, xdot, order)
    return 0.5 * sol.params.mass * np.real(d2)


def energy_terms_loop_reference(sol):
    """Kinetic, harmonic and anharmonic terms from the full-band products,
    trimmed one (power, band) slice at a time, with no anharmonic product at
    order 0, as `energy_matrix` did before it sliced each term at once and
    formed only the bands it keeps."""
    p, c, m, order_cap = sol.params.force_exponent, sol.coeffs, sol.params.mass, sol.order
    x, _ = _x_series(p, c.amp, order_cap, sol.band_max)
    om = _omega_series(c.freq_potential, sol.band_max)
    wx = np.zeros_like(x)
    for s in range(order_cap + 1):
        for j in range(min(om.shape[0], s + 1)):
            wx[s] += om[j] * x[s - j]
    x2 = _series_mul(x, x, order_cap)
    terms = [(_series_mul(-wx, wx, order_cap), 0.5 * m, 0),
             (x2, 0.5 * m * sol.params.omega0**2, 0)]
    if order_cap >= 1:
        terms.append((_series_mul(x2, x if p == 2 else x2, order_cap - 1), m / (p + 1.0), 1))
    band_rep = min(order_cap + 2 if p == 2 else 2 * order_cap + 2, 2 * sol.band_max)
    out = [np.zeros((order_cap + 1, band_rep + 1, sol.n_max + 1)) for _ in range(3)]
    for term, (series, factor, shift) in zip(out, terms):
        bc = (series.shape[1] - 1) // 2
        for s in range(shift, order_cap + 1):
            for a in range(band_rep + 1):
                term[s, a] = factor * series[s - shift, bc + a, : sol.n_max + 1]
    return out


class TestSolveClosedForms:
    TABULATED_AMP = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                     (2, 0), (2, 1), (2, 2)]
    TABULATED_FREQ = [(0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (2, 2)]

    def test_amplitudes_match_closed_forms(self, sol_cubic):
        for k, alpha in self.TABULATED_AMP:
            got = sol_cubic.a(k, alpha)
            for n in range(N_CHECK):
                target = closed_form_amplitude(k, n, alpha, P2)
                assert abs(got[n] - target) <= 1e-12 * max(1.0, abs(target)), (
                    k, alpha, n)

    def test_frequencies_match_closed_forms(self, sol_cubic):
        for k, alpha in self.TABULATED_FREQ:
            got = sol_cubic.omega_band(k, alpha)
            for n in range(alpha, N_CHECK):
                target = closed_form_frequency(k, n, alpha, P2)
                assert abs(got[n] - target) <= 1e-12 * max(1.0, abs(target))

    def test_spot_values(self, sol_cubic):
        assert sol_cubic.a(0, 1)[1] == pytest.approx(B, rel=1e-14)
        assert sol_cubic.a(0, 0)[0] == pytest.approx(-0.5, rel=1e-14)
        assert sol_cubic.a(0, 2)[2] == pytest.approx(B**2 / 6 * B, rel=1e-14)
        assert sol_cubic.a(2, 1)[1] == pytest.approx(11 * B**3 / 72, rel=1e-13)
        assert sol_cubic.a(2, 0)[0] == pytest.approx(-44.0 / 72.0, rel=1e-13)
        assert sol_cubic.a(2, 2)[2] == pytest.approx(
            3 * B**4 / 32 * 3 * B, rel=1e-13
        )
        assert sol_cubic.omega_band(2, 1)[1] == pytest.approx(-5.0 / 6.0, rel=1e-13)
        assert np.all(sol_cubic.omega_band(1, 1) == 0.0)
        assert np.all(sol_cubic.a(1, 1) == 0.0)

    @given(
        st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0),
        st.integers(0, 400),
    )
    def test_array_levels_match_scalar_loop(self, mass, omega0, hbar, n_max):
        params = OscillatorParams(mass=mass, omega0=omega0, hbar=hbar)
        levels = np.arange(-2, n_max + 4)
        for forms, tables in (
            ((closed_form_amplitude, closed_form_amplitude_reference), self.TABULATED_AMP),
            ((closed_form_frequency, closed_form_frequency_reference), self.TABULATED_FREQ),
        ):
            form, reference = forms
            for k, alpha in tables:
                ref = np.array([reference(k, n, alpha, params) for n in levels])
                assert_same_bits(form(k, levels, alpha, params), ref)
                for n in (-1, 0, alpha, n_max):
                    got = form(k, n, alpha, params)
                    assert type(got) is float
                    assert_same_bits(np.float64(got), ref[n + 2])

    def test_closed_form_floor(self):
        assert closed_form_amplitude(0, 1, 2, P2) == 0.0
        assert closed_form_amplitude(2, 0, 1, P2) == 0.0

    def test_no_closed_form_lookup(self):
        with pytest.raises(NoClosedFormError):
            closed_form_amplitude(1, 5, 3, P2)
        with pytest.raises(NoClosedFormError):
            closed_form_amplitude(0, 5, 1, OscillatorParams(force_exponent=3))
        with pytest.raises(NoClosedFormError):
            closed_form_frequency(2, 5, 3, P2)

    def test_unit_independence(self):
        # closed forms and solver agree away from the default unit system
        params = OscillatorParams(mass=1.7, omega0=0.6, lam=0.02, hbar=2.3)
        sol = solve_perturbative(params, 2, 10)
        for k, alpha in self.TABULATED_AMP:
            got = sol.a(k, alpha)
            for n in range(0, 11, 3):
                target = closed_form_amplitude(k, n, alpha, params)
                assert abs(got[n] - target) <= 1e-12 * max(1.0, abs(target))
        got = sol.omega_band(2, 1)
        for n in range(1, 11):
            target = closed_form_frequency(2, n, 1, params)
            assert abs(got[n] - target) <= 1e-12 * max(1.0, abs(target))


class TestSolveInvariants:
    def test_recursion_residuals_vanish(self, sol_cubic):
        for alpha in range(0, 4):
            for k in range(3):
                res = build_recursions(P2, alpha, k)(sol_cubic.coeffs)
                assert np.max(np.abs(res[:N_CHECK])) <= 1e-12

    def test_quantum_condition_residuals_vanish(self, sol_cubic):
        for res in checks._sum_rule_terms(sol_cubic)[0]:
            assert np.max(np.abs(res[:N_CHECK])) <= 1e-12

    def test_quartic_residuals_vanish(self, sol_quartic):
        # quartic band amplitudes grow fast with n, so compare the residual
        # against the magnitude of the equation's own bracket term
        p3 = OscillatorParams(force_exponent=3)
        for alpha in (1, 3, 5):
            for k in range(3):
                res = build_recursions(p3, alpha, k)(sol_quartic.coeffs)
                if alpha == 1:
                    # bracket vanishes on the adjacent band; the equation's
                    # terms are then products of two amplitudes
                    scale = float(
                        np.max(np.abs(sol_quartic.coeffs.amp[: k + 1, 1, :N_CHECK]))
                        ** 2
                    )
                else:
                    scale = float(
                        np.max(
                            np.abs(
                                (1 - alpha**2)
                                * sol_quartic.coeffs.amp[: k + 1, alpha, :N_CHECK]
                            )
                        )
                    )
                assert np.max(np.abs(res[:N_CHECK])) <= 1e-12 * max(1.0, scale)
        for res in checks._sum_rule_terms(sol_quartic)[0]:
            # order-2 summands reach ~1e5 by n = 20, so this is ~1e-15 relative
            assert np.max(np.abs(res[:N_CHECK])) <= 1e-10

    def test_frequency_additivity(self, sol_cubic):
        for k in range(3):
            om1 = sol_cubic.omega_band(k, 1)
            om2 = sol_cubic.omega_band(k, 2)
            for n in range(2, N_CHECK):
                assert om2[n] == pytest.approx(om1[n] + om1[n - 1], abs=1e-12)

    def test_solver_errors(self):
        with pytest.raises(ValueError):
            solve_perturbative(P2, -1, 20)
        with pytest.raises(DimensionMismatchError):
            solve_perturbative(P2, 2, 0)

    def test_quartic_parity(self, sol_quartic):
        # even bands carry no amplitude at any order
        assert set(sol_quartic.solved_orders) <= {1, 3, 5, 7, 9}
        x = summed_motion(sol_quartic, 0.3)[0]
        for alpha in range(0, x.band_max + 1, 2):
            assert np.max(np.abs(x.band(alpha))) == 0.0
            assert np.max(np.abs(x.band(-alpha))) == 0.0

    def test_quartic_first_order_frequency(self, sol_quartic):
        # independent route: first-order level shifts of the quartic term
        # from ladder matrix elements, differenced into a frequency
        params = sol_quartic.params
        x = position_matrix(params, 30)
        x4 = np.linalg.matrix_power(x, 4)
        e1 = params.mass / 4.0 * np.diag(x4)
        got = sol_quartic.omega_band(1, 1)
        for n in range(1, 20):
            assert got[n] == pytest.approx(
                (e1[n] - e1[n - 1]) / params.hbar, rel=1e-12
            )


class TestStructureConstants:
    def test_known_values(self, sol_cubic):
        const = extract_structure_constants(sol_cubic)
        assert const[1] == pytest.approx(1.0, abs=1e-12)
        assert const[2] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert const[3] == pytest.approx(1.0 / 48.0, abs=1e-12)

    def test_quartic_pattern_is_n_independent(self, sol_quartic):
        const = extract_structure_constants(sol_quartic)
        assert const[1] == pytest.approx(1.0, abs=1e-12)
        assert const[3] == pytest.approx(1.0 / 32.0, abs=1e-12)

    def test_violation_detected(self, sol_cubic):
        amp = np.array(sol_cubic.coeffs.amp, copy=True)
        amp[0, 2, 7] *= 1.001  # break the factorized n-dependence
        corrupted = PerturbSolution(
            params=sol_cubic.params,
            order=sol_cubic.order,
            n_max=sol_cubic.n_max,
            coeffs=CoefficientSet(amp, np.array(sol_cubic.coeffs.freq_potential)),
            solved_orders=sol_cubic.solved_orders,
        )
        with pytest.raises(StructureViolationError):
            extract_structure_constants(corrupted)


class TestAssembleMotion:
    """The engine's x series summed at a numeric coupling."""

    def test_zero_coupling_collapses_to_sho(self, sol_cubic):
        x = summed_motion(sol_cubic, 0.0)[0]
        n = np.arange(8)
        assert np.allclose(x.band(1)[:8], B / 2 * np.sqrt(n), rtol=1e-14)
        for alpha in (0, 2, 3):
            assert np.max(np.abs(x.band(alpha)[:8])) == 0.0

    def test_diagonal_entry_series(self, sol_cubic):
        lam = 0.1
        x = summed_motion(sol_cubic, lam)[0]
        a00 = closed_form_amplitude(0, 1, 0, P2)
        a20 = closed_form_amplitude(2, 1, 0, P2)
        assert a00 == pytest.approx(-1.5, rel=1e-15)
        assert x.get(1, 1) == pytest.approx(
            lam * a00 + lam**3 * a20, rel=1e-13
        )

    def test_assembled_array_symmetric(self, sol_cubic):
        assert symmetry_defect(summed_motion(sol_cubic, 0.17)[0]) <= 1e-15


class TestShoRoute:
    def test_adjacent_amplitude_and_energy(self):
        params = OscillatorParams(lam=0.0)
        sol = solve_perturbative(params, 0, 20)
        assert sol.a(0, 1)[1] == pytest.approx(B, rel=1e-15)
        assert summed_motion(sol, 0.0)[0].get(1, 0) == pytest.approx(
            math.sqrt(params.hbar / (2 * params.mass * params.omega0)), rel=1e-15
        )
        em = energy_matrix(sol)
        assert em.diagonal(0)[0] == pytest.approx(0.5, rel=1e-15)
        n = np.arange(21)
        assert np.allclose(em.diagonal(0), n + 0.5, rtol=1e-14)

    def test_quantum_condition_exact(self):
        sol = solve_perturbative(OscillatorParams(lam=0.0), 0, 30)
        res = quantum_condition_residual(sol.params, *summed_motion(sol, 0.0))
        assert np.max(np.abs(res[:31])) <= 1e-12


class TestEnergyMatrix:
    @pytest.mark.parametrize("n_max", [12, 200])
    @pytest.mark.parametrize("p", [2, 3])
    def test_real_kinetic_term_matches_complex_product(self, p, n_max):
        sol = solve_perturbative(OscillatorParams(force_exponent=p), 2, n_max)
        em = energy_matrix(sol)
        ref = kinetic_complex_reference(sol)
        bc = (ref.shape[1] - 1) // 2
        assert_same_bits(em.kinetic, ref[:, bc : bc + em.band_max + 1, : n_max + 1])

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("p", [2, 3])
    def test_terms_match_slice_loop(self, p, order):
        params = OscillatorParams(mass=1.3, omega0=0.8, hbar=0.7, force_exponent=p)
        for n_max in (order + 3, order + 9):
            sol = solve_perturbative(params, order, n_max)
            em = energy_matrix(sol)
            for got, ref in zip((em.kinetic, em.harmonic, em.anharmonic),
                                energy_terms_loop_reference(sol)):
                assert_same_bits(got, ref)

    def test_diagonal_orders(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        n = np.arange(N_CHECK)
        assert np.allclose(em.diagonal(0)[:N_CHECK], n + 0.5, rtol=1e-13)
        assert np.max(np.abs(em.diagonal(1))) == 0.0
        target = -5.0 / 12.0 * (n**2 + n + 11.0 / 30.0)
        got = em.diagonal(2)[:N_CHECK]
        assert np.max(np.abs(got - target) / np.maximum(1.0, np.abs(target))) <= 1e-12

    def test_second_order_diagonal_pieces(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        n = np.arange(N_CHECK)
        poly = n**2 + n + 11.0 / 30.0
        harm = 0.5 * (5.0 * B**4 / 12.0) * poly
        kin = -0.5 * (5.0 * B**4 / 24.0) * poly
        anh = -(5.0 * B**4 / 24.0) * poly
        assert np.allclose(em.harmonic[2, 0, :N_CHECK], harm, rtol=1e-12)
        assert np.allclose(em.kinetic[2, 0, :N_CHECK], kin, rtol=1e-12)
        assert np.allclose(em.anharmonic[2, 0, :N_CHECK], anh, rtol=1e-12)

    def test_first_order_adjacent_band_contributions(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        n = np.arange(N_CHECK, dtype=float)
        nsr = n * np.sqrt(n)
        assert np.allclose(em.harmonic[1, 1, :N_CHECK], -5.0 / 24.0 * B**3 * nsr,
                           atol=1e-13)
        assert np.allclose(em.kinetic[1, 1, :N_CHECK], B**3 / 12.0 * nsr,
                           atol=1e-13)
        assert np.allclose(em.anharmonic[1, 1, :N_CHECK], B**3 / 8.0 * nsr,
                           atol=1e-13)
        assert np.max(np.abs(em.total(1, 1))) <= 1e-12

    def test_second_band_static_cancellation(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        n = np.arange(N_CHECK, dtype=float)
        expect = np.zeros(N_CHECK)
        expect[2:] = 0.125 * 2.0 * np.sqrt(n[2:] * (n[2:] - 1))  # beta^2 = 2
        assert np.allclose(em.harmonic[0, 2, :N_CHECK], expect, atol=1e-13)
        assert np.allclose(em.kinetic[0, 2, :N_CHECK], -expect, atol=1e-13)
        assert np.max(np.abs(em.anharmonic[0, 2])) == 0.0

    def test_third_band_contributions(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        n = np.arange(N_CHECK, dtype=float)
        root = np.sqrt(np.clip(n * (n - 1) * (n - 2), 0.0, None))
        assert np.allclose(em.harmonic[1, 3, :N_CHECK], B**3 / 24.0 * root,
                           atol=1e-13)
        assert np.allclose(em.kinetic[1, 3, :N_CHECK], -(B**3) / 12.0 * root,
                           atol=1e-13)
        assert np.allclose(em.anharmonic[1, 3, :N_CHECK], B**3 / 24.0 * root,
                           atol=1e-13)
        assert np.max(np.abs(em.total(1, 3))) <= 1e-12

    def test_off_diagonals_vanish_every_order(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        for k in range(3):
            for alpha in range(1, em.band_max + 1):
                assert np.max(np.abs(em.total(k, alpha))) <= 1e-12

    def test_conservation_failure_detected(self, sol_cubic):
        amp = np.array(sol_cubic.coeffs.amp, copy=True)
        amp[0, 1, 5] *= 1.01
        broken = PerturbSolution(
            params=sol_cubic.params,
            order=sol_cubic.order,
            n_max=sol_cubic.n_max,
            coeffs=CoefficientSet(amp, np.array(sol_cubic.coeffs.freq_potential)),
            solved_orders=sol_cubic.solved_orders,
        )
        with pytest.raises(EnergyConservationError):
            energy_matrix(broken)


class TestEnergyDiagonalSeries:
    """The level energies: the diagonal of the energy matrix, summed as a
    series in lam by `EnergyMatrix.evaluate`."""

    def test_reference_value(self, sol_cubic):
        got = energy_matrix(sol_cubic).evaluate(0.05)[0]
        assert got == pytest.approx(0.5 - (5 * 0.0025 / 12) * (11 / 30), rel=1e-12)

    def test_matches_closed_form_series(self, sol_cubic):
        em = energy_matrix(sol_cubic)
        n = np.arange(N_CHECK)
        assert np.allclose(em.diagonal(0)[:N_CHECK], n + 0.5, rtol=1e-13)
        assert np.max(np.abs(em.diagonal(1))) == 0.0
        target = -5.0 / 12.0 * (n**2 + n + 11.0 / 30.0)
        assert np.allclose(em.diagonal(2)[:N_CHECK], target, rtol=1e-12)


@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_sum_rule_fixes_adjacent_amplitude(mass, omega0, hbar):
    # beta*sqrt(n) with the solver's positive sign convention, any units
    params = OscillatorParams(mass=mass, omega0=omega0, lam=0.0, hbar=hbar)
    sol = solve_perturbative(params, 0, 12)
    got = sol.a(0, 1)
    n = np.arange(13, dtype=float)
    assert np.allclose(got, params.beta * np.sqrt(n), rtol=1e-12)
    assert np.all(got[1:] > 0.0)
