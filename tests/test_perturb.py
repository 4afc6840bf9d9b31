import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ampmech import (
    DimensionMismatchError,
    EnergyConservationError,
    NoClosedFormError,
    OscillatorParams,
    StructureViolationError,
    UnimplementedOrderError,
    quantum_condition_residual,
)
from ampmech import perturb
from ampmech.oracle import position_matrix
from ampmech.perturb import (
    CoefficientSet,
    PerturbSolution,
    assemble_motion,
    build_recursions,
    closed_form_amplitude,
    closed_form_frequency,
    energy_diagonal_series,
    energy_matrix,
    extract_structure_constants,
    quantum_condition_order_residual,
    sho_solve,
    solve_perturbative,
    _omega_series,
    _series_mul,
    _x_series,
)

from conftest import assert_same_bits, xp_rebuild_reference

B = math.sqrt(2.0)  # beta in default units
P2 = OscillatorParams()
N_CHECK = 21  # rows 0..20


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


def random_tables(seed, rows=16, band_max=4, orders=2, force_exponent=2):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(orders + 1, band_max + 1, rows))
    for a in range(1, band_max + 1):
        amp[:, a, :a] = 0.0
    pot = rng.normal(size=(orders + 1, rows))
    pot[0] = np.arange(rows, dtype=float)
    return CoefficientSet(force_exponent, amp, pot)


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


def random_series(rng, orders, band_max, rows, complex_):
    """Random banded lam-series in which some (order, band) slices are zero,
    or zero on every row their band reaches and nonzero outside it."""
    shape = (orders, 2 * band_max + 1, rows)
    s = rng.normal(size=shape)
    if complex_:
        s = s + 1j * rng.normal(size=shape)
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

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 4), st.integers(0, 4),
        st.integers(1, 12), st.integers(0, 8),
        st.booleans(), st.booleans(), st.booleans(),
    )
    def test_series_mul_matches_term_loop(
        self, seed, pa, pb, ba, bb, rows, max_power, ca, cb, nonfinite
    ):
        rng = np.random.default_rng(seed)
        a = random_series(rng, pa, ba, rows, ca)
        b = random_series(rng, pb, bb, rows, cb)
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
        st.booleans(), st.booleans(), st.booleans(), st.sampled_from((0, 1)),
    )
    def test_bounded_series_mul_is_slice_of_full(
        self, seed, pa, pb, ba, bb, rows, max_power, data, ca, cb, nonfinite, step
    ):
        min_power = data.draw(st.integers(0, max_power))
        rng = np.random.default_rng(seed)
        a = random_series(rng, pa, ba, rows, ca)
        b = random_series(rng, pb, bb, rows, cb)
        if nonfinite:
            b[rng.random(b.shape) < 0.1] = np.inf
        with np.errstate(invalid="ignore"):
            full = _series_mul(a, b, max_power, step)
            bounded = _series_mul(a, b, max_power, step, min_power=min_power)
        assert_same_bits(bounded, full[min_power:])

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
            om = cs.omega(0, n, n - 1)
            expect = (1.0 - om**2) * cs.amplitude(0, n, n - 1)
            assert res[n] == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_diagonal_band_lowest_order(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 0, 0)(cs)
        for n in range(10):
            expect = cs.amplitude(0, n, n) + 0.25 * (
                cs.amplitude(0, n + 1, n) ** 2 + cs.amplitude(0, n, n - 1) ** 2
            )
            assert res[n] == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_third_band_lowest_order(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 3, 0)(cs)
        for n in range(3, 10):
            om = cs.omega(0, n, n - 3)
            expect = (1.0 - om**2) * cs.amplitude(0, n, n - 3) + 0.5 * (
                cs.amplitude(0, n, n - 1) * cs.amplitude(0, n - 1, n - 3)
                + cs.amplitude(0, n, n - 2) * cs.amplitude(0, n - 2, n - 3)
            )
            assert res[n] == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_adjacent_band_second_order_bracket(self, seed):
        cs = random_tables(seed)
        res = build_recursions(P2, 1, 2)(cs)

        def a(k, n, m):
            return cs.amplitude(k, n, m)

        for n in range(1, 9):
            o0, o1, o2 = (cs.omega(k, n, n - 1) for k in range(3))
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

    def test_force_exponent_must_match_tables(self):
        cs = random_tables(0, force_exponent=3)
        fn = build_recursions(P2, 1, 0)
        with pytest.raises(ValueError):
            fn(cs)


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
    """The solver as it was before it carried x and the frequencies across
    powers: both rebuilt from the tables at every power. Returns the tables,
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
        x = _x_series(p, amp, t, band_eng)
        x2[t - 1] = _series_mul(x, x, t - 1, min_power=t - 1)[0]
        xp_top = perturb._xp_coefficient(p, x, x2, t - 1)
        res_t = perturb._eom_residual_coefficient(
            params, x, _omega_series(pot, band_eng), t, xp_top)
        if t <= order:
            a0 = amp[0, 1]
            pot_inc = np.zeros(rows)
            pot_inc[1:] = res_t[band_eng + 1, 1:] / (omega0 * a0[1:])
            pot[t] = np.cumsum(pot_inc)
            u = -np.cumsum(perturb._qc_residual_coefficient(params, amp, pot, t))
            amp[t, 1, 1:] = u[:-1] / (2.0 * math.pi * params.mass * omega0 * a0[1:])
            solved[1] = t
        solved.update(perturb._solve_bands(p, amp, res_t, t, bands, omega0))
    return amp, pot, solved


def omega_size(pot, band_max):
    """|Omega(n)| + |Omega(n-g)| per band, as `checks.recursion` sizes a
    frequency."""
    return 2.0 * np.abs(pot)[:, None, :] - _omega_series(np.abs(pot), band_max)


def eom_terms_two_pass_reference(params, coeffs, t_max, band_max, absolute=False):
    """`_eom_terms` as it was before the residual and its size shared one
    pass: one series pass for each, from the tables alone."""
    p, pot = params.force_exponent, coeffs.freq_potential
    x = _x_series(p, np.abs(coeffs.amp) if absolute else coeffs.amp, t_max, band_max)
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
            xp_top = perturb._xp_coefficient(p, x, x2, t - 1)
            bc = (xp_top.shape[0] - 1) // 2
            res += xp_top[bc - band_max : bc + band_max + 1]
        out.append(res)
    return out


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


class TestStackedEomTerms:
    """The residual and the summed size of its terms share one series pass,
    stacked on a leading axis. Two separate passes from the tables are the
    reference."""

    @staticmethod
    def assert_matches_two_passes(params, coeffs, t_max, band_max):
        pot = coeffs.freq_potential
        stacked = perturb._eom_terms(params, coeffs.amp, _omega_series(pot, band_max), t_max,
                                     om_size=omega_size(pot, band_max))
        signed = eom_terms_two_pass_reference(params, coeffs, t_max, band_max)
        sizes = eom_terms_two_pass_reference(params, coeffs, t_max, band_max, absolute=True)
        assert stacked.shape[:2] == (2, t_max + 1)
        for t, (res, size) in enumerate(zip(signed, sizes)):
            assert_same_bits(stacked[0, t], res)
            assert_same_bits(stacked[1, t], size)

    @pytest.mark.parametrize("n_max", ["order+3", 40])
    @pytest.mark.parametrize("p, order, units", ORDERS_UNITS, ids=str)
    def test_solution_matches_two_passes(self, p, order, units, n_max):
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=p)
        sol = solve_perturbative(params, order, order + 3 if n_max == "order+3" else n_max)
        c = sol.coeffs
        t_max = perturb._engine_extent(p, order)[1]
        self.assert_matches_two_passes(params, c, t_max, c.band_max)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(1, 6),
           st.integers(1, 20), st.sampled_from((2, 3)))
    def test_random_tables_match_two_passes(self, seed, orders, band_max, rows, p):
        cs = random_tables(seed, rows=rows, band_max=band_max, orders=orders, force_exponent=p)
        params = OscillatorParams(mass=1.7, omega0=0.6, force_exponent=p)
        self.assert_matches_two_passes(params, cs, orders + 2, band_max)

    def test_bands_wider_than_the_table(self):
        # band 3 outgrows two rows: its mirror has no entry, and the residual
        # of band 3 reads it as zero (a ValueError before)
        cs = random_tables(0, rows=2, band_max=3, orders=0)
        res = build_recursions(P2, 3, 0)(cs)
        assert res.shape == (2,) and np.all(np.isfinite(res))

    def test_signed_pass_alone_is_the_residual(self, sol_cubic):
        c = sol_cubic.coeffs
        got = perturb._eom_terms(P2, c.amp, _omega_series(c.freq_potential, c.band_max), 4)
        for res, ref in zip(got, eom_terms_two_pass_reference(P2, c, 4, c.band_max)):
            assert_same_bits(res, ref)


def qc_residual_reference(params, amp, pot, k, absolute=False):
    """`_qc_residual_coefficient` as it was before the residual and its size
    shared one pass: with `absolute`, the summed size of its terms instead,
    so that the sum-rule check called it twice per order."""
    p = params.force_exponent
    orders, bands, rows = amp.shape
    res = np.zeros(rows)
    if k == 0:
        res += params.h if absolute else -params.h
    for alpha in perturb._band_list(p, bands - 1):
        rem = k - 2 * perturb.band_weight(p, alpha)
        if rem < 0:
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


class TestStackedSumRule:
    """The sum-rule residual and the summed size of its terms share one
    pass, stacked on a leading axis; the two calls the check made before are
    the reference."""

    @staticmethod
    def assert_matches_two_calls(params, c, k):
        amp, pot = c.amp, c.freq_potential
        stacked = perturb._qc_residual_coefficient(params, amp, pot, k, sizes=True)
        assert stacked.shape == (2, c.rows)
        assert_same_bits(stacked[0], qc_residual_reference(params, amp, pot, k))
        assert_same_bits(stacked[1], qc_residual_reference(params, amp, pot, k, absolute=True))
        # the solver's call forms the residual alone, with the same bits
        assert_same_bits(perturb._qc_residual_coefficient(params, amp, pot, k), stacked[0])

    @pytest.mark.parametrize("n_max", [12, 200])
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_solution_matches_two_calls(self, p, order, n_max):
        params = OscillatorParams(force_exponent=p)
        c = solve_perturbative(params, order, n_max).coeffs
        for k in range(order + 1):
            self.assert_matches_two_calls(params, c, k)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(1, 6),
           st.integers(1, 20), st.sampled_from((2, 3)), st.integers(0, 3))
    def test_random_tables_match_two_calls(self, seed, orders, band_max, rows, p, k):
        cs = random_tables(seed, rows=rows, band_max=band_max, orders=orders, force_exponent=p)
        params = OscillatorParams(mass=1.7, omega0=0.6, hbar=0.8, force_exponent=p)
        self.assert_matches_two_calls(params, cs, k)


def parity_series(rng, orders, band_max, rows, complex_, parity):
    """A random series whose bands of one parity (index band_max + g) are all
    zero, as in odd x and even x^2 of the quartic force, with all-zero powers."""
    s = random_series(rng, orders, band_max, rows, complex_)
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
        st.booleans(), st.booleans(), st.sampled_from(("a", "b", None)),
        st.sampled_from((0, 1)),
    )
    def test_parity_skip_matches_term_loop(
        self, seed, pa, pb, ba, bb, rows, max_power, ca, cb, nonfinite, parity
    ):
        rng = np.random.default_rng(seed)
        a = random_series(rng, pa, ba, rows, ca)
        b = parity_series(rng, pb, bb, rows, cb, parity)
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
        a = np.stack([random_series(rng, pa, ba, rows, False) for _ in range(2)])
        make = parity_series if parity else lambda *args: random_series(*args[:-1])
        b = np.stack([make(rng, pb, bb, rows, False, 1) for _ in range(2)])
        stacked = _series_mul(a, b, max_power, step, min_power=min_power)
        for q in range(2):
            assert_same_bits(stacked[q], _series_mul(a[q], b[q], max_power, step,
                                                     min_power=min_power))


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


class TestEnginePad:
    """The row pad is the engine's dependency cone: every row that
    `assemble_motion` reads, 0..n_max+band_max, has the bits of a solve
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


def kinetic_complex_reference(sol, order_cap):
    """Kinetic energy terms from the complex derivative i*omega*X, squared
    as a complex series product: the real kinetic term's reference."""
    p, c = sol.params.force_exponent, sol.coeffs
    x = _x_series(p, c.amp, order_cap, sol.band_max)
    om = _omega_series(c.freq_potential, sol.band_max)
    xdot = np.zeros_like(x, dtype=np.complex128)
    for s in range(order_cap + 1):
        for j in range(min(om.shape[0], s + 1)):
            xdot[s] += 1j * om[j] * x[s - j]
    d2 = _series_mul(xdot, xdot, order_cap)
    return 0.5 * sol.params.mass * np.real(d2)


def energy_terms_loop_reference(sol, order_cap):
    """Kinetic, harmonic and anharmonic terms trimmed one (power, band) slice
    at a time, with no anharmonic product at order 0, as `energy_matrix` did
    before it sliced each term at once."""
    p, c, m = sol.params.force_exponent, sol.coeffs, sol.params.mass
    x = _x_series(p, c.amp, order_cap, sol.band_max)
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
        for k in range(3):
            res = quantum_condition_order_residual(sol_cubic, k)
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
        for k in range(3):
            # order-2 summands reach ~1e5 by n = 20, so this is ~1e-15 relative
            res = quantum_condition_order_residual(sol_quartic, k)
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
            solve_perturbative(P2, 2, 4)

    def test_quartic_parity(self, sol_quartic):
        # even bands carry no amplitude at any order
        assert set(sol_quartic.solved_orders) <= {1, 3, 5, 7, 9}
        motion = assemble_motion(sol_quartic, 0.3)
        x = motion.amplitudes
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

    def test_cached_on_solution(self, sol_cubic):
        assert sol_cubic.structure_constants[1] == pytest.approx(1.0, abs=1e-12)

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
            coeffs=CoefficientSet(2, amp, np.array(sol_cubic.coeffs.freq_potential)),
            solved_orders=sol_cubic.solved_orders,
        )
        with pytest.raises(StructureViolationError):
            extract_structure_constants(corrupted)


class TestAssembleMotion:
    def test_zero_coupling_collapses_to_sho(self, sol_cubic):
        m = assemble_motion(sol_cubic, 0.0)
        x = m.amplitudes
        n = np.arange(8)
        assert np.allclose(x.band(1)[:8], B / 2 * np.sqrt(n), rtol=1e-14)
        for alpha in (0, 2, 3):
            assert np.max(np.abs(x.band(alpha)[:8])) == 0.0

    def test_diagonal_entry_series(self, sol_cubic):
        lam = 0.1
        m = assemble_motion(sol_cubic, lam)
        a00 = closed_form_amplitude(0, 1, 0, P2)
        a20 = closed_form_amplitude(2, 1, 0, P2)
        assert a00 == pytest.approx(-1.5, rel=1e-15)
        assert m.amplitudes.get(1, 1) == pytest.approx(
            lam * a00 + lam**3 * a20, rel=1e-13
        )

    def test_assembled_array_symmetric(self, sol_cubic):
        m = assemble_motion(sol_cubic, 0.17, n_max=16)
        assert m.amplitudes.symmetry_defect() <= 1e-15

    def test_respects_solved_range(self, sol_cubic):
        with pytest.raises(DimensionMismatchError):
            assemble_motion(sol_cubic, 0.1, n_max=sol_cubic.n_max + 1)


class TestShoRoute:
    def test_adjacent_amplitude_and_energy(self):
        params = OscillatorParams(lam=0.0)
        sol = sho_solve(params, 20)
        assert sol.a(0, 1)[1] == pytest.approx(B, rel=1e-15)
        m = assemble_motion(sol, 0.0)
        assert m.amplitudes.get(1, 0) == pytest.approx(
            math.sqrt(params.hbar / (2 * params.mass * params.omega0)), rel=1e-15
        )
        em = energy_matrix(sol, 0)
        assert em.diagonal(0)[0] == pytest.approx(0.5, rel=1e-15)
        n = np.arange(21)
        assert np.allclose(em.diagonal(0), n + 0.5, rtol=1e-14)

    def test_quantum_condition_exact(self):
        sol = sho_solve(OscillatorParams(lam=0.0), 30)
        res = quantum_condition_residual(assemble_motion(sol, 0.0))
        assert np.max(np.abs(res[:29])) <= 1e-12

    def test_rejects_nonzero_coupling(self):
        with pytest.raises(ValueError):
            sho_solve(OscillatorParams(lam=0.1), 10)


class TestEnergyMatrix:
    @pytest.mark.parametrize("n_max", [12, 200])
    @pytest.mark.parametrize("p", [2, 3])
    def test_real_kinetic_term_matches_complex_product(self, p, n_max):
        sol = solve_perturbative(OscillatorParams(force_exponent=p), 2, n_max)
        em = energy_matrix(sol, 2)
        ref = kinetic_complex_reference(sol, 2)
        bc = (ref.shape[1] - 1) // 2
        assert_same_bits(em.kinetic, ref[:, bc : bc + em.band_max + 1, : n_max + 1])

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("p", [2, 3])
    def test_terms_match_slice_loop(self, p, order):
        params = OscillatorParams(mass=1.3, omega0=0.8, hbar=0.7, force_exponent=p)
        sol = solve_perturbative(params, order, order + 9)
        for order_cap in range(order + 1):
            em = energy_matrix(sol, order_cap)
            for got, ref in zip((em.kinetic, em.harmonic, em.anharmonic),
                                energy_terms_loop_reference(sol, order_cap)):
                assert_same_bits(got, ref)

    def test_diagonal_orders(self, sol_cubic):
        em = energy_matrix(sol_cubic, 2)
        n = np.arange(N_CHECK)
        assert np.allclose(em.diagonal(0)[:N_CHECK], n + 0.5, rtol=1e-13)
        assert np.max(np.abs(em.diagonal(1))) == 0.0
        target = -5.0 / 12.0 * (n**2 + n + 11.0 / 30.0)
        got = em.diagonal(2)[:N_CHECK]
        assert np.max(np.abs(got - target) / np.maximum(1.0, np.abs(target))) <= 1e-12

    def test_second_order_diagonal_pieces(self, sol_cubic):
        em = energy_matrix(sol_cubic, 2)
        n = np.arange(N_CHECK)
        poly = n**2 + n + 11.0 / 30.0
        harm = 0.5 * (5.0 * B**4 / 12.0) * poly
        kin = -0.5 * (5.0 * B**4 / 24.0) * poly
        anh = -(5.0 * B**4 / 24.0) * poly
        assert np.allclose(em.harmonic[2, 0, :N_CHECK], harm, rtol=1e-12)
        assert np.allclose(em.kinetic[2, 0, :N_CHECK], kin, rtol=1e-12)
        assert np.allclose(em.anharmonic[2, 0, :N_CHECK], anh, rtol=1e-12)

    def test_first_order_adjacent_band_contributions(self, sol_cubic):
        em = energy_matrix(sol_cubic, 2)
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
        em = energy_matrix(sol_cubic, 2)
        n = np.arange(N_CHECK, dtype=float)
        expect = np.zeros(N_CHECK)
        expect[2:] = 0.125 * 2.0 * np.sqrt(n[2:] * (n[2:] - 1))  # beta^2 = 2
        assert np.allclose(em.harmonic[0, 2, :N_CHECK], expect, atol=1e-13)
        assert np.allclose(em.kinetic[0, 2, :N_CHECK], -expect, atol=1e-13)
        assert np.max(np.abs(em.anharmonic[0, 2])) == 0.0

    def test_third_band_contributions(self, sol_cubic):
        em = energy_matrix(sol_cubic, 2)
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
        em = energy_matrix(sol_cubic, 2)
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
            coeffs=CoefficientSet(2, amp, np.array(sol_cubic.coeffs.freq_potential)),
            solved_orders=sol_cubic.solved_orders,
        )
        with pytest.raises(EnergyConservationError):
            energy_matrix(broken, 2)

    def test_order_cap_enforced(self):
        sol = solve_perturbative(P2, 1, 10)
        with pytest.raises(UnimplementedOrderError):
            energy_matrix(sol, 2)


class TestEnergyDiagonalSeries:
    def test_reference_value(self, sol_cubic):
        eds = energy_diagonal_series(sol_cubic)
        got = eds.evaluate(0.05)[0]
        assert got == pytest.approx(0.5 - (5 * 0.0025 / 12) * (11 / 30), rel=1e-12)

    def test_matches_closed_form_series(self, sol_cubic):
        eds = energy_diagonal_series(sol_cubic)
        n = np.arange(N_CHECK)
        assert np.allclose(eds.total[0][:N_CHECK], n + 0.5, rtol=1e-13)
        assert np.max(np.abs(eds.total[1])) == 0.0
        target = -5.0 / 12.0 * (n**2 + n + 11.0 / 30.0)
        assert np.allclose(eds.total[2][:N_CHECK], target, rtol=1e-12)


@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_sum_rule_fixes_adjacent_amplitude(mass, omega0, hbar):
    # beta*sqrt(n) with the solver's positive sign convention, any units
    params = OscillatorParams(mass=mass, omega0=omega0, lam=0.0, hbar=hbar)
    sol = sho_solve(params, 12)
    got = sol.a(0, 1)
    n = np.arange(13, dtype=float)
    assert np.allclose(got, params.beta * np.sqrt(n), rtol=1e-12)
    assert np.all(got[1:] > 0.0)
