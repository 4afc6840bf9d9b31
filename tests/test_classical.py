import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ampmech import (
    ClassicalSolution,
    OscillatorParams,
    QuadratureMismatchError,
    action_integral,
    balance_residuals,
    classical_solve,
    ode_residual,
    solve_perturbative,
)
from ampmech import perturb
from ampmech.core import _series_mul
from ampmech.perturb import _band_list, _engine_extent, _half, band_weight

from conftest import assert_same_bits, xp_full_bands, xp_rebuild_reference

P2 = OscillatorParams()
EPS = np.finfo(float).eps


def balance_bound(a1):
    """Bound on the harmonic-balance residuals of a solve with leading
    amplitude a1, at default units."""
    return 1e-12 * max(1.0, a1**3)


# ---------------------------------------------------------------------------
# the former classical series engine (exponential coefficients over signed
# harmonics, products by np.convolve), kept as the reference for the shared
# engine in perturb


def exp_series_reference(p, amp, max_power, harmonic_max):
    """Exponential coefficients data[s, H+g] of the orbit, weights folded."""
    orders = amp.shape[0]
    data = np.zeros((max_power + 1, 2 * harmonic_max + 1))
    for alpha in _band_list(p, min(amp.shape[1] - 1, harmonic_max)):
        w = band_weight(p, alpha)
        c = 1.0 if alpha == 0 else 0.5
        for k in range(orders):
            s = w + k
            if s > max_power:
                break
            data[s, harmonic_max + alpha] = c * amp[k, alpha]
            if alpha > 0:
                data[s, harmonic_max - alpha] = c * amp[k, alpha]
    return data


def exp_mul_reference(a, b, max_power):
    ha, hb = (a.shape[1] - 1) // 2, (b.shape[1] - 1) // 2
    out = np.zeros((max_power + 1, 2 * (ha + hb) + 1))
    for i in range(min(a.shape[0], max_power + 1)):
        for j in range(min(b.shape[0], max_power + 1 - i)):
            out[i + j] += np.convolve(a[i], b[j])
    return out


def fourier_product(a, b):
    """Product of two cosine series, returned as a cosine series, through the
    step-0 `_series_mul`: each input maps to symmetric exponential
    coefficients (X_alpha = X_{-alpha} = c_alpha / 2, X_0 = c_0), and the
    product over signed harmonics folds back."""
    def to_exp(c):
        return np.concatenate([c[:0:-1] / 2, c[:1], c[1:] / 2])[None, :, None]

    conv = _series_mul(to_exp(a), to_exp(b), 0, step=0)[0, :, 0]
    h = (conv.size - 1) // 2
    return np.concatenate([conv[h : h + 1], conv[h + 1 :] + conv[h - 1 :: -1]])


def balance_residual_reference(params, amp, omega_coeffs, power, harmonic_max,
                               absolute=False):
    """lam^power coefficient of the harmonic-balance residual per signed
    harmonic; with `absolute`, the sum of the absolute values of its terms
    (amp and omega_coeffs must then be nonnegative)."""
    p = params.force_exponent
    x = exp_series_reference(p, amp, power, harmonic_max)
    om2 = np.convolve(omega_coeffs, omega_coeffs)[: power + 1]
    g2 = (np.arange(-harmonic_max, harmonic_max + 1) ** 2).astype(float)
    sign = 1.0 if absolute else -1.0
    res = params.omega0**2 * x[power].copy()
    for s in range(min(om2.size, power + 1)):
        res += sign * om2[s] * g2 * x[power - s]
    if power >= 1:
        xp = exp_mul_reference(x, x, power - 1)
        if p == 3:
            xp = exp_mul_reference(xp, x, power - 1)
        hc = (xp.shape[1] - 1) // 2
        res += xp[power - 1, hc - harmonic_max : hc + harmonic_max + 1]
    return res


def balance_residuals_per_power_reference(sol):
    """`balance_residuals` as it was before it read `_eom_terms`: x rebuilt
    from the tables at every power, x^2 carried across powers."""
    params, order = sol.params, sol.order
    p = params.force_exponent
    _, t_max, band_eng, _ = _engine_extent(p, order)
    amp = sol.amp[:, :, None]
    om = np.multiply.outer(sol.omega_coeffs, np.arange(-band_eng, band_eng + 1))[:, :, None]
    x2 = np.zeros((t_max, 4 * band_eng + 1, 1))
    res = []
    for t in range(t_max + 1):
        x, _ = perturb._x_series(p, amp, t, band_eng, step=0)
        xp_top = None
        if t:
            x2[t - 1] = _series_mul(x, x, t - 1, step=0, min_power=t - 1)[0]
            xp_top = xp_full_bands(p, x, x2, t - 1, step=0)
        res.append(perturb._eom_residual_coefficient(params, x, om, t, xp_top,
                                                     range(-band_eng, band_eng + 1)))
    out = np.zeros((order + 1, band_eng + 1))
    for alpha in _band_list(p, band_eng):
        w = band_weight(p, alpha)
        for k in range(min(order, t_max - w) + 1):
            out[k, alpha] = res[w + k][band_eng + alpha, 0] / _half(alpha)
    return out


def classical_solve_reference(params, order, a1, absolute=False):
    """The former harmonic-balance loop: (amp, omega_coeffs). With `absolute`
    every term enters by its absolute value, which gives for each
    coefficient the size of the terms summed into it, through every order."""
    p = params.force_exponent
    omega0 = params.omega0
    # the quantum engine's extent: every harmonic through band_eng is solved
    _, t_max, band_eng, _ = _engine_extent(p, order)
    amp = np.zeros((order + 1, band_eng + 1))
    omega_coeffs = np.zeros(order + 1)
    omega_coeffs[0] = omega0
    amp[0, 1] = a1
    sign = 1.0 if absolute else -1.0
    for t in range(1, t_max + 1):
        res = balance_residual_reference(params, amp, omega_coeffs, t, band_eng,
                                         absolute)
        if t <= order:
            omega_coeffs[t] = res[band_eng + 1] / (omega0 * a1)
        for alpha in _band_list(p, band_eng):
            if alpha == 1:
                continue
            k = t - band_weight(p, alpha)
            if k < 0 or k > order:
                continue
            denom = (1.0 - alpha * alpha) * omega0**2 * _half(alpha)
            if absolute:
                denom = abs(denom)
            amp[k, alpha] = sign * res[band_eng + alpha] / denom
        if p == 2 and 1 <= t <= order + 1:
            amp[t - 1, 0] = sign * res[band_eng] / omega0**2
    return amp, omega_coeffs


class TestClassicalSolve:
    def test_lowest_order_coefficients(self):
        sol = classical_solve(OscillatorParams(lam=0.01), 2, a1=1.0)
        assert sol.amp[0, 0] == pytest.approx(-0.5, rel=1e-14)
        assert sol.amp[0, 2] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert sol.amp[0, 3] == pytest.approx(1.0 / 48.0, rel=1e-14)
        assert sol.omega_coeffs[0] == 1.0

    def test_lowest_order_scales_with_amplitude(self):
        a1 = 1.7
        sol = classical_solve(P2, 2, a1=a1)
        assert sol.amp[0, 0] == pytest.approx(-(a1**2) / 2.0, rel=1e-13)
        assert sol.amp[0, 2] == pytest.approx(a1**2 / 6.0, rel=1e-13)
        assert sol.amp[0, 3] == pytest.approx(a1 * sol.amp[0, 2] / 8.0, rel=1e-13)

    def test_second_order_frequency(self):
        a1 = 1.3
        sol = classical_solve(P2, 2, a1=a1)
        assert sol.omega_coeffs[1] == 0.0
        assert sol.omega_coeffs[2] == pytest.approx(-5.0 * a1**2 / 12.0, rel=1e-13)

    def test_zero_coupling_is_pure_cosine(self):
        sol = classical_solve(OscillatorParams(lam=0.0), 2, a1=1.0)
        c = sol.cosine_coefficients(0.0)
        assert c[1] == 1.0
        assert np.max(np.abs(np.delete(c, 1))) == 0.0
        assert sol.omega(0.0) == 1.0

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            classical_solve(P2, 2)
        with pytest.raises(ValueError):
            classical_solve(P2, 2, a1=1.0, action=3.0)
        # each guard names the input it refuses
        with pytest.raises(ValueError, match="action must be positive"):
            classical_solve(P2, 2, action=0.0)
        with pytest.raises(ValueError, match="leading amplitude must be positive"):
            classical_solve(P2, 2, a1=0.0)

    def test_quartic_frequency_hardening(self):
        a1 = 1.0
        sol = classical_solve(OscillatorParams(force_exponent=3), 2, a1=a1)
        assert sol.omega_coeffs[1] == pytest.approx(3.0 * a1**2 / 8.0, rel=1e-13)
        # only odd harmonics present
        assert np.max(np.abs(sol.amp[:, 0::2])) == 0.0

    @given(st.floats(0.3, 2.5), st.integers(0, 2))
    def test_balance_residuals_vanish(self, a1, order):
        sol = classical_solve(P2, order, a1=a1)
        res = balance_residuals(sol)
        assert np.max(np.abs(res)) <= balance_bound(a1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_balance_residuals_read_every_harmonic(self, p):
        # scaling a^(k)_alpha by 1 + f moves its own balance equation by
        # |1 - alpha^2| omega0^2 f |a^(k)_alpha|, at least f |a^(k)_alpha| for
        # alpha != 1 at default units; the one nonzero fundamental coefficient
        # is a1 = 1, which enters the lam^0 equation of harmonic 2 as a1^2 / 2.
        # The smallest nonzero coefficient of these solves is 9.5e-7
        # (quartic, harmonic 9), so f = 1e-4 moves a residual by at least
        # 9.5e-11, 95 times the bound of a clean solve (its bracket, 80, makes
        # the least margin 7.6e3 in fact)
        f = 1e-4
        sol = classical_solve(OscillatorParams(force_exponent=p), 4, a1=1.0)
        assert np.max(np.abs(balance_residuals(sol))) <= balance_bound(1.0)
        tried = 0
        for k, alpha in zip(*np.nonzero(sol.harmonics)):
            amp = np.array(sol.amp, copy=True)
            amp[k, alpha] *= 1.0 + f
            bad = ClassicalSolution(sol.params, sol.order, amp, sol.omega_coeffs)
            assert np.max(np.abs(balance_residuals(bad))) > balance_bound(1.0), (k, alpha)
            tried += 1
        assert tried > sol.harmonic_max


class TestSharedEngine:
    """Harmonic balance runs on the perturb engine with the row shift off;
    the former convolution engine is the reference."""

    @given(
        st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 3),
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 6),
    )
    def test_unshifted_product_is_convolution(self, seed, pa, pb, ha, hb, max_power):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(pa, 2 * ha + 1))
        b = rng.normal(size=(pb, 2 * hb + 1))
        got = _series_mul(a[:, :, None], b[:, :, None], max_power, step=0)[:, :, 0]
        ref = exp_mul_reference(a, b, max_power)
        # each entry sums at most min(pa, pb) * (2 min(ha, hb) + 1) products,
        # rounded in another order by each side (20,000 random cases reached
        # half of terms * EPS times the size)
        terms = min(pa, pb) * (2 * min(ha, hb) + 1)
        bound = 2 * terms * EPS * exp_mul_reference(np.abs(a), np.abs(b), max_power)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)

    @given(
        st.sampled_from((2, 3)), st.integers(0, 2), st.floats(0.01, 100.0),
        st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.booleans(),
    )
    def test_solve_matches_convolution_engine(
        self, p, order, a1, omega0, mass, by_action
    ):
        params = OscillatorParams(mass=mass, omega0=omega0, force_exponent=p)
        if by_action:
            sol = classical_solve(params, order, action=a1**2 * math.pi * mass * omega0)
            a1 = float(sol.amp[0, 1])
        else:
            sol = classical_solve(params, order, a1=a1)
        amp, om = classical_solve_reference(params, order, a1)
        amp_size, om_size = classical_solve_reference(params, order, a1, absolute=True)
        # the two engines sum the same terms in another order; 4 orders of
        # residuals at most, each a few tens of rounded operations deep
        # (20,000 random solves reached 3.2 * EPS times the size)
        assert np.all(np.abs(sol.amp - amp) <= 64 * EPS * amp_size)
        assert np.all(np.abs(sol.omega_coeffs - om) <= 64 * EPS * om_size)

    @pytest.mark.parametrize("p, by_action", [(2, False), (3, False), (2, True)])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_printed_solves_bit_identical(self, p, by_action, order):
        # the solves `classical --a1 1.0` and the golden `--level 40` print
        params = OscillatorParams(lam=0.01, force_exponent=p)
        if by_action:
            sol = classical_solve(params, order, action=40 * params.h)
            a1 = math.sqrt(40 * params.h / (math.pi * params.mass * params.omega0))
        else:
            sol = classical_solve(params, order, a1=1.0)
            a1 = 1.0
        amp, om = classical_solve_reference(params, order, a1)
        assert_same_bits(sol.amp, amp)
        assert_same_bits(sol.omega_coeffs, om)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [2, 3])
    def test_carried_powers_match_rebuild(self, monkeypatch, p, order):
        # x^2 carried across powers against x^p rebuilt at every power
        params = OscillatorParams(mass=1.3, omega0=0.8, lam=0.01, force_exponent=p)
        sol = classical_solve(params, order, a1=0.9)
        res = balance_residuals(sol)
        monkeypatch.setattr(perturb, "_xp_coefficient", xp_rebuild_reference)
        ref = classical_solve(params, order, a1=0.9)
        assert_same_bits(sol.amp, ref.amp)
        assert_same_bits(sol.omega_coeffs, ref.omega_coeffs)
        assert_same_bits(res, balance_residuals(sol))

    @pytest.mark.parametrize("units", [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7)], ids=str)
    @pytest.mark.parametrize("order", range(9))
    @pytest.mark.parametrize("p", [2, 3])
    def test_balance_residuals_match_per_power_rebuild(self, p, order, units):
        m, w0, hbar = units
        params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, lam=0.01, force_exponent=p)
        sol = classical_solve(params, order, action=40 * params.h)
        assert_same_bits(balance_residuals(sol), balance_residuals_per_power_reference(sol))

    def test_order_cap_is_the_quantum_one(self):
        with pytest.raises(ValueError):
            classical_solve(P2, -1, a1=1.0)


class TestOrderStability:
    """A solve publishes the quantum public bands, and the engine extent
    solves every harmonic they read: raising the order leaves them alone."""

    @pytest.mark.parametrize("units, a1", [({}, 1.0), ({"mass": 1.3, "omega0": 0.8}, 0.9)])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [2, 3])
    def test_published_harmonics_match_higher_order(self, p, order, units, a1):
        params = OscillatorParams(lam=0.01, force_exponent=p, **units)
        sol = classical_solve(params, order, a1=a1)
        ref = classical_solve(params, order + 2, a1=a1)
        assert sol.harmonic_max == (order + 1 if p == 2 else 2 * order + 1)
        assert_same_bits(sol.harmonics, ref.amp[: order + 1, : sol.harmonic_max + 1])
        assert_same_bits(sol.omega_coeffs, ref.omega_coeffs[: order + 1])

    def test_cubic_order_two_third_harmonic(self):
        # 79/2304, which the former guard harmonic, never solved, cut short
        sol = classical_solve(OscillatorParams(lam=0.01), 2, a1=1.0)
        assert sol.harmonics[2, 3] == 79 / 2304
        assert sol.harmonics.shape == (3, 4)


class TestFourierProduct:
    """The step-0 series product is the product of cosine series."""

    def test_double_angle(self):
        cos = np.array([0.0, 1.0])
        sq = fourier_product(cos, cos)
        assert sq == pytest.approx(np.array([0.5, 0.0, 0.5]))

    def test_zero_series(self):
        out = fourier_product(np.array([0.0, 1.0, 0.5]), np.zeros(3))
        assert np.max(np.abs(out)) == 0.0

    @given(st.integers(0, 2**31 - 1))
    def test_matches_sampled_product(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        prod = fourier_product(a, b)
        theta = 2.0 * math.pi * np.arange(64) / 64.0
        alphas = np.arange(5)
        fa = np.cos(np.outer(theta, alphas)) @ a
        fb = np.cos(np.outer(theta, alphas)) @ b
        spectrum = np.fft.rfft(fa * fb) / 64.0
        sampled = np.real(spectrum[: prod.size])
        sampled[1:] *= 2.0
        assert np.max(np.abs(prod - sampled)) <= 1e-12


class TestAction:
    def test_single_harmonic(self):
        sol = classical_solve(OscillatorParams(lam=0.0), 2, a1=1.0)
        assert action_integral(sol, lam=0.0) == pytest.approx(math.pi, rel=1e-12)

    def test_quantized_amplitude_gives_nh(self):
        n = 7
        params = OscillatorParams(lam=0.0)
        sol = classical_solve(params, 2, a1=params.beta * math.sqrt(n))
        assert action_integral(sol, lam=0.0) == pytest.approx(
            n * params.h, rel=1e-12
        )

    def test_zero_solution(self):
        sol = ClassicalSolution(
            params=P2, order=0, amp=np.zeros((1, 3)), omega_coeffs=np.array([1.0])
        )
        assert action_integral(sol, lam=0.0) == 0.0

    @pytest.mark.parametrize("a1", [1e-3, 0.01, 1.0, 3.0])
    @pytest.mark.parametrize("p", [2, 3])
    def test_quadrature_mismatch_is_judged_relative_to_the_action(self, p, a1, monkeypatch):
        # xdot grown by 1 + 1e-6 moves the quadrature by 2e-6 J, which the
        # cross-check catches at any size of J: at a1 = 0.01, J = 3.1e-4,
        # and an absolute bound of 1e-8 below J = 1 passed it
        sol = classical_solve(OscillatorParams(lam=0.01, force_exponent=p), 2, a1=a1)
        assert action_integral(sol, sol.params.lam) == pytest.approx(math.pi * a1**2, rel=0.1)
        xdot = ClassicalSolution.xdot_of_t
        monkeypatch.setattr(ClassicalSolution, "xdot_of_t",
                            lambda self, t, lam: (1.0 + 1e-6) * xdot(self, t, lam))
        with pytest.raises(QuadratureMismatchError):
            action_integral(sol, sol.params.lam)

    def test_action_prescription_matches_leading_quantization(self):
        n = 11
        sol = classical_solve(P2, 2, action=n * P2.h)
        assert sol.amp[0, 1] == pytest.approx(P2.beta * math.sqrt(n), rel=1e-13)


class TestOdeResidual:
    def test_zero_coupling_exact(self):
        sol = classical_solve(OscillatorParams(lam=0.0), 2, a1=1.0)
        assert ode_residual(sol, 0.0) <= 1e-12

    def test_second_order_scaling(self):
        sol = classical_solve(OscillatorParams(lam=0.01), 2, a1=1.0)
        ratio = ode_residual(sol, 0.01) / ode_residual(sol, 0.005)
        assert 8.0 * 0.7 <= ratio <= 8.0 * 1.3

    def test_zeroth_order_scaling(self):
        sol = classical_solve(OscillatorParams(lam=0.01), 0, a1=1.0)
        ratio = ode_residual(sol, 0.01) / ode_residual(sol, 0.005)
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    def test_sample_count_guard(self):
        sol = classical_solve(P2, 1, a1=1.0)
        with pytest.raises(ValueError):
            ode_residual(sol, 0.01, n_samples=8)


class TestCorrespondence:
    def test_large_n_amplitude_ratios(self, sol_cubic):
        n = 1000
        quantum = solve_perturbative(P2, 2, n + 4)
        cl = classical_solve(P2, 2, action=n * P2.h)
        a1_ratio = quantum.a(0, 1)[n] / cl.amp[0, 1]
        a2_ratio = quantum.a(0, 2)[n] / cl.amp[0, 2]
        assert abs(a1_ratio - 1.0) <= 1e-3
        assert abs(a2_ratio - 1.0) <= 1e-3
        # the two-step band tracks sqrt(n(n-1))/n
        assert a2_ratio == pytest.approx(
            math.sqrt(n * (n - 1)) / n, rel=1e-12
        )
        om2_ratio = quantum.omega_band(2, 1)[n] / cl.omega_coeffs[2]
        assert abs(om2_ratio - 1.0) <= 1e-2

    def test_ratio_improves_with_n(self):
        # a1 matches identically at quantized action; the two-step band
        # approaches its classical value like sqrt(n(n-1))/n
        deficits = []
        for n in (10, 100, 1000):
            quantum = solve_perturbative(P2, 1, n + 4)
            cl = classical_solve(P2, 1, action=n * P2.h)
            assert quantum.a(0, 1)[n] == pytest.approx(cl.amp[0, 1], rel=1e-12)
            deficits.append(abs(quantum.a(0, 2)[n] / cl.amp[0, 2] - 1.0))
        assert deficits[0] > deficits[1] > deficits[2]
        assert deficits[2] <= 1e-3
