import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import ampmech.cli
from ampmech import (
    NumericError,
    OscillatorParams,
    PerturbSolution,
    PlateauError,
    SpectrumResult,
    TruncatedOperator,
    build_hamiltonian,
    default_lambda_grid,
    diagonalize,
    energy_diagonal_series,
    lambda_series_fit,
    motion_from_spectrum,
    position_matrix,
    quantum_condition_residual,
    rspt,
    spectrum,
)
from conftest import assert_same_bits

P2 = OscillatorParams()  # lam = 0.05, cubic force
B = math.sqrt(2.0)
EPS = np.finfo(float).eps
UNITS = [{}, {"mass": 2.3, "omega0": 0.4, "hbar": 0.7}, {"mass": 0.5, "omega0": 3.0, "hbar": 1.7}]


def dense_hamiltonian_reference(params, n):
    """H built as before the banded build: dense N x N products of the
    tridiagonal ladder matrices, symmetrized as `TruncatedOperator` does."""
    x = position_matrix(params, n)
    off = math.sqrt(params.mass * params.hbar * params.omega0 / 2.0) * np.sqrt(
        np.arange(1, n, dtype=float))
    p_over_i = np.diag(off, -1) - np.diag(off, 1)
    x2 = x @ x
    h = -(p_over_i @ p_over_i) / (2.0 * params.mass) + 0.5 * params.mass * params.omega0**2 * x2
    if params.force_exponent == 2:
        h = h + params.mass * params.lam / 3.0 * (x2 @ x)
    else:
        h = h + params.mass * params.lam / 4.0 * (x2 @ x2)
    return 0.5 * (h + h.T)


def series_energy(n, lam):
    return (n + 0.5) - 5.0 * lam**2 / 12.0 * (n**2 + n + 11.0 / 30.0)


class TestHamiltonian:
    def test_uncoupled_is_diagonal(self):
        # products inside the truncation corrupt only the last corner entry
        h = build_hamiltonian(OscillatorParams(lam=0.0), 20).matrix
        expect = np.diag(np.arange(20) + 0.5)
        assert np.max(np.abs((h - expect)[:19, :19])) <= 1e-14
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_cubic_band_structure(self):
        h = build_hamiltonian(P2, 20).matrix
        for shift in range(4, 20):
            assert np.max(np.abs(np.diag(h, shift))) == 0.0
        assert np.max(np.abs(np.diag(h, 1))) > 0.0
        assert np.max(np.abs(np.diag(h, 3))) > 0.0

    def test_ground_energy_near_second_order_series(self, cached_spectrum):
        spec = cached_spectrum(0.05)
        assert abs(spec.eigenvalues[0] - series_energy(0, 0.05)) <= 5e-5

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            TruncatedOperator(P2, np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_minimum_basis(self):
        with pytest.raises(ValueError):
            build_hamiltonian(P2, 4)

    @pytest.mark.parametrize("units", UNITS, ids=["default", "units-a", "units-b"])
    @pytest.mark.parametrize("force", [2, 3])
    @pytest.mark.parametrize("n", [8, 80, 300])
    def test_banded_matches_dense_reference(self, n, force, units):
        params = OscillatorParams(force_exponent=force, **units)
        h = build_hamiltonian(params, n).matrix
        ref = dense_hamiltonian_reference(params, n)
        assert np.max(np.abs(h - ref)) <= 4.0 * EPS * np.max(np.abs(ref))


class TestDiagonalize:
    def test_diagonal_matrix(self):
        op = TruncatedOperator(P2, np.diag([3.0, 1.0, 2.0]))
        res = diagonalize(op)
        assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=0)
        assert np.allclose(np.abs(res.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_closed_form(self):
        a, b = 1.3, 0.4
        m = np.array([[a, b], [b, a]])
        res = diagonalize(TruncatedOperator(P2, m))
        assert res.eigenvalues[0] == pytest.approx(a - b, rel=1e-14)
        assert res.eigenvalues[-1] == pytest.approx(a + b, rel=1e-14)

    def test_orthonormal_eigenvectors(self, cached_spectrum):
        spec = cached_spectrum(0.05)
        v = spec.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[0]))) <= 1e-10

    def test_sho_amplitudes_unchanged_in_eigenbasis(self):
        # the displaced corner eigenvalue sorts into the middle of the
        # spectrum, so compare well below it
        params = OscillatorParams(lam=0.0)
        res = diagonalize(build_hamiltonian(params, 24))
        got = res.amplitudes[:10, :10]
        assert np.max(np.abs(got - position_matrix(params, 24)[:10, :10])) <= 1e-12

    def test_amplitudes_symmetric(self, cached_spectrum):
        spec = cached_spectrum(0.05)
        assert np.max(np.abs(spec.amplitudes - spec.amplitudes.T)) == 0.0

    @pytest.mark.parametrize("force", [2, 3])
    def test_amplitudes_equal_eager_formula(self, force, cached_spectrum):
        spec = cached_spectrum(0.05, force_exponent=force)
        v = spec.eigenvectors
        amps = v.T @ position_matrix(spec.params, spec.basis_size) @ v
        assert_same_bits(spec.amplitudes, 0.5 * (amps + amps.T))

    @pytest.mark.parametrize("force", [2, 3])
    def test_one_amplitude_matches_matrix(self, force, cached_spectrum):
        spec = cached_spectrum(0.05, force_exponent=force)
        amps = spec.amplitudes
        got = np.array([[spec.amplitude(k, n) for n in range(12)] for k in range(12)])
        assert np.max(np.abs(got - amps[:12, :12])) <= spec.basis_size * EPS * np.max(np.abs(amps))

    @pytest.mark.parametrize("n", [8, 80, 300])
    def test_parity_blocks_match_full_eigh(self, n):
        op = build_hamiltonian(OscillatorParams(lam=0.5, force_exponent=3), n)
        got = diagonalize(op).eigenvalues
        full = np.linalg.eigvalsh(op.matrix)
        assert np.max(np.abs(got - full)) <= n * EPS * np.max(np.abs(full))

    def test_same_parity_quartic_amplitudes_are_zero(self, cached_spectrum):
        spec = cached_spectrum(0.05, force_exponent=3)
        # every eigenstate has a definite parity
        odd = np.all(spec.eigenvectors[0::2] == 0.0, axis=0)
        assert np.array_equal(~odd, np.all(spec.eigenvectors[1::2] == 0.0, axis=0))
        same = odd[:, None] == odd[None, :]
        assert np.all(spec.amplitudes[same] == 0.0)
        assert spec.amplitudes[0, 1] != 0.0

    @pytest.mark.parametrize("force, call", [(2, 0), (3, 0), (3, 1)],
                             ids=["cubic", "quartic-even", "quartic-odd"])
    def test_tampered_eigensolve_raises(self, force, call, monkeypatch):
        eigh, calls = np.linalg.eigh, []

        def tampered(block):
            evals, evecs = eigh(block)
            if len(calls) == call:
                evals = evals + 1e-9 * np.max(np.abs(evals))
            calls.append(block.shape)
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", tampered)
        op = build_hamiltonian(OscillatorParams(force_exponent=force), 80)
        with pytest.raises(NumericError):
            diagonalize(op)
        assert calls[call] == ((80, 80) if force == 2 else (40, 40))


def old_symmetry_verdict(m):
    """True when TruncatedOperator accepted m before it checked and
    symmetrized through one work array: the old comparisons, kept as the
    mutant the refusal tests must catch."""
    scale = float(np.max(np.abs(m))) or 1.0
    return not float(np.max(np.abs(m - m.T))) > 1e-14 * scale


def old_diagonalize(op):
    """`diagonalize` before it formed the residual and the sign flips in
    place, with its old residual test `residual > bound`."""
    h = op.matrix
    n = op.basis_size
    if n > 1 and not np.any(h[0::2, 1::2]):
        blocks = (slice(0, None, 2), slice(1, None, 2))
    else:
        blocks = (slice(None),)
    solved = []
    for rows in blocks:
        block = h[rows, rows]
        evals, evecs = np.linalg.eigh(block)
        solved.append((block, evals, evecs))
    evals = np.concatenate([e for _, e, _ in solved])
    scale = float(np.max(np.abs(evals))) or 1.0
    for block, e, v in solved:
        residual = np.max(np.abs(block @ v - v * e))
        if residual > 1e-10 * scale:
            raise NumericError("residual")
    if len(solved) == 1:
        evecs = solved[0][2]
    else:
        evecs = np.zeros((n, n))
        even = solved[0][1].size
        evecs[0::2, :even] = solved[0][2]
        evecs[1::2, even:] = solved[1][2]
        order = np.argsort(evals, kind="stable")
        evals, evecs = evals[order], evecs[:, order]
    flips = np.sign(evecs[np.abs(evecs).argmax(axis=0), np.arange(evecs.shape[1])])
    flips[flips == 0] = 1.0
    return SpectrumResult(params=op.params, basis_size=op.basis_size,
                          eigenvalues=evals, eigenvectors=evecs * flips)


@st.composite
def symmetric_matrices(draw, min_size=1, max_size=12):
    """Exactly symmetric matrices, some of them parity-block diagonal."""
    n = draw(st.integers(min_size, max_size))
    a = draw(hnp.arrays(np.float64, (n, n), elements=st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -2.5]))))
    m = a + a.T
    if draw(st.booleans()):
        m[0::2, 1::2] = 0.0
        m[1::2, 0::2] = 0.0
    return m


class TestOperatorValidation:
    @given(symmetric_matrices(), st.data())
    def test_symmetrization_has_the_bits_of_the_mean(self, sym, data):
        # relative asymmetries below 1e-14 pass, so each entry pair is averaged
        rel = data.draw(hnp.arrays(np.float64, sym.shape, elements=st.floats(-4e-15, 4e-15)))
        m = sym * (1.0 + rel)
        assert_same_bits(TruncatedOperator(P2, m).matrix, 0.5 * (m + m.T))

    @given(symmetric_matrices(min_size=2), st.integers(0, 11), st.integers(0, 10),
           st.one_of(st.floats(0.5, 2.0), st.sampled_from([1.0 - EPS, 1.0, 1.0 + 2 * EPS])))
    def test_symmetry_verdict_flips_at_the_same_bound(self, m, i, shift, factor):
        # an off-diagonal entry moved by about the bound 1e-14 * max |m|
        n = len(m)
        i, j = i % n, (i + 1 + shift % (n - 1)) % n
        m[i, j] += factor * 1e-14 * (np.max(np.abs(m)) or 1.0)
        try:
            TruncatedOperator(P2, m)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == old_symmetry_verdict(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, 1)], [(1, 0)], [(0, 2), (2, 0)]],
                             ids=["diagonal", "upper", "lower", "pair"])
    def test_nonfinite_entry_refused(self, bad, cells):
        m = np.eye(3)
        for cell in cells:
            m[cell] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TruncatedOperator(P2, m)
        with np.errstate(invalid="ignore"):
            assert old_symmetry_verdict(m)


class TestDiagonalizeInPlace:
    @given(symmetric_matrices())
    def test_matches_the_old_function(self, m):
        op = TruncatedOperator(P2, m)
        got, ref = diagonalize(op), old_diagonalize(op)
        assert_same_bits(got.eigenvalues, ref.eigenvalues)
        assert_same_bits(got.eigenvectors, ref.eigenvectors)

    @pytest.mark.parametrize("force", [2, 3])
    def test_hamiltonians_match_the_old_function(self, force):
        op = build_hamiltonian(OscillatorParams(force_exponent=force), 120)
        got, ref = diagonalize(op), old_diagonalize(op)
        assert_same_bits(got.eigenvalues, ref.eigenvalues)
        assert_same_bits(got.eigenvectors, ref.eigenvectors)

    @pytest.mark.parametrize("nan_in", ["eigenvalues", "eigenvectors"])
    def test_nan_residual_raises(self, nan_in, monkeypatch):
        eigh = np.linalg.eigh

        def nan_eigh(block):
            evals, evecs = eigh(block)
            if nan_in == "eigenvalues":
                return np.full_like(evals, np.nan), evecs
            return evals, np.full_like(evecs, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        op = build_hamiltonian(P2, 8)
        with pytest.raises(NumericError):
            diagonalize(op)
        # the old test `residual > bound` is False for nan: no error
        old_diagonalize(op)


class TestOracleMemory:
    def test_cubic_oracle_peaks_below_eight_matrices(self):
        n = 200
        argv = ["oracle", "--basis-size", str(n)]
        ampmech.cli.run(argv, stream=io.StringIO())  # warm-up
        tracemalloc.start()
        try:
            assert ampmech.cli.run(argv, stream=io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the padded copy of `BandAmplitudeArray.from_dense` sets it, ~7.5 N^2
        assert peak <= 8 * n * n * 8


class TestSpectrumVetting:
    def test_grid_spectra_never_form_amplitudes(self, monkeypatch):
        made = []

        def recorded(*args, **kwargs):
            made.append(spectrum(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(ampmech.cli, "spectrum", recorded)
        assert ampmech.cli.run(["oracle"], stream=io.StringIO()) == 0
        main, *grid = made
        assert "amplitudes" in vars(main) and len(grid) == 4
        assert all("amplitudes" not in vars(s) for s in grid)

    def test_plateau_reported(self, cached_spectrum):
        spec = cached_spectrum(0.05)
        assert spec.plateau is not None
        assert np.max(spec.plateau) <= 1e-8

    def test_quartic_basis_growth(self):
        p3 = OscillatorParams(lam=0.1, force_exponent=3)
        e60 = diagonalize(build_hamiltonian(p3, 60)).eigenvalues[:6]
        e80 = diagonalize(build_hamiltonian(p3, 80)).eigenvalues[:6]
        assert np.max(np.abs(e80 - e60)) <= 1e-8

    def test_deep_cubic_coupling_rejected(self):
        with pytest.raises(ValueError):
            spectrum(OscillatorParams(lam=0.2), 80)

    def test_deep_coupling_override_plateau_guard(self):
        # a coupling this deep has no stable plateau at modest bases
        with pytest.raises(PlateauError):
            spectrum(OscillatorParams(lam=0.35), 40, allow_deep_coupling=True)


def _scaled_amplitudes(spec):
    v = spec.eigenvectors
    amps = v.T @ position_matrix(spec.params, spec.basis_size) @ v
    amps[0, 1] = amps[1, 0] = (1.0 + 1e-6) * amps[1, 0]
    return amps


class TestInjectedViolations:
    """Each check of `oracle` whose observed value the banded build moved
    still fails when its input is tampered with."""

    @pytest.mark.parametrize("owner, name, tamper, failing", [
        (SpectrumResult, "amplitudes", property(_scaled_amplitudes), {"thomas-kuhn-sum-rule"}),
        (SpectrumResult, "amplitude",
         lambda self, k, n, one=SpectrumResult.amplitude: 1.05 * one(self, k, n),
         {"series-fit-x-1-1", "series-fit-x-2-0"}),
        (SpectrumResult, "omega_exact",
         lambda self, n, m: 1.05 * (self.eigenvalues[n] - self.eigenvalues[m]),
         {"series-fit-omega-1-0"}),
        # the fit target is the solver's lam^2 frequency, not a copy of it
        (PerturbSolution, "omega_band",
         lambda self, k, alpha=1, one=PerturbSolution.omega_band:
             (1.1 if k == 2 else 1.0) * one(self, k, alpha),
         {"series-fit-omega-1-0"}),
    ], ids=["thomas-kuhn", "amplitude-fits", "frequency-fit", "frequency-target"])
    def test_tampered_input_fails_its_check(self, owner, name, tamper, failing, monkeypatch):
        monkeypatch.setattr(owner, name, tamper)
        out = io.StringIO()
        assert ampmech.cli.run(["oracle"], stream=out) == 1
        checks = json.loads(out.getvalue())["checks"]
        assert {c["id"] for c in checks if not c["pass"]} == failing


def rspt_state(params, n, order=1):
    """|n) through the given order, over the unperturbed states."""
    states = rspt(params, n + 1, order)[1]
    return states.sum(axis=0)[:, n]


def rspt_energy(params, n, order=2):
    return rspt(params, n + 1, order)[0].sum(axis=0)[n]


class TestRsptState:
    def test_connectivity_pattern(self):
        n = 4
        for p, reach in ((2, {1, 3}), (3, {2, 4})):
            c = rspt_state(OscillatorParams(force_exponent=p), n)
            assert set(np.nonzero(c)[0]) == {n} | {n + s * r for r in reach for s in (-1, 1)}
            assert c[n] == 1.0

    def test_two_step_amplitude_through_first_order(self):
        # <n-2|x|n> grows a first-order amplitude matching the banded
        # solver's two-step band via the coupling substitution
        lam = 0.01
        params = OscillatorParams(lam=lam)
        n = 5
        ket = rspt_state(params, n)
        bra = np.zeros(ket.size)
        bra[: n + 2] = rspt_state(params, n - 2)
        amp = bra @ position_matrix(params, ket.size) @ ket
        target = lam * params.beta**2 * math.sqrt(n * (n - 1)) / 12.0
        assert amp == pytest.approx(target, rel=1e-12)

    def test_overlap_with_exact_state(self, cached_spectrum):
        # the state is exact through first order, and an overlap deficit is
        # quadratic in the state error: 1 - |<approx|exact>| shrinks 16x
        # under coupling halving
        n = 2
        deficits = []
        for lam in (0.01, 0.005):
            spec = cached_spectrum(lam, basis_size=80, check_plateau=False)
            c = np.zeros(80)
            first = rspt_state(OscillatorParams(lam=lam), n)
            c[: first.size] = first / np.linalg.norm(first)
            overlap = abs(c @ spec.eigenvectors[:, n])
            deficits.append(1.0 - overlap)
        assert deficits[0] <= 1e-6
        assert deficits[0] / deficits[1] == pytest.approx(16.0, rel=0.3)


class TestRsptEnergy:
    def test_matches_series_identically(self):
        for lam in (0.05, 0.02):
            energies = rspt(OscillatorParams(lam=lam), 11, 2)[0].sum(axis=0)
            for n in range(11):
                assert energies[n] == pytest.approx(series_energy(n, lam), abs=1e-12)

    def test_zero_coupling(self):
        assert rspt_energy(OscillatorParams(lam=0.0), 3) == 3.5

    def test_quartic_against_diagonalization(self, cached_spectrum):
        lam = 0.05
        params = OscillatorParams(lam=lam, force_exponent=3)
        e_rspt = rspt_energy(params, 0)
        e_exact = cached_spectrum(lam, force_exponent=3).eigenvalues[0]
        gap1 = abs(e_rspt - e_exact)
        params2 = OscillatorParams(lam=lam / 2, force_exponent=3)
        gap2 = abs(
            rspt_energy(params2, 0)
            - cached_spectrum(lam / 2, force_exponent=3).eigenvalues[0]
        )
        assert gap1 <= 1e-4
        assert 8.0 * 0.7 <= gap1 / gap2 <= 8.0 * 1.3


class TestSeriesFit:
    def test_pure_quadratic(self):
        fit = lambda_series_fit(
            lambda l: 3.0 * l**2, np.array([0.01, 0.02, 0.03, 0.04, 0.05]), 2
        )
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-8)
        assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-8)
        assert fit.coefficients[2] == pytest.approx(3.0, abs=1e-8)
        assert not fit.ill_conditioned

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lambda_series_fit(lambda l: l, np.array([0.01, 0.02]), 2)
        with pytest.raises(ValueError):
            lambda_series_fit(lambda l: l, np.array([0.01, 0.01, 0.02, 0.03]), 1)

    def test_default_grid_geometric(self):
        grid = default_lambda_grid(0.05)
        assert grid[-1] == 0.05
        assert np.allclose(grid[1:] / grid[:-1], 2.0)
        assert grid[0] == pytest.approx(0.05 / 16.0)

    def test_frequency_softening_coefficient(self, cached_spectrum):
        grid = default_lambda_grid(0.05)
        samples = np.array(
            [
                cached_spectrum(lam, check_plateau=False).omega_exact(1, 0)
                for lam in grid
            ]
        )
        fit = lambda_series_fit(samples, grid, 3)
        target = -5.0 * B**2 / 12.0
        assert abs(fit.coefficients[2] - target) / abs(target) <= 1e-2

    def test_diagonal_amplitude_coefficient(self, cached_spectrum):
        grid = default_lambda_grid(0.05)
        samples = np.array(
            [cached_spectrum(lam, check_plateau=False).amplitudes[1, 1] for lam in grid]
        )
        fit = lambda_series_fit(samples, grid, 3)
        target = -3.0 * B**2 / 4.0
        assert abs(fit.coefficients[1] - target) / abs(target) <= 1e-2

    def test_two_step_amplitude_coefficient(self, cached_spectrum):
        grid = default_lambda_grid(0.05)
        samples = np.array(
            [cached_spectrum(lam, check_plateau=False).amplitudes[2, 0] for lam in grid]
        )
        fit = lambda_series_fit(samples, grid, 3)
        target = B**2 * math.sqrt(2.0) / 12.0
        assert abs(fit.coefficients[1] - target) / abs(target) <= 1e-2


class TestSumRule:
    def test_cubic_amplitudes(self, cached_spectrum):
        motion = motion_from_spectrum(cached_spectrum(0.05))
        res = quantum_condition_residual(motion)
        assert np.max(np.abs(res[:6])) <= 1e-8

    def test_quartic_amplitudes_deep_coupling(self, cached_spectrum):
        for lam in (0.1, 0.5):
            motion = motion_from_spectrum(cached_spectrum(lam, force_exponent=3))
            res = quantum_condition_residual(motion)
            assert np.max(np.abs(res[:6])) <= 1e-8


class TestSolverAgreement:
    def test_cubic_gap_scales_as_fourth_power(self, sol_cubic, cached_spectrum):
        # odd orders vanish for the cubic force: the second-order solver is
        # accidentally third-order accurate and the gap scales as lam^4
        eds = energy_diagonal_series(sol_cubic)
        g1 = np.abs(
            cached_spectrum(0.05).eigenvalues[:4] - eds.evaluate(0.05)[:4]
        )
        g2 = np.abs(
            cached_spectrum(0.025).eigenvalues[:4] - eds.evaluate(0.025)[:4]
        )
        ratios = g1 / g2
        assert np.all((16.0 * 0.8 <= ratios) & (ratios <= 16.0 * 1.2))
        assert np.max(g1[:2]) <= 5e-5  # ground and first level at lam = 0.05

    def test_quartic_gap_scales_as_third_power(self, sol_quartic, cached_spectrum):
        eds = energy_diagonal_series(sol_quartic)
        g1 = np.abs(
            cached_spectrum(0.05, force_exponent=3).eigenvalues[:4]
            - eds.evaluate(0.05)[:4]
        )
        g2 = np.abs(
            cached_spectrum(0.025, force_exponent=3).eigenvalues[:4]
            - eds.evaluate(0.025)[:4]
        )
        ratios = g1 / g2
        assert np.all((8.0 * 0.7 <= ratios) & (ratios <= 8.0 * 1.3))
