import io
import json
import math
import tracemalloc
import weakref
from dataclasses import replace

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
    diagonalize,
    energy_matrix,
    lowest_eigenpairs,
    position_matrix,
    rspt,
    spectrum,
)
from ampmech.checks import _gap_pairs, gap_exact, thomas_kuhn_residuals
from ampmech.oracle import (BLOCK_START, PLATEAU_LEVELS, PLATEAU_STEP, _dense,
                            _hamiltonian_bands, _parity_blocks, _positive_definite,
                            _symmetric)
from ampmech.perturb import ROUNDING_C
from conftest import (assert_same_bits, default_lambda_grid, dense_amplitudes,
                      dense_hamiltonian, full_spectrum, lambda_series_fit, load_script,
                      motion_from_spectrum, quantum_condition_residual)

SWEEP = load_script("scripts/oracle_sweep.py")

P2 = OscillatorParams()  # lam = 0.05, cubic force
B = math.sqrt(2.0)
EPS = np.finfo(float).eps
UNITS = [{}, {"mass": 2.3, "omega0": 0.4, "hbar": 0.7}, {"mass": 0.5, "omega0": 3.0, "hbar": 1.7}]


def dense_hamiltonian_reference(params, n):
    """H built as before the banded build: dense N x N products of the
    tridiagonal ladder matrices, symmetrized as `diagonalize` does."""
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


def amplitude_sizes(spec):
    """The summed size sum_(r, r') |v_k[r] <r|x|r'> v_n[r']| of the terms of
    each <k|x|n>, which sizes its rounding."""
    v = np.abs(spec.eigenvectors)
    return v.T @ np.abs(position_matrix(spec.params, spec.basis_size)) @ v


def bands_of(m, w=None):
    """The diagonals of a square matrix through band width w (every band by
    default), in the layout of `oracle._dense`: row w + k holds m[r, r + k]."""
    n = len(m)
    w = n - 1 if w is None else w
    out = np.zeros((2 * w + 1, n))
    for k in range(-w, w + 1):
        out[w + k, max(-k, 0) : n - max(k, 0)] = np.diagonal(m, k)
    return out


def series_energy(n, lam):
    return (n + 0.5) - 5.0 * lam**2 / 12.0 * (n**2 + n + 11.0 / 30.0)


class TestHamiltonian:
    def test_uncoupled_is_diagonal(self):
        # products inside the truncation corrupt only the last corner entry
        h = dense_hamiltonian(OscillatorParams(lam=0.0), 20)
        expect = np.diag(np.arange(20) + 0.5)
        assert np.max(np.abs((h - expect)[:19, :19])) <= 1e-14
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_cubic_band_structure(self):
        h = dense_hamiltonian(P2, 20)
        for shift in range(4, 20):
            assert np.max(np.abs(np.diag(h, shift))) == 0.0
        assert np.max(np.abs(np.diag(h, 1))) > 0.0
        assert np.max(np.abs(np.diag(h, 3))) > 0.0

    def test_ground_energy_near_second_order_series(self, cached_spectrum):
        spec = cached_spectrum(0.05)
        assert abs(spec.eigenvalues[0] - series_energy(0, 0.05)) <= 5e-5

    def test_minimum_basis(self):
        for solve in (spectrum, lowest_eigenpairs):
            with pytest.raises(ValueError, match="at least 8"):
                solve(P2, 4, 1)

    @pytest.mark.parametrize("units", UNITS, ids=["default", "units-a", "units-b"])
    @pytest.mark.parametrize("force", [2, 3])
    @pytest.mark.parametrize("n", [8, 80, 300])
    def test_banded_matches_dense_reference(self, n, force, units):
        params = OscillatorParams(force_exponent=force, **units)
        h = dense_hamiltonian(params, n)
        ref = dense_hamiltonian_reference(params, n)
        assert np.max(np.abs(h - ref)) <= 4.0 * EPS * np.max(np.abs(ref))


class TestDiagonalize:
    def test_diagonal_matrix(self):
        res = diagonalize(P2, np.array([[3.0, 1.0, 2.0]]))
        assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=0)
        assert np.allclose(np.abs(res.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_closed_form(self):
        a, b = 1.3, 0.4
        m = np.array([[a, b], [b, a]])
        res = diagonalize(P2, bands_of(m))
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
        res = full_spectrum(params, 24)
        got = res.position_columns(10)[:10]
        assert np.max(np.abs(got - position_matrix(params, 24)[:10, :10])) <= 1e-12

    def test_amplitudes_symmetric(self, cached_spectrum):
        # X[k, n] and X[n, k] sum the same products in other orders
        spec = cached_spectrum(0.05)
        x = spec.position_columns(spec.basis_size)
        assert np.all(np.abs(x - x.T) <= spec.basis_size * EPS * amplitude_sizes(spec))

    @pytest.mark.parametrize("force", [2, 3])
    def test_amplitudes_equal_eager_formula(self, force, cached_spectrum):
        spec = cached_spectrum(0.05, force_exponent=force)
        v = spec.eigenvectors
        eager = v.T @ position_matrix(spec.params, spec.basis_size) @ v
        got = spec.position_columns(spec.basis_size)
        assert np.all(np.abs(got - eager) <= spec.basis_size * EPS * amplitude_sizes(spec))

    @pytest.mark.parametrize("force", [2, 3])
    def test_one_amplitude_matches_matrix(self, force, cached_spectrum, request):
        # each X(alpha + r, r) the gap-order check reads, against the matrix
        spec = cached_spectrum(0.05, force_exponent=force)
        sol = request.getfixturevalue("sol_cubic" if force == 2 else "sol_quartic")
        rows, cols = np.array(_gap_pairs(sol)).T
        got = gap_exact(spec, sol)["amplitude"]
        bound = spec.basis_size * EPS * amplitude_sizes(spec)[rows, cols]
        assert np.all(np.abs(got - dense_amplitudes(spec)[rows, cols]) <= bound)

    @pytest.mark.parametrize("n", [8, 80, 300])
    def test_parity_blocks_match_full_eigh(self, n):
        params = OscillatorParams(lam=0.5, force_exponent=3)
        got = full_spectrum(params, n).eigenvalues
        full = np.linalg.eigvalsh(dense_hamiltonian(params, n))
        assert np.max(np.abs(got - full)) <= n * EPS * np.max(np.abs(full))

    def test_same_parity_quartic_amplitudes_are_zero(self, cached_spectrum):
        spec = cached_spectrum(0.05, force_exponent=3)
        # every eigenstate has a definite parity
        odd = np.all(spec.eigenvectors[0::2] == 0.0, axis=0)
        assert np.array_equal(~odd, np.all(spec.eigenvectors[1::2] == 0.0, axis=0))
        same = odd[:, None] == odd[None, :]
        x = spec.position_columns(spec.basis_size)
        assert np.all(x[same] == 0.0)
        assert x[0, 1] != 0.0

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
        with pytest.raises(NumericError):
            full_spectrum(OscillatorParams(force_exponent=force), 80)
        assert calls[call] == ((80, 80) if force == 2 else (40, 40))


def old_diagonalize(params, h):
    """`diagonalize` of a dense symmetric matrix h before it formed the
    residual and the sign flips in place, with its old residual test
    `residual > bound`."""
    n = h.shape[0]
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
    return SpectrumResult(params=params, basis_size=n,
                          eigenvalues=evals, eigenvectors=evecs * flips)


@st.composite
def banded_operators(draw, symmetric=True, max_size=12, wide=False):
    """Operators stored by diagonals, exactly symmetric unless asked
    otherwise, some of them coupling no even level to an odd one. A wide
    one has up to three diagonals beyond the n - 1 its n states hold."""
    n = draw(st.integers(1, max_size))
    w = draw(st.integers(0, n + 3 if wide else min(4, n - 1)))
    elements = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -2.5]))
    bands = draw(hnp.arrays(np.float64, (2 * w + 1, n), elements=elements))
    if draw(st.booleans()):
        bands[(w + 1) % 2 :: 2] = 0.0
    if symmetric:
        # the upper triangle mirrored, signed zeros included
        dense = _dense(bands)
        bands = bands_of(np.where(np.tri(n, k=-1, dtype=bool), dense.T, dense), w)
    return bands


class TestOperatorValidation:
    @given(banded_operators(symmetric=False))
    def test_symmetrization_has_the_bits_of_the_mean(self, bands):
        # each mirrored pair is averaged; a slot outside the basis is never read
        m = _dense(bands)
        assert_same_bits(_dense(_symmetric(bands)), 0.5 * (m + m.T))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, 1)], [(1, 0)], [(0, 2), (2, 0)]],
                             ids=["diagonal", "upper", "lower", "pair"])
    def test_nonfinite_entry_refused(self, bad, cells):
        # through the residual test: a non-finite entry leaves a nan residual
        m = np.eye(3)
        for cell in cells:
            m[cell] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="nan"):
            diagonalize(P2, bands_of(m))


def dense_reference(bands):
    """The dense matrix of an operator stored by diagonals, cell by cell:
    diagonals at |k| >= n hold no entry of the n states."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    m, reach = np.zeros((n, n)), min(w, n - 1)
    for k in range(-reach, reach + 1):
        r = np.arange(max(-k, 0), n - max(k, 0))
        m[r, r + k] = bands[w + k, r]
    return m


class TestWideBands:
    @given(banded_operators(symmetric=False, wide=True))
    def test_any_band_width_matches_the_dense_reference(self, bands):
        m = dense_reference(bands)
        assert_same_bits(_dense(bands), m)
        assert_same_bits(_dense(_symmetric(bands)), 0.5 * (m + m.T))
        got, ref = diagonalize(P2, bands), old_diagonalize(P2, 0.5 * (m + m.T))
        assert_same_bits(got.eigenvalues, ref.eigenvalues)
        assert_same_bits(got.eigenvectors, ref.eigenvectors)


class TestDiagonalizeInPlace:
    @given(banded_operators())
    def test_matches_the_old_function(self, bands):
        got, ref = diagonalize(P2, bands), old_diagonalize(P2, _dense(bands))
        assert_same_bits(got.eigenvalues, ref.eigenvalues)
        assert_same_bits(got.eigenvectors, ref.eigenvectors)

    @pytest.mark.parametrize("force", [2, 3])
    def test_hamiltonians_match_the_old_function(self, force):
        params = OscillatorParams(force_exponent=force)
        got = full_spectrum(params, 120)
        ref = old_diagonalize(params, dense_hamiltonian(params, 120))
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
        bands = _hamiltonian_bands(P2, 8)
        with pytest.raises(NumericError):
            diagonalize(P2, bands)
        # the old test `residual > bound` is False for nan: no error
        old_diagonalize(P2, dense_hamiltonian(P2, 8))


@st.composite
def shifted_banded_matrices(draw):
    """(bands, shift, u, step): M stored by diagonals, not symmetric, and a
    term U U^T on its leading len(U) <= step states, tested as `_certified`
    tests A = M - shift I + U U^T: per block of `_parity_blocks`, in chunks
    of step rows. Half of them couple no even state to an odd one, as the
    quartic H, so their blocks are the strided even diagonals. The blocks
    have band width w = 1..4 and size n on both sides of the chunk edges
    step + w and step + w + max(step, w), or n <= w. The shift lies at least
    delta = 1e-6 max(1, max |lambda|) from every eigenvalue lambda of the
    lower triangles of the blocks of M + U U^T, far above the rounding
    N eps ||A|| of either factorization, so each verdict is unambiguous."""
    w, step, split = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.booleans())
    edges = (step + w, step + w + max(step, w))
    n = draw(st.one_of(st.integers(1, w),
                       st.sampled_from(edges).flatmap(lambda e: st.integers(e - 1, e + 1))))
    if split:
        # the even block holds n states, the odd one n or n - 1
        n, w = 2 * n - draw(st.integers(0, 1)), 2 * w
    elements = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, 1.0]))
    bands = draw(hnp.arrays(np.float64, (2 * w + 1, n), elements=elements))
    if split:
        bands[1::2] = 0.0
    u = draw(hnp.arrays(np.float64, (draw(st.integers(0, min(step, n))), draw(st.integers(0, 3))),
                        elements=st.floats(-3, 3)))
    if split:
        # each column of U on the states of one parity
        u[draw(st.integers(0, 1)) :: 2] = 0.0
    lam = np.sort(np.concatenate([
        np.linalg.eigvalsh(shifted_block(sub, 0.0, u[rows]), UPLO="L")
        for rows, sub in _parity_blocks(bands)]))
    delta = 1e-6 * max(1.0, float(np.max(np.abs(lam))))
    # just below the lowest eigenvalue, or just above one that has no other
    # within 4 delta above it: where a factorization that drops part of A
    # errs first
    above = lam[np.append(np.diff(lam) >= 4 * delta, True)] + 2 * delta
    shift = draw(st.sampled_from([lam[0] - 2 * delta, *above]))
    return bands, shift, u, step


def shifted_block(bands, shift, u):
    """The dense M - shift I + U U^T, U on the leading states of M: the
    matrix that `_positive_definite` factors along its band."""
    a = _dense(bands)
    a.flat[:: len(a) + 1] -= shift
    a[: len(u), : len(u)] += u @ u.T
    return a


class TestBandedCholesky:
    @given(shifted_banded_matrices())
    def test_matches_the_dense_cholesky(self, case):
        bands, shift, u, step = case
        for rows, sub in _parity_blocks(bands):
            a = shifted_block(sub, shift, u[rows])
            try:
                np.linalg.cholesky(a)
                dense = True
            except np.linalg.LinAlgError:
                dense = False
            assert dense == (np.linalg.eigvalsh(a, UPLO="L")[0] > 0)
            assert _positive_definite(sub, shift, u[rows] @ u[rows].T, step) == dense

    def test_the_certificate_forms_no_n_by_n_array(self):
        # cubic H_600 at lam_1/2: every chunk spans at most M + w = 67
        # states, and a few chunk-sized arrays live at once, against the
        # 2.9 MB of one N x N matrix
        params = OscillatorParams(lam=0.025)
        bands = _hamiltonian_bands(params, 600)
        block = ampmech.oracle._ritz_block(params, bands, 8)
        tracemalloc.start()
        try:
            assert ampmech.oracle._certified(bands, block, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.basis_size == 64
        assert peak <= 6 * 67 * 67 * 8


def oracle_peak_bytes(argv):
    """tracemalloc's peak over one in-process run of argv, after a warm-up."""
    ampmech.cli.run(argv, stream=io.StringIO())
    tracemalloc.start()
    try:
        assert ampmech.cli.run(argv, stream=io.StringIO()) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOracleMemory:
    # No N x N array is formed: the certificate of the main spectrum factors
    # H_N - sigma I + c V V^T along its band, in chunks of about the Ritz
    # block's M states, so the peak grows about linearly in N (cubic: 196 KB
    # at N = 200, 202 KB at N = 300). Measured at N = 200: 0.61 N^2 float64
    # for the cubic force, 0.46 N^2 for the quartic one. The bounds leave
    # 10 % above that; a dense certificate, the matrix and its Cholesky
    # factor, peaked at 2.17 N^2 and 0.68 N^2
    def test_cubic_oracle_peaks_below_two_thirds_of_a_matrix(self):
        n = 200
        assert oracle_peak_bytes(["oracle", "--basis-size", str(n)]) <= 0.675 * n * n * 8

    def test_quartic_oracle_peaks_below_half_a_matrix(self):
        n = 200
        peak = oracle_peak_bytes(["oracle", "--basis-size", str(n), "--force", "3"])
        assert peak <= 0.51 * n * n * 8

    @pytest.mark.parametrize("argv", [["oracle"], ["oracle", "--force", "3"],
                                      ["oracle", "--lam", "0.01"]], ids=" ".join)
    def test_each_spectrum_is_freed_before_the_next(self, argv, monkeypatch):
        refs, solves, shapes = [], [], []

        def recorder(solve):
            def recorded(*args, **kwargs):
                assert all(ref() is None for ref in refs)
                result = solve(*args, **kwargs)
                refs.append(weakref.ref(result))
                solves.append(solve)
                shapes.append(result.eigenvectors.shape)
                return result
            return recorded

        monkeypatch.setattr(ampmech.cli, "spectrum", recorder(spectrum))
        monkeypatch.setattr(ampmech.cli, "lowest_eigenpairs", recorder(lowest_eigenpairs))
        assert ampmech.cli.run(argv, stream=io.StringIO()) == 0
        # the main spectrum, then the gap spectra: away from lam_1 the check
        # solves both of its couplings
        assert solves == [spectrum] + [lowest_eigenpairs] * (2 if "--lam" in argv else 1)
        # each holds only the pairs the run reads, as eigenvectors of H_80:
        # the main one the 8 levels reported, the others the gap states
        states = 7 if "--force" in argv else 6
        assert shapes == [(80, 8)] + [(80, states)] * (len(shapes) - 1)


class TestSpectrumVetting:
    def test_no_spectrum_forms_an_amplitude_matrix(self, monkeypatch):
        made, read = [], []

        def recorder(solve):
            def recorded(*args, **kwargs):
                made.append(solve(*args, **kwargs))
                return made[-1]
            return recorded

        def columns(spec, count, one=SpectrumResult.position_columns):
            read.append((spec, count))
            return one(spec, count)

        monkeypatch.setattr(ampmech.cli, "spectrum", recorder(spectrum))
        monkeypatch.setattr(ampmech.cli, "lowest_eigenpairs", recorder(lowest_eigenpairs))
        monkeypatch.setattr(SpectrumResult, "position_columns", columns)
        assert ampmech.cli.run(["oracle"], stream=io.StringIO()) == 0
        # the main spectrum serves lam_1 = lam; the one extra is at lam/2.
        # Both are blocks of the lowest states
        main, half = made
        assert half.params.lam == 0.025
        assert main.eigenvectors.shape == (80, 8) and half.eigenvectors.shape == (80, 6)
        # the gap-order entries read two columns of each; the Thomas-Kuhn
        # rows read none, since closure needs only x v_n
        assert [(spec is main, spec is half) for spec, _ in read] == [
            (True, False), (False, True)]
        assert max(count for _, count in read) == 2

    @pytest.mark.parametrize("argv", [[], ["--force", "3"], ["--lam", "0.01"],
                                      ["--lam", "0.01", "--force", "3"]],
                             ids=lambda argv: " ".join(["oracle", *argv]))
    def test_the_plateau_partner_is_a_block_above_96_states(self, argv, monkeypatch):
        def built(n):
            sizes, out = [], io.StringIO()

            def recorded(params, bands, solve=diagonalize):
                sizes.append(bands.shape[1])
                return solve(params, bands)

            monkeypatch.setattr(ampmech.oracle, "diagonalize", recorded)
            assert ampmech.cli.run(["oracle", "--basis-size", str(n), *argv], stream=out) == 0
            return sizes, json.loads(out.getvalue())["results"]["plateau"]

        # every eigensolve is a block well below N - PLATEAU_STEP: the main
        # spectrum is certified without an eigensolve of H_N, and it stands
        # in for its plateau partner, whose drift is then 0
        sizes, plateau = built(300)
        assert max(sizes) < 300 - PLATEAU_STEP
        assert plateau == [0] * PLATEAU_LEVELS
        # at N = 80 the first block, 64 states, stands in for the partner on
        # 70 only where 64 + 2(p + 1) <= 70: for the cubic force. The quartic
        # spectrum and its partner are then solved in full
        sizes, plateau = built(80)
        w = 4 if "--force" in argv else 3
        if BLOCK_START * 8 + 2 * w <= 80 - PLATEAU_STEP:
            assert sizes[0] == BLOCK_START * 8 and plateau == [0] * PLATEAU_LEVELS
        else:
            assert sizes[:2] == [80, 80 - PLATEAU_STEP]

    @pytest.mark.parametrize("force", ["2", "3"])
    def test_each_spectrum_builds_h_once(self, force, monkeypatch):
        # the main spectrum and the gap spectrum at lam_1/2 each build the
        # diagonals of H_300 once, and every Ritz block, the certificate and
        # the closure rows read them: no eigensolve exceeds a first block
        built, solved = [], []
        bands, eigh = ampmech.oracle._hamiltonian_bands, np.linalg.eigh

        def recorded_bands(params, n):
            built.append(n)
            return bands(params, n)

        def recorded_eigh(block):
            solved.append(len(block))
            return eigh(block)

        monkeypatch.setattr(ampmech.oracle, "_hamiltonian_bands", recorded_bands)
        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        argv = ["oracle", "--basis-size", "300", "--force", force]
        assert ampmech.cli.run(argv, stream=io.StringIO()) == 0
        assert built == [300] * 2
        assert solved and max(solved) <= BLOCK_START * 8

    def test_a_skipped_certificate_passes_deep_truncation_states(self, monkeypatch):
        # H_600 of the cubic force holds truncation states far below the
        # metastable levels, which the block finds; the certificate sees
        # them, the full solve follows and the plateau rule refuses the run
        argv = ["oracle", "--basis-size", "600"]
        assert ampmech.cli.run(argv, stream=io.StringIO()) == 3
        monkeypatch.setattr(ampmech.oracle, "_certified", lambda *args: True)
        assert ampmech.cli.run(argv, stream=io.StringIO()) == 0

    @pytest.mark.parametrize("force, lam, n, certified", [
        (2, 0.05, 300, True), (2, 0.05, 600, False), (2, 0.025, 600, True),
        (3, 0.05, 600, True), (3, -0.005, 300, False), (3, -0.001, 300, True)])
    def test_the_certificate_counts_the_levels_below_sigma(self, force, lam, n, certified):
        # against the eigenvalues of H_N below sigma, counted by a full solve
        params = OscillatorParams(lam=lam, force_exponent=force)
        bands = _hamiltonian_bands(params, n)
        block = ampmech.oracle._ritz_block(params, bands, 8)
        assert block.basis_size < n
        sigma = 0.5 * (block.eigenvalues[7] + block.eigenvalues[8])
        below = np.sum(np.linalg.eigvalsh(dense_hamiltonian(params, n)) < sigma)
        assert (below == 8) == certified
        assert ampmech.oracle._certified(bands, block, 8) == certified

    def test_plateau_reported(self, cached_spectrum):
        spec = cached_spectrum(0.05)
        assert spec.plateau is not None
        assert np.max(spec.plateau) <= 1e-8

    def test_quartic_basis_growth(self):
        p3 = OscillatorParams(lam=0.1, force_exponent=3)
        e60 = full_spectrum(p3, 60).eigenvalues[:6]
        e80 = full_spectrum(p3, 80).eigenvalues[:6]
        assert np.max(np.abs(e80 - e60)) <= 1e-8

    def test_deep_cubic_coupling_rejected(self):
        with pytest.raises(ValueError):
            spectrum(OscillatorParams(lam=0.2), 80, PLATEAU_LEVELS)

    def test_negative_quartic_coupling_needs_a_plateau(self):
        # m lam x^4 / 4 at lam < 0 is unbounded below, as the cubic force is
        with pytest.raises(PlateauError):
            spectrum(OscillatorParams(lam=-0.05, force_exponent=3), 80, PLATEAU_LEVELS)
        spec = spectrum(OscillatorParams(lam=-0.001, force_exponent=3), 80, PLATEAU_LEVELS)
        assert np.max(spec.plateau) <= 1e-8

    @pytest.mark.parametrize("argv", [["--lam", "-0.05"], ["--lam", "-0.005", "--basis-size", "300"]],
                             ids=" ".join)
    def test_negative_quartic_drift_is_a_numeric_error(self, argv, capsys):
        out = io.StringIO()
        assert ampmech.cli.run(["oracle", "--force", "3", *argv], stream=out) == 3
        assert out.getvalue() == ""
        assert capsys.readouterr().err.startswith("numeric error: eigenvalue drift")

    def test_small_negative_quartic_coupling_passes(self):
        out = io.StringIO()
        assert ampmech.cli.run(["oracle", "--force", "3", "--lam", "-0.001"], stream=out) == 0
        assert max(json.loads(out.getvalue())["results"]["plateau"]) <= 1e-12


def full_spectrum_pairs(params, n, count):
    spec = full_spectrum(params, n)
    return spec.eigenvalues[:count], spec.eigenvectors[:, :count]


def amplitude_table(spec, count):
    return spec.position_columns(count)[:count]


# the sweep of `TestLowestEigenpairs`: both forces, lam_1/2, lam_1 and a deep
# quartic coupling, in default units and in units (1.3, 0.8, 0.7), where
# the cubic cap refuses lam = 0.05; then a negative coupling of each force
# at which the full solve plateaus
_BLOCK_CASES = [
    (force, units, lam, n)
    for force in (2, 3)
    for units in ({}, {"mass": 1.3, "omega0": 0.8, "hbar": 0.7})
    for lam in ((0.025,) if force == 2 and units else (0.025, 0.05) if force == 2
                else (0.025, 0.05, 1.0))
    for n in (80, 300, 600)
    # at N = 600 the full solve at lam = 0.05 holds truncation states below
    # the metastable levels: see test_block_keeps_the_metastable_levels
    if not (force == 2 and lam == 0.05 and n == 600)
] + [(force, {}, lam, n) for force, lam in ((2, -0.05), (3, -0.001)) for n in (80, 300)]


class TestLowestEigenpairs:
    COUNT = 7

    @pytest.mark.parametrize("force, units, lam, n", _BLOCK_CASES,
                             ids=lambda v: str(v) if not isinstance(v, dict) else
                             ("units" if v else "default"))
    def test_agrees_with_the_full_solve(self, force, units, lam, n):
        params = OscillatorParams(lam=lam, force_exponent=force, **units)
        block = lowest_eigenpairs(params, n, self.COUNT)
        evals, evecs = full_spectrum_pairs(params, n, self.COUNT)
        full = SpectrumResult(params, n, evals, evecs)
        bound = 4 * n * EPS
        assert np.all(np.abs(block.eigenvalues - evals) <= bound * np.abs(evals))
        # an amplitude is a sum over O(1) eigenvector entries: its rounding
        # is sized by the largest amplitude of the table
        x_full = amplitude_table(full, self.COUNT)
        x_block = amplitude_table(block, self.COUNT)
        assert np.max(np.abs(x_block - x_full)) <= bound * np.max(np.abs(x_full))

    def test_block_keeps_the_metastable_levels(self):
        # the full N = 600 solve of the cubic force at lam = 0.05 returns
        # truncation states; the block returns the levels that plateau at N = 80
        block = lowest_eigenpairs(P2, 600, self.COUNT)
        assert full_spectrum_pairs(P2, 600, 1)[0][0] < -70.0
        plateaued = spectrum(P2, 80, self.COUNT).eigenvalues
        assert np.all(np.abs(block.eigenvalues - plateaued) <= 4 * 600 * EPS * plateaued)

    def test_has_the_bits_of_the_full_solve_when_the_block_reaches_n(self):
        # quartic lam = 0.05 doubles 56 -> 80
        params = OscillatorParams(force_exponent=3)
        block = lowest_eigenpairs(params, 80, self.COUNT)
        assert block.basis_size == 80
        evals, evecs = full_spectrum_pairs(params, 80, self.COUNT)
        assert_same_bits(block.eigenvalues, evals)
        assert_same_bits(block.eigenvectors, evecs)

    def test_unverified_pairs_cannot_be_read(self):
        block = lowest_eigenpairs(P2, 300, self.COUNT)
        # a block of BLOCK_START states per pair, padded to the 300 states
        assert block.eigenvectors.shape == (300, self.COUNT)
        assert not block.eigenvectors[BLOCK_START * self.COUNT :].any()
        for read in (lambda: block.eigenvalues[self.COUNT],
                     lambda: block.eigenvectors[:, self.COUNT],
                     lambda: block.omega_exact(self.COUNT, 0),
                     lambda: block.position_columns(1)[self.COUNT, 0],
                     lambda: block.position_columns(self.COUNT + 4)[0, self.COUNT + 3]):
            with pytest.raises(IndexError):
                read()

    def test_cubic_cap(self):
        with pytest.raises(ValueError):
            lowest_eigenpairs(OscillatorParams(lam=0.2), 80, self.COUNT)

    @pytest.mark.parametrize("force", [2, 3])
    @pytest.mark.parametrize("m", [48, 56])
    def test_leading_rows_are_those_of_the_full_basis(self, force, m):
        # the Ritz block was once solved on H built on M + 2w states; the
        # leading states of the diagonals of H_N give its block and its
        # tail bit for bit
        params = OscillatorParams(force_exponent=force)
        w = force + 1
        small = dense_hamiltonian(params, m + 2 * w)
        bands = _hamiltonian_bands(params, 300)
        assert_same_bits(_dense(_symmetric(bands[:, :m])), small[:m, :m])
        assert_same_bits(_dense(_symmetric(bands[:, m - w : m + w]))[w:, :w],
                         small[m : m + w, m - w : m])
        # the smaller basis cuts its operator products in its last rows
        full = dense_hamiltonian(params, 300)
        assert np.array_equal(small[: m + w, : m + w], full[: m + w, : m + w])
        assert not np.array_equal(small[-1], full[m + 2 * w - 1, : m + 2 * w])


def _verdict(argv, code, failing=()):
    return pytest.param(argv, code, set(failing), id=" ".join(["oracle", *argv]))


_UNITS = ["--mass", "1.3", "--omega0", "0.8", "--hbar", "0.7"]
_TK = ["thomas-kuhn-sum-rule"]


# exit code and failing checks of `oracle` over basis sizes, levels,
# couplings and units of both forces
_VERDICTS = [
    # a basis too small for the cubic plateau, and one large enough to
    # hold truncation states below the metastable levels
    _verdict(["--basis-size", "18"], 3),
    _verdict(["--basis-size", "24"], 3),
    _verdict(["--basis-size", "30"], 0),
    _verdict(["--basis-size", "80"], 0),
    _verdict(["--basis-size", "300"], 0),
    _verdict(["--basis-size", "600"], 3),
    _verdict(["--lam", "0.01"], 0),
    # the main spectrum plateaus at lam = 0.01; the gap spectra are the
    # verified blocks of metastable levels
    _verdict(["--lam", "0.01", "--basis-size", "600"], 0),
    _verdict(["--levels", "1"], 0),
    _verdict(["--levels", "20"], 0),
    _verdict(_UNITS, 2),
    _verdict([*_UNITS, "--lam", "0.01"], 0),
    _verdict(["--force", "3", "--basis-size", "18"], 1, _TK),
    *(_verdict(["--force", "3", "--basis-size", n], 0) for n in ("24", "30", "80", "300", "600")),
    _verdict(["--force", "3", "--lam", "0.01"], 0),
    _verdict(["--force", "3", "--lam", "0.01", "--basis-size", "600"], 0),
    _verdict(["--force", "3", "--levels", "1"], 0),
    _verdict(["--force", "3", "--levels", "20"], 0),
    _verdict(["--force", "3", *_UNITS], 0),
    _verdict(["--force", "3", *_UNITS, "--lam", "0.01"], 0),
    _verdict(["--force", "3", "--lam", "0.2"], 0),
    _verdict(["--force", "3", "--lam", "0.5"], 0),
    _verdict(["--force", "3", "--lam", "-0.05"], 3),
    _verdict(["--force", "3", "--lam", "1.0", "--basis-size", "200"], 0),
]


class TestOracleVerdicts:
    """Exit code and failing checks of `oracle` over basis sizes, levels,
    couplings and units of both forces."""

    @pytest.mark.parametrize("argv, code, failing", _VERDICTS)
    def test_exit_code_and_failing_checks(self, argv, code, failing):
        out = io.StringIO()
        assert ampmech.cli.run(["oracle", *argv], stream=out) == code
        checks = json.loads(out.getvalue())["checks"] if code < 2 else []
        assert {c["id"] for c in checks if not c["pass"]} == failing

    @pytest.mark.parametrize("argv, code, failing", _VERDICTS)
    def test_verdict_is_the_same_in_any_units(self, argv, code, failing):
        # hbar and m scaled together leave every unit-free coupling as it
        # is, and each model bound scales with its residual
        for j in range(-4, 9):
            assert SWEEP.verdict(SWEEP.scaled(argv, j)) == (code, sorted(failing))

    def test_the_sweep_runs_these_argv(self):
        assert [list(argv) for argv in SWEEP.VERDICT_ARGV] == [p.values[0] for p in _VERDICTS]

    @pytest.mark.parametrize("argv", [
        # an absolute Thomas-Kuhn bound fails this at 3.2e-7, rounding of a
        # sum of order h = 6.3e6
        ["--force", "3", "--basis-size", "600", "--hbar", "1e6", "--mass", "1e6"],
        ["--force", "2", "--basis-size", "300", "--hbar", "1e5", "--mass", "1e5"],
        # an absolute plateau bound refuses this on a drift of 3e-8, with
        # hbar omega0 = 1e7
        ["--force", "2", "--basis-size", "300", "--hbar", "1e7", "--mass", "1e7"],
    ], ids=" ".join)
    def test_model_bounds_are_in_the_units_of_the_run(self, argv):
        assert SWEEP.verdict(argv) == (0, [])


def _tampered_state(params, basis_size, count, one=spectrum):
    """The main spectrum with the largest entry of v_5 grown by 1e-6: the
    Thomas-Kuhn rows read v_5, the cubic gap-order check only the states
    below it."""
    spec = one(params, basis_size, count)
    v = spec.eigenvectors.copy()
    v[np.argmax(np.abs(v[:, 5])), 5] *= 1.0 + 1e-6
    return replace(spec, eigenvectors=v)


def _one_coefficient(accessor, order, band, row, factor):
    """The solver accessor `accessor` with its lam^order table of `band`
    scaled by `factor` at one row."""
    def tampered(self, k, alpha):
        out = accessor(self, k, alpha)
        if (k, alpha) == (order, band):
            out = out.copy()
            out[row] *= factor
        return out

    return tampered


# the gap-order check reads the columns n < 2 of <k|x|n>, the Thomas-Kuhn
# rows the PLATEAU_LEVELS columns n < PLATEAU_LEVELS
_AMPLITUDE = (SpectrumResult, "position_columns",
              lambda self, count, one=SpectrumResult.position_columns:
                  (1.05 if count < PLATEAU_LEVELS else 1.0) * one(self, count),
              {"gap-order-amplitude"})
_FREQUENCY = (SpectrumResult, "omega_exact",
              lambda self, n, m: 1.05 * (self.eigenvalues[n] - self.eigenvalues[m]),
              {"gap-order-frequency"})
# the series read the solver's lam^2 frequency, not a copy of it
_FREQUENCY_TARGET = (PerturbSolution, "omega_band",
                     lambda self, k, alpha, one=PerturbSolution.omega_band:
                         (1.1 if k == 2 else 1.0) * one(self, k, alpha),
                     {"gap-order-frequency"})
CUBIC, QUARTIC = ["oracle"], ["oracle", "--force", "3"]


class TestInjectedViolations:
    """Each check of `oracle` fails when its input is tampered with, and
    only the check of the quantity tampered with fails."""

    # the ids "amplitude-fits" and "frequency-fit" name the series-fit checks
    # these cases failed before the gap-order check replaced the fits
    @pytest.mark.parametrize("argv, owner, name, tamper, failing", [
        (CUBIC, ampmech.cli, "spectrum", _tampered_state, {"thomas-kuhn-sum-rule"}),
        (CUBIC, *_AMPLITUDE),
        (CUBIC, *_FREQUENCY),
        (CUBIC, *_FREQUENCY_TARGET),
        (QUARTIC, *_FREQUENCY_TARGET),
        (QUARTIC, *_AMPLITUDE),
        (QUARTIC, *_FREQUENCY),
        # +2 % on one coefficient of the solver: omega(1, 0) at lam^2, and
        # X(1, 1) = lam a(1, 1) and X(2, 0) = lam a(2, 0) / 2 at lam^1
        (CUBIC, PerturbSolution, "omega_band",
         _one_coefficient(PerturbSolution.omega_band, 2, 1, 1, 1.02), {"gap-order-frequency"}),
        (CUBIC, PerturbSolution, "a", _one_coefficient(PerturbSolution.a, 0, 0, 1, 1.02),
         {"gap-order-amplitude"}),
        (CUBIC, PerturbSolution, "a", _one_coefficient(PerturbSolution.a, 0, 2, 2, 1.02),
         {"gap-order-amplitude"}),
        # +2 % at lam^1 on omega(1, 0) and on X(1, 0)
        (QUARTIC, PerturbSolution, "omega_band",
         _one_coefficient(PerturbSolution.omega_band, 1, 1, 1, 1.02), {"gap-order-frequency"}),
        (QUARTIC, PerturbSolution, "a", _one_coefficient(PerturbSolution.a, 1, 1, 1, 1.02),
         {"gap-order-amplitude"}),
    ], ids=["thomas-kuhn", "amplitude-fits", "frequency-fit", "frequency-target",
            "quartic-frequency-target", "quartic-amplitude", "quartic-frequency",
            "omega-1-0-lam2", "x-1-1-lam1", "x-2-0-lam1",
            "quartic-omega-1-0-lam1", "quartic-x-1-0-lam1"])
    def test_tampered_input_fails_its_check(self, argv, owner, name, tamper, failing,
                                            monkeypatch):
        monkeypatch.setattr(owner, name, tamper)
        out = io.StringIO()
        assert ampmech.cli.run(argv, stream=out) == 1
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
            spec = cached_spectrum(lam, basis_size=80)
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
    """Coefficients of the exact spectrum in lam, fitted over a grid of
    couplings, against the solver's closed forms."""

    def test_frequency_softening_coefficient(self, cached_spectrum):
        grid = default_lambda_grid(0.05)
        samples = np.array(
            [
                cached_spectrum(lam).omega_exact(1, 0)
                for lam in grid
            ]
        )
        coefficients = lambda_series_fit(samples, grid, 3)
        target = -5.0 * B**2 / 12.0
        assert abs(coefficients[2] - target) / abs(target) <= 1e-2

    def test_diagonal_amplitude_coefficient(self, cached_spectrum):
        grid = default_lambda_grid(0.05)
        samples = np.array(
            [cached_spectrum(lam).position_columns(2)[1, 1] for lam in grid]
        )
        coefficients = lambda_series_fit(samples, grid, 3)
        target = -3.0 * B**2 / 4.0
        assert abs(coefficients[1] - target) / abs(target) <= 1e-2

    def test_two_step_amplitude_coefficient(self, cached_spectrum):
        grid = default_lambda_grid(0.05)
        samples = np.array(
            [cached_spectrum(lam).position_columns(1)[2, 0] for lam in grid]
        )
        coefficients = lambda_series_fit(samples, grid, 3)
        target = B**2 * math.sqrt(2.0) / 12.0
        assert abs(coefficients[1] - target) / abs(target) <= 1e-2


def closure_term_sizes(spec, count):
    """The summed sizes of the terms of `SpectrumResult.closure_sums` for
    n < count: sum_i |(x v_n)_i ((H - E_n) x v_n)_i| over the states i, and
    |x| |v_n| . |H - E_n| |x| |v_n|, which sizes the short sums of x v_n and
    (H - E_n) x v_n inside it."""
    xv = spec._position_images(count)
    size = np.abs(position_matrix(spec.params, spec.basis_size)) @ np.abs(spec.eigenvectors[:, :count])
    dense, outer, inner = _dense(spec.bands), np.empty(count), np.empty(count)
    for k in range(count):
        h = dense - spec.eigenvalues[k] * np.eye(spec.basis_size)
        outer[k] = np.abs(xv[:, k]) @ np.abs(h @ xv[:, k])
        inner[k] = size[:, k] @ np.abs(h) @ size[:, k]
    return outer, inner


class TestSumRule:
    def test_cubic_amplitudes(self, cached_spectrum):
        res = thomas_kuhn_residuals(cached_spectrum(0.05))
        assert np.max(np.abs(res)) <= 1e-8

    def test_quartic_amplitudes_deep_coupling(self, cached_spectrum):
        for lam in (0.1, 0.5):
            res = thomas_kuhn_residuals(cached_spectrum(lam, force_exponent=3))
            assert np.max(np.abs(res)) <= 1e-8

    @pytest.mark.parametrize("lam", [0.01, 0.05])
    @pytest.mark.parametrize("units", [{}, {"mass": 1.3, "omega0": 0.8, "hbar": 0.7}],
                             ids=["default", "units"])
    @pytest.mark.parametrize("n", [24, 80, 300, 600])
    @pytest.mark.parametrize("force", [2, 3])
    def test_rows_match_the_kinematic_residual(self, force, n, units, lam, monkeypatch):
        # the rows against `quantum_condition_residual` on the dense matrix of
        # every band, which sums the same terms in another order; the full
        # solve, unvetted: the two sum the same terms in any basis
        spec = full_spectrum(OscillatorParams(lam=lam, force_exponent=force, **units), n)
        reference = quantum_condition_residual(motion_from_spectrum(spec))[:PLATEAU_LEVELS]
        x = dense_amplitudes(spec)[:, :PLATEAU_LEVELS]
        omega = (spec.eigenvalues[:, None] - spec.eigenvalues[:PLATEAU_LEVELS]) / spec.params.hbar
        c = 4.0 * math.pi * spec.params.mass
        size = c * np.sum(x * x * np.abs(omega), axis=0)
        outer, inner = closure_term_sizes(spec, PLATEAU_LEVELS)
        # the explicit sum and the closure's outer sum run over the n states,
        # each entry of (H - E_n) x v over 2p + 4 terms and of x v over 2
        bound = ROUNDING_C * EPS * (n * (size + c / spec.params.hbar * outer + spec.params.h)
                                    + (2 * force + 6) * c / spec.params.hbar * inner)
        assert np.all(np.abs(thomas_kuhn_residuals(spec) - reference) <= bound)
        # a closure row off by 1e-9 of itself fails, on every row, even on
        # the deep truncation states of the cubic H_600, whose closure terms
        # reach 1.9e7 for rows of 4.5e3
        one = SpectrumResult.closure_sums
        monkeypatch.setattr(SpectrumResult, "closure_sums",
                            lambda self, count: one(self, count) * (1.0 + 1e-9))
        assert np.all(np.abs(thomas_kuhn_residuals(spec) - reference) > bound)


class TestClosure:
    @pytest.mark.parametrize("n", [80, 300])
    @pytest.mark.parametrize("force", [2, 3])
    def test_rows_equal_the_full_spectrum_sum(self, force, n):
        # the oracle's rows, by closure over its main spectrum, against the
        # sum over every eigenpair of the full solve
        params = OscillatorParams(force_exponent=force)
        full = full_spectrum(params, n)
        x = full.position_columns(PLATEAU_LEVELS)
        omega = (full.eigenvalues[:, None] - full.eigenvalues[:PLATEAU_LEVELS]) / params.hbar
        summed = 4.0 * math.pi * params.mass * np.sum(x * x * omega, axis=0) - params.h
        rows = thomas_kuhn_residuals(spectrum(params, n, 8))
        assert np.all(np.abs(rows - summed) <= 4 * n * EPS * params.h)


class TestSolverAgreement:
    def test_cubic_gap_scales_as_fourth_power(self, sol_cubic, cached_spectrum):
        # odd orders vanish for the cubic force: the second-order solver is
        # accidentally third-order accurate and the gap scales as lam^4
        em = energy_matrix(sol_cubic)
        g1 = np.abs(
            cached_spectrum(0.05).eigenvalues[:4] - em.evaluate(0.05)[:4]
        )
        g2 = np.abs(
            cached_spectrum(0.025).eigenvalues[:4] - em.evaluate(0.025)[:4]
        )
        ratios = g1 / g2
        assert np.all((16.0 * 0.8 <= ratios) & (ratios <= 16.0 * 1.2))
        assert np.max(g1[:2]) <= 5e-5  # ground and first level at lam = 0.05

    def test_quartic_gap_scales_as_third_power(self, sol_quartic, cached_spectrum):
        em = energy_matrix(sol_quartic)
        g1 = np.abs(
            cached_spectrum(0.05, force_exponent=3).eigenvalues[:4]
            - em.evaluate(0.05)[:4]
        )
        g2 = np.abs(
            cached_spectrum(0.025, force_exponent=3).eigenvalues[:4]
            - em.evaluate(0.025)[:4]
        )
        ratios = g1 / g2
        assert np.all((8.0 * 0.7 <= ratios) & (ratios <= 8.0 * 1.3))
