"""The check registry: verdicts that hold at any n_max and in any units, and
injected violations that still fail."""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ampmech import OscillatorParams, checks, rspt
from ampmech.cli import run
from ampmech.core import _omega_series, _series_mul
from ampmech.oracle import cubic_coupling_limit, lowest_eigenpairs
from ampmech.perturb import (
    ROUNDING_C,
    CoefficientSet,
    EnergyConservationError,
    PerturbSolution,
    _engine_extent,
    _eom_residual_coefficient,
    _eom_terms,
    _half,
    _orders_live,
    _x_series,
    band_weight,
    energy_matrix,
    solve_perturbative,
)

from conftest import assert_same_bits, build_recursions, check_bits, xp_full_bands

UNITS = [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7), (1.0, 0.3, 1.0)]


def tampered(sol, k, alpha, row, factor=1.0 + 1e-9):
    """The solution with one coefficient a^(k)(row, row - alpha) scaled."""
    amp = np.array(sol.coeffs.amp, copy=True)
    amp[k, alpha, row] *= factor
    coeffs = CoefficientSet(amp, np.array(sol.coeffs.freq_potential))
    return PerturbSolution(params=sol.params, order=sol.order, n_max=sol.n_max,
                           coeffs=coeffs, solved_orders=sol.solved_orders)


def failing(found):
    """Ids of the checks that fail, as `cli` records them."""
    return [c for c, observed, tolerance in found
            if observed is None or not observed <= tolerance]


# (subcommand, n_max, order); the default order 2 keeps its short id
LEVEL_CASES = ([(sub, n_max, 2) for n_max in (12, 60, 200, 1000)
                for sub in ("verify", "solve", "sho")]
               + [(sub, n_max, 6) for n_max in (12, 200) for sub in ("verify", "solve")])


@pytest.mark.parametrize("units", UNITS, ids=str)
@pytest.mark.parametrize("force", [2, 3])
@pytest.mark.parametrize("sub, n_max, order", LEVEL_CASES,
                         ids=[f"{s}-{n}" + (f"-order{o}" if o != 2 else "")
                              for s, n, o in LEVEL_CASES])
def test_every_check_passes_at_any_level_and_units(sub, n_max, order, force, units):
    m, w0, hbar = units
    argv = [sub, "--n-max", str(n_max), "--force", str(force),
            "--mass", str(m), "--omega0", str(w0), "--hbar", str(hbar)]
    if order != 2:  # sho takes no --order
        argv += ["--order", str(order)]
    buffer = io.StringIO()
    assert run(argv, stream=buffer) == 0
    doc = json.loads(buffer.getvalue())
    assert doc["checks"] and all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("force", [2, 3])
def test_tampered_amplitude_trips_energy_guard(force):
    sol = solve_perturbative(OscillatorParams(force_exponent=force), 2, 1000)
    energy_matrix(sol)
    with pytest.raises(EnergyConservationError) as info:
        energy_matrix(tampered(sol, 0, 1, 500))
    assert info.value.observed > info.value.tolerance
    em, found = checks.offdiag_energy(tampered(sol, 0, 1, 500))
    assert em is None and failing(found) == [f"offdiag-energy-order{info.value.order}"]


@pytest.mark.parametrize("group", [checks.recursion, checks.quantum_condition,
                                   checks.closed_form])
@pytest.mark.parametrize("force", [2, 3])
def test_tampered_amplitude_fails_its_checks(group, force):
    sol = solve_perturbative(OscillatorParams(force_exponent=force), 2, 1000)
    clean = list(group(sol))
    assert not failing(clean)
    if clean:  # the closed forms are tabulated for the cubic force only
        assert failing(group(tampered(sol, 0, 1, 500)))


def _table_failures(sol) -> set:
    """Ids of the failing checks of the perturbative tables."""
    return set(failing([*checks.recursion(sol), *checks.quantum_condition(sol),
                        *checks.closed_form(sol), *checks.offdiag_energy(sol)[1]]))


# a check's tolerance is the bound of its worst row, so at n_max 1000 a
# defect in a low row hides under the rounding of the top rows: of the 12
# checks that fail at n_max 12, 6 (cubic) and 1 (quartic) fail there
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="per-row verdicts are not in yet (ROADMAP item 8)")
@pytest.mark.parametrize("force", [2, 3])
def test_low_row_tamper_fails_at_any_n_max(force):
    params = OscillatorParams(force_exponent=force)
    small, large = (_table_failures(tampered(solve_perturbative(params, 2, n_max), 0, 1, 5))
                    for n_max in (12, 1000))
    assert small and small <= large, sorted(small - large)


@pytest.mark.parametrize("force", [2, 3])
def test_recursion_reads_every_solved_coefficient(force):
    # the residuals are formed from the tables alone, so a wrong entry of any
    # public band at any order checked shows, whatever the solve formed on
    # the way
    sol = solve_perturbative(OscillatorParams(force_exponent=force), 4, 60)
    assert not failing(checks.recursion(sol))
    tried = 0
    for alpha in sol.public_bands:
        for k in range(sol.order + 1):
            if sol.coeffs.amp[k, alpha, 30] != 0:  # scaling a zero changes nothing
                assert failing(checks.recursion(tampered(sol, k, alpha, 30))), (alpha, k)
                tried += 1
    assert tried > len(sol.public_bands)


@pytest.mark.parametrize("units", UNITS, ids=str)
def test_tampered_sho_row_fails(units):
    m, w0, hbar = units
    sol = solve_perturbative(OscillatorParams(mass=m, omega0=w0, hbar=hbar, lam=0.0), 0, 1000)
    assert not failing(checks.sho(sol))
    assert failing(checks.sho(tampered(sol, 0, 1, 500))) == [
        "sho-quantum-condition", "sho-commutator"]


def _series_mul_without_band_one(a, b, *args, masks=None, **kwargs):
    """`_series_mul` with band +1 of its (centered) first factor dropped;
    the masks, if any, are passed on as they are."""
    a = np.array(a, copy=True)
    a[..., (a.shape[-2] - 1) // 2 + 1, :] = 0.0
    return _series_mul(a, b, *args, masks=masks, **kwargs)


def _omega_series_band_one_scaled(pot, band_max, bands=None):
    om = _omega_series(pot, band_max, bands)
    om[:, band_max + 1] *= 1.0 + 1e-9
    return om


@pytest.mark.parametrize("kernel, mutant, caught", [
    ("_series_mul", _series_mul_without_band_one,
     ["multiply-matches-dense-product", "multiply-associative",
      "product-transpose-reverses-order"]),
    ("_omega_series", _omega_series_band_one_scaled,
     ["ritz-combination", "derivative-product-rule"]),
], ids=["series-mul", "omega-series"])
def test_algebra_checks_catch_a_mutant_of_the_kernel_they_run(monkeypatch, kernel, mutant,
                                                              caught):
    # the algebra checks run the solver's own kernels, so a wrong band there
    # fails them: omega by `_omega_series`, which also forms the rates omega x
    # of the product rule, and the products by `_series_mul`. The product rule
    # holds for any product law, so a dropped band of the product does not
    # fail it
    for seed in range(15):
        assert not failing(checks.algebra(seed))
    monkeypatch.setattr(checks, kernel, mutant)
    for seed in range(15):
        assert failing(checks.algebra(seed)) == caught


@pytest.mark.parametrize("units", UNITS + [(0.3, 3.0, 2.0), (5.0, 0.7, 0.2)], ids=str)
def test_coupling_scaling_is_unit_free(units):
    m, w0, hbar = units
    ratio, window = checks.coupling_scaling(OscillatorParams(mass=m, omega0=w0, hbar=hbar),
                                            solve_perturbative)
    default, _ = checks.coupling_scaling(OscillatorParams(), solve_perturbative)
    assert window[0] <= ratio <= window[1]
    assert ratio == pytest.approx(default, rel=1e-6)


def test_coupling_scaling_fails_a_tampered_table():
    # a^(1) of band 1 scaled by 1.1 adds a lam^2 deviation: the ratio reads
    # about 21, past the window of the third power
    def solve(params, order, n_max):
        return tampered(solve_perturbative(params, order, n_max), 1, 1, slice(None), 1.1)

    ratio, window = checks.coupling_scaling(OscillatorParams(), solve)
    assert ratio > window[1]


def _cut(sol):
    """The solution with its tables cut to the rows 0..n_max it publishes."""
    rows = sol.n_max + 1
    return replace(sol, coeffs=CoefficientSet(sol.coeffs.amp[..., :rows],
                                              sol.coeffs.freq_potential[:, :rows]))


def _rows_match_a_taller_table(deviation) -> bool:
    """Whether deviation(sol, lam) gives rows 0..12 of the quartic order-2
    table at n_max 12 the bits of the table at n_max 40, at the couplings of
    `coupling_scaling`."""
    quartic = OscillatorParams(force_exponent=3)
    short, tall = (solve_perturbative(quartic, 2, n_max) for n_max in (12, 40))
    return all(np.array_equal(deviation(short, lam)[:13], deviation(tall, lam)[:13])
               for lam in checks.COUPLING_LAMS)


def test_commutator_reads_only_rows_the_table_holds():
    # the table holds bands up to 9, so row 4 of the deviation reads row 13;
    # the engine's pad keeps it, and a route that cuts the tables to the
    # published rows moves row 4 by 3.3e-8 (sum-rule units) at lam 0.1
    assert _rows_match_a_taller_table(checks._commutator_deviation)
    assert not _rows_match_a_taller_table(
        lambda sol, lam: checks._commutator_deviation(_cut(sol), lam))


def test_offdiag_check_covers_every_band():
    sol = solve_perturbative(OscillatorParams(), 2, 40)
    em, found = checks.offdiag_energy(sol)
    for k, (check_id, observed, tolerance) in enumerate(found):
        worst = max(float(np.max(np.abs(em.total(k, a)))) for a in range(1, em.band_max + 1))
        assert (check_id, observed) == (f"offdiag-energy-order{k}", worst)
        assert 0.0 < tolerance < 1e-10 and math.isfinite(tolerance)


@pytest.mark.parametrize("units", UNITS + [(1.3, 0.8, 0.7)], ids=str)
def test_gap_couplings_follow_the_units(units):
    m, w0, hbar = units
    cubic = OscillatorParams(mass=m, omega0=w0, hbar=hbar)
    lam1, lam2 = checks.gap_couplings(cubic)
    # the cubic lam_1 is the cap of the metastable regime, up to its slack
    assert lam1 == pytest.approx(cubic_coupling_limit(cubic), rel=2e-12)
    assert lam1 <= cubic_coupling_limit(cubic) and lam2 == lam1 / 2.0
    quartic = OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=3)
    assert checks.gap_couplings(quartic)[0] == pytest.approx(0.05 * m * w0**3 / hbar, rel=1e-15)


def _gap_inputs(force):
    params = OscillatorParams(force_exponent=force)
    sol = solve_perturbative(params, 2, 12)
    return sol, energy_matrix(sol), checks.gap_couplings(params)


@pytest.mark.parametrize("force", [2, 3])
def test_gap_order_judges_no_gap_at_rounding(force):
    # exact values equal to the series leave nothing to judge: each check
    # reports no observed value, which `cli` records as a failure
    sol, em, lams = _gap_inputs(force)
    exact = [checks._gap_series(sol, em, lam) for lam in lams]
    entries, found = checks.gap_order(sol, em, lams, exact, 80)
    assert entries == [] and failing(found) == [c for c, _, _ in found]
    assert [observed for _, observed, _ in found] == [None] * 3


@pytest.mark.parametrize("force, states", [(2, 6), (3, 7)])
def test_gap_states_are_the_states_gap_exact_reads(force, states):
    # six levels for the energies; X(4, 1) on cubic band 3, X(6, 1) on quartic band 5
    sol = _gap_inputs(force)[0]
    assert checks.gap_states(sol) == states
    params = OscillatorParams(lam=0.025, force_exponent=force)
    assert checks.gap_exact(lowest_eigenpairs(params, 80, states), sol)
    with pytest.raises(IndexError):
        checks.gap_exact(lowest_eigenpairs(params, 80, states - 1), sol)


def test_gap_order_reports_the_entry_outside_its_window():
    # rho = ratio / 2^q: 0.71 lies inside (0.7, 1.3) though farther from 1
    # on a log scale than 1.31, which lies outside
    sol, em, lams = _gap_inputs(2)
    series = [checks._gap_series(sol, em, lam) for lam in lams]
    exact = [{}, {}]
    for quantity, (_, powers) in checks._gap_entries(sol).items():
        rho = np.ones(len(powers))
        if quantity == "frequency":
            rho[1:3] = 0.71, 1.31
        gap = 1e-3 * np.abs(series[0][quantity])
        exact[0][quantity] = series[0][quantity] + gap
        exact[1][quantity] = series[1][quantity] + gap / (rho * 2.0 ** np.array(powers))
    entries, found = checks.gap_order(sol, em, lams, exact, 80)
    assert [(c, obs > hi) for c, obs, (lo, hi) in found if not lo <= obs <= hi] == [
        ("gap-order-frequency", True)]
    # the order-2 cubic frequency gaps are of order lam^4
    assert found[1][1:] == (pytest.approx(1.31 * 16.0, rel=1e-9), checks.halving_window(4))
    ratios = [e["ratio"] for e in entries if e["quantity"].startswith("omega")]
    assert ratios == pytest.approx([16.0, 0.71 * 16.0, 1.31 * 16.0, 16.0, 16.0], rel=1e-9)


@pytest.mark.parametrize("units", UNITS, ids=str)
@pytest.mark.parametrize("force", [2, 3])
def test_rspt_matches_series_at_any_units(force, units):
    m, w0, hbar = units
    lam = 0.01 * m * w0**3 / hbar
    params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, lam=lam, force_exponent=force)
    levels = 40
    energies = rspt(params, levels, 2)[0].sum(axis=0)
    em = energy_matrix(solve_perturbative(params, 2, levels + 4))
    observed, tolerance = checks.rspt_matches_series(
        energies, em.evaluate(lam)[:levels], em, lam)
    assert observed <= tolerance


def recursion_reference(params, coeffs, alpha, order):
    """`build_recursions(params, alpha, order)(coeffs)` as it was formed before
    one pass gave the equation of motion at every power."""
    p, power = params.force_exponent, band_weight(params.force_exponent, alpha) + order
    band_max = max(coeffs.band_max, alpha)
    x, _ = _x_series(p, coeffs.amp, power, band_max)
    xp_top = None
    if power:
        xp_top = xp_full_bands(p, x, _series_mul(x, x, power - 1), power - 1)
    om, bands = _omega_series(coeffs.freq_potential, band_max), range(-band_max, band_max + 1)
    live = _orders_live(om, bands)
    res = _eom_residual_coefficient(params, x, om, power, xp_top, bands, om, (live, live))
    return (2.0 if alpha else 1.0) * res[band_max + alpha, :]


@pytest.mark.parametrize("n_max", [12, 200])
@pytest.mark.parametrize("force", [2, 3])
def test_recursion_residuals_match_reference(force, n_max):
    sol = solve_perturbative(OscillatorParams(force_exponent=force), 2, n_max)
    found = iter(checks.recursion(sol))
    for alpha in sol.public_bands:
        for k in range(sol.order + 1):
            ref = recursion_reference(sol.params, sol.coeffs, alpha, k)
            assert_same_bits(build_recursions(sol.params, alpha, k)(sol.coeffs), ref)
            amp_scale = float(np.max(np.abs(sol.coeffs.amp[: k + 1, alpha, : n_max + 1])))
            scale = max(1.0, amp_scale**2 if alpha == 1 else abs(1 - alpha**2) * amp_scale)
            check_id, observed, _ = next(found)
            assert check_id == f"recursion-residual-band{alpha}-order{k}"
            assert observed == float(np.max(np.abs(ref[: n_max + 1]))) / scale


def recursion_loop(sol):
    """`checks.recursion` with each maximum taken by itself per (band,
    order), the amplitude scale over the orders 0..k each time, and omega
    and its size formed on every band."""
    params, c, n_hi = sol.params, sol.coeffs, sol.n_max + 1
    p, pot, eps = params.force_exponent, c.freq_potential, checks.EPS
    om_size = 2.0 * np.abs(pot)[:, None, :] - _omega_series(np.abs(pot), c.band_max)
    terms = _eom_terms(params, c.amp, _omega_series(pot, c.band_max),
                       _engine_extent(p, sol.order)[1], sol.public_bands, om_size=om_size)
    for band, alpha in enumerate(sol.public_bands):
        for k in range(sol.order + 1):
            t = band_weight(p, alpha) + k
            amp_scale = float(np.max(np.abs(c.amp[: k + 1, alpha, :n_hi])))
            if alpha == 1:
                scale = max(1.0, amp_scale**2)
            else:
                scale = max(1.0, abs(1 - alpha * alpha) * params.omega0**2 * amp_scale)
            observed = float(np.max(np.abs(terms[0, t, band, :n_hi]))) / _half(alpha)
            size = float(np.max(terms[1, t, band, :n_hi])) / _half(alpha)
            yield (f"recursion-residual-band{alpha}-order{k}",
                   observed / scale, ROUNDING_C * eps * size / scale)


def quantum_condition_loop(sol):
    """`checks.quantum_condition` with its maxima taken one order at a time."""
    params, c, n_hi, eps = sol.params, sol.coeffs, sol.n_max + 1, checks.EPS
    residual, size = checks._sum_rule_terms(sol)
    for k in range(sol.order + 1):
        amp_scale = float(np.max(np.abs(c.amp[: k + 1, 1, :n_hi])))
        scale = max(1.0, math.pi * params.mass * params.omega0 * amp_scale**2)
        yield (f"quantum-condition-order{k}", float(np.max(np.abs(residual[k, :n_hi]))) / scale,
               ROUNDING_C * eps * float(np.max(size[k, :n_hi])) / scale)
    worst = size = 0.0
    for k in range(sol.order + 1):
        om1, om2 = sol.omega_band(k, 1), sol.omega_band(k, 2)
        pair = np.zeros(sol.n_max + 1)
        pair[2:] = om1[2:] + om1[1:-1]
        worst = max(worst, float(np.max(np.abs(om2 - pair))))
        pot = np.abs(sol.frequency_potential(k))
        size = max(size, float(np.max(pot[2:] + 2.0 * pot[1:-1] + pot[:-2], initial=0.0)))
    yield "frequency-additivity", worst, ROUNDING_C * eps * size


def offdiag_loop(sol):
    """`checks.offdiag_energy`'s figures formed one order at a time."""
    em = energy_matrix(sol)
    for k in range(em.order + 1):
        parts = (em.kinetic[k, 1:], em.harmonic[k, 1:], em.anharmonic[k, 1:])
        size = (np.arange(em.n_max + 1) + 1.0) * sum(np.abs(a) for a in parts)
        yield (f"offdiag-energy-order{k}",
               float(np.max(np.abs(parts[0] + parts[1] + parts[2]), initial=0.0)),
               ROUNDING_C * checks.EPS * float(np.max(size, initial=0.0)))


def test_frequency_additivity_fails_a_nan_potential():
    # one reduction over every order and row keeps the nan, which a fold by
    # Python's max drops unless it comes first
    sol = solve_perturbative(OscillatorParams(), 2, 12)
    pot = np.array(sol.coeffs.freq_potential)
    pot[1, 6] = np.nan
    bad = replace(sol, coeffs=CoefficientSet(np.array(sol.coeffs.amp), pot))
    assert "frequency-additivity" in failing(checks.quantum_condition(bad))


@pytest.mark.parametrize("units", [(1.0, 1.0, 1.0), (1e-3, 10.0, 1e4)], ids=str)
@pytest.mark.parametrize("order", [0, 2, 5])
@pytest.mark.parametrize("n_max", [1, 3, 12])
@pytest.mark.parametrize("force", [2, 3])
def test_one_pass_maxima_keep_the_bits_of_the_per_order_loop(force, n_max, order, units):
    # at n_max 1 and 3 a lower order holds the largest amplitude of a band,
    # so the amplitude scale must be the running maximum over the orders
    m, w0, hbar = units
    sol = solve_perturbative(
        OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=force), order, n_max)
    for group, loop in ((checks.recursion, recursion_loop),
                        (checks.quantum_condition, quantum_condition_loop)):
        assert check_bits(group(sol)) == check_bits(loop(sol))
    em, found = checks.offdiag_energy(sol)
    if em is not None:
        assert check_bits(found) == check_bits(offdiag_loop(sol))
