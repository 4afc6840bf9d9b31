"""The check registry: verdicts that hold at any n_max and in any units, and
injected violations that still fail."""

import io
import json
import math

import numpy as np
import pytest

from ampmech import OscillatorParams, checks, rspt
from ampmech.cli import run
from ampmech.perturb import (
    CoefficientSet,
    EnergyConservationError,
    PerturbSolution,
    _eom_residual_coefficient,
    _omega_series,
    _series_mul,
    _x_series,
    _xp_coefficient,
    band_weight,
    build_recursions,
    energy_diagonal_series,
    energy_matrix,
    sho_solve,
    solve_perturbative,
)

from conftest import assert_same_bits

UNITS = [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7), (1.0, 0.3, 1.0)]


def tampered(sol, k, alpha, row, factor=1.0 + 1e-9):
    """The solution with one coefficient a^(k)(row, row - alpha) scaled."""
    amp = np.array(sol.coeffs.amp, copy=True)
    amp[k, alpha, row] *= factor
    coeffs = CoefficientSet(sol.params.force_exponent, amp,
                            np.array(sol.coeffs.freq_potential))
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
    sol = sho_solve(OscillatorParams(mass=m, omega0=w0, hbar=hbar, lam=0.0), 1000)
    assert not failing(checks.sho(sol, 998))
    assert failing(checks.sho(tampered(sol, 0, 1, 500), 998)) == [
        "sho-quantum-condition", "sho-commutator"]


@pytest.mark.parametrize("units", UNITS + [(0.3, 3.0, 2.0), (5.0, 0.7, 0.2)], ids=str)
def test_coupling_scaling_is_unit_free(units):
    m, w0, hbar = units
    ratio, window = checks.coupling_scaling(OscillatorParams(mass=m, omega0=w0, hbar=hbar),
                                            solve_perturbative)
    default, _ = checks.coupling_scaling(OscillatorParams(), solve_perturbative)
    assert window[0] <= ratio <= window[1]
    assert ratio == pytest.approx(default, rel=1e-6)


def test_offdiag_check_covers_every_band():
    sol = solve_perturbative(OscillatorParams(), 2, 40)
    em, found = checks.offdiag_energy(sol)
    for k, (check_id, observed, tolerance) in enumerate(found):
        worst = max(float(np.max(np.abs(em.total(k, a)))) for a in range(1, em.band_max + 1))
        assert (check_id, observed) == (f"offdiag-energy-order{k}", worst)
        assert 0.0 < tolerance < 1e-10 and math.isfinite(tolerance)


@pytest.mark.parametrize("units", UNITS, ids=str)
@pytest.mark.parametrize("force", [2, 3])
def test_rspt_matches_series_at_any_units(force, units):
    m, w0, hbar = units
    lam = 0.01 * m * w0**3 / hbar
    params = OscillatorParams(mass=m, omega0=w0, hbar=hbar, lam=lam, force_exponent=force)
    levels = 40
    energies = rspt(params, levels, 2)[0].sum(axis=0)
    eds = energy_diagonal_series(solve_perturbative(params, 2, levels + 4))
    observed, tolerance = checks.rspt_matches_series(
        energies, eds.evaluate(lam)[:levels], eds, lam)
    assert observed <= tolerance


def recursion_reference(params, coeffs, alpha, order):
    """`build_recursions(params, alpha, order)(coeffs)` as it was formed before
    one pass gave the equation of motion at every power."""
    p, power = params.force_exponent, band_weight(params.force_exponent, alpha) + order
    band_max = max(coeffs.band_max, alpha)
    x = _x_series(p, coeffs.amp, power, band_max)
    xp_top = None
    if power:
        xp_top = _xp_coefficient(p, x, _series_mul(x, x, power - 1), power - 1)
    res = _eom_residual_coefficient(
        params, x, _omega_series(coeffs.freq_potential, band_max), power, xp_top)
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
