"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 5a and 5b are implemented exactly as stated and marked as strict
expected failures: for the cubic force every odd-order correction vanishes
identically (the spectrum is even in the coupling), so a second-order
solution is accidentally third-order accurate and its gap to the exact
spectrum scales as the fourth power of the coupling. The measured drop
under coupling halving is therefore ~16x, not ~8x, and the stated 5e-5
magnitude bound is exceeded from the second excited level up. See
tests in test_oracle.py for the true (passing) scaling bounds.
"""

import io
import math
import pathlib

import numpy as np
import pytest

from ampmech import (
    OscillatorParams,
    assemble_motion,
    balance_residuals,
    classical_solve,
    commutator_diagonal,
    energy_matrix,
    extract_structure_constants,
    ode_residual,
    rspt,
    solve_perturbative,
)
from ampmech.cli import run
from ampmech.perturb import closed_form_amplitude, closed_form_frequency

from conftest import (default_lambda_grid, lambda_series_fit, motion_from_spectrum,
                      quantum_condition_residual)

B = math.sqrt(2.0)
P2 = OscillatorParams()
N_TOP = 20
GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def report(tag, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {tag}] {state} {detail}".rstrip())
    return ok


def rel_err(got, target):
    return abs(got - target) / max(1.0, abs(target))


def test_criterion_1_closed_form_regression(sol_cubic):
    worst = 0.0
    for k, alpha in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                     (2, 0), (2, 1), (2, 2)]:
        got = sol_cubic.a(k, alpha)
        for n in range(N_TOP + 1):
            worst = max(worst, rel_err(got[n], closed_form_amplitude(k, n, alpha, P2)))
    for k, alpha in [(0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (2, 2)]:
        got = sol_cubic.omega_band(k, alpha)
        for n in range(alpha, N_TOP + 1):
            worst = max(worst, rel_err(got[n], closed_form_frequency(k, n, alpha, P2)))
    constants = extract_structure_constants(sol_cubic)  # raises if n-dependent
    worst_const = max(
        abs(constants[1] - 1.0),
        abs(constants[2] - 1.0 / 6.0),
        abs(constants[3] - 1.0 / 48.0),
    )
    ok = worst <= 1e-12 and worst_const <= 1e-12
    assert report(
        1, ok,
        f"closed forms rel err {worst:.2e}, structure constants err {worst_const:.2e}",
    )


def test_criterion_2_energy_series(sol_cubic):
    em = energy_matrix(sol_cubic)
    n = np.arange(N_TOP + 1, dtype=float)
    poly = n**2 + n + 11.0 / 30.0
    checks = [
        (em.diagonal(0)[: N_TOP + 1], n + 0.5),
        (em.diagonal(1)[: N_TOP + 1], np.zeros(N_TOP + 1)),
        (em.diagonal(2)[: N_TOP + 1], -5.0 / 12.0 * poly),
        (em.harmonic[2, 0, : N_TOP + 1], 0.5 * (5.0 * B**4 / 12.0) * poly),
        (em.kinetic[2, 0, : N_TOP + 1], -0.5 * (5.0 * B**4 / 24.0) * poly),
        (em.anharmonic[2, 0, : N_TOP + 1], -(5.0 * B**4 / 24.0) * poly),
    ]
    worst = max(
        float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        for got, want in checks
    )
    assert report(2, worst <= 1e-12, f"series and pieces rel err {worst:.2e}")


def test_criterion_3_energy_conservation(sol_cubic):
    em = energy_matrix(sol_cubic)
    worst_order1 = max(
        float(np.max(np.abs(em.total(1, 1)[: N_TOP + 1]))),
        float(np.max(np.abs(em.total(1, 3)[: N_TOP + 1]))),
    )
    static_band2 = float(np.max(np.abs(
        (em.harmonic[0, 2] + em.kinetic[0, 2])[: N_TOP + 1]
    )))
    nonzero_piece = float(np.max(np.abs(em.harmonic[0, 2][: N_TOP + 1])))
    ok = worst_order1 <= 1e-12 and static_band2 <= 1e-12 and nonzero_piece > 0.1
    assert report(
        3, ok,
        f"first-order bands 1,3 max {worst_order1:.2e}, "
        f"static band-2 cancellation {static_band2:.2e}",
    )


def test_criterion_4_sho_quantum_condition_and_commutator():
    n_max = 50
    sol = solve_perturbative(OscillatorParams(lam=0.0), 0, n_max)
    motion = assemble_motion(sol, 0.0)
    res = np.max(np.abs(quantum_condition_residual(motion)[: n_max - 1]))
    comm = np.max(np.abs(commutator_diagonal(motion)[: n_max - 1] - 1j))
    ok = res <= 1e-12 and comm <= 1e-12
    assert report(
        "4a", ok, f"sum-rule residual {res:.2e}, commutator defect {comm:.2e}"
    )


def test_criterion_4_commutator_scaling(sol_quartic):
    # the force exponent is not pinned here; the quartic force realizes the
    # third-power scaling (for the cubic force odd orders vanish, see notes)
    devs = []
    for lam in (0.1, 0.05):
        comm = commutator_diagonal(assemble_motion(sol_quartic, lam))
        devs.append(float(np.max(np.abs(comm[:5] - 1j))))
    ratio = devs[0] / devs[1]
    ok = 8.0 * 0.7 <= ratio <= 8.0 * 1.3
    assert report("4b", ok, f"commutator deviation drop {ratio:.2f}x")


def test_criterion_5_rspt_identity():
    worst = 0.0
    energies = rspt(P2, 11, 2)[0].sum(axis=0)
    for n in range(11):
        want = (n + 0.5) - 5.0 * 0.05**2 / 12.0 * (n**2 + n + 11.0 / 30.0)
        worst = max(worst, abs(energies[n] - want))
    assert report("5a", worst <= 1e-12, f"second-order sum vs series {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="even spectrum in the coupling: gap is ~1.5e-4 at the third level",
)
def test_criterion_5_gap_magnitude(sol_cubic, cached_spectrum):
    em = energy_matrix(sol_cubic)
    gaps = np.abs(cached_spectrum(0.05).eigenvalues[:4] - em.evaluate(0.05)[:4])
    ok = bool(np.max(gaps) <= 5e-5)
    report("5b", ok, f"(expected failure) max gap n<=3 is {np.max(gaps):.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="even spectrum in the coupling: the gap scales as the fourth power, ~16x",
)
def test_criterion_5_gap_scaling(sol_cubic, cached_spectrum):
    em = energy_matrix(sol_cubic)
    g1 = np.abs(cached_spectrum(0.05).eigenvalues[:4] - em.evaluate(0.05)[:4])
    g2 = np.abs(cached_spectrum(0.025).eigenvalues[:4] - em.evaluate(0.025)[:4])
    ratio = float(np.max(g1 / g2))
    ok = 8.0 * 0.7 <= ratio <= 8.0 * 1.3
    report("5c", ok, f"(expected failure) measured drop {ratio:.2f}x")
    assert ok


def test_criterion_6_series_fits(cached_spectrum):
    grid = default_lambda_grid(0.05)
    specs = [cached_spectrum(lam) for lam in grid]
    targets = [
        ("omega(1,0)", [s.omega_exact(1, 0) for s in specs], 2, -5.0 * B**2 / 12.0),
        ("X(1,1)", [s.position_columns(2)[1, 1] for s in specs], 1, -3.0 * B**2 / 4.0),
        ("X(2,0)", [s.position_columns(1)[2, 0] for s in specs], 1, B**2 * math.sqrt(2) / 12.0),
    ]
    worst = 0.0
    for _, samples, power, target in targets:
        coefficients = lambda_series_fit(np.array(samples), grid, 3)
        worst = max(worst, abs(coefficients[power] - target) / abs(target))
    assert report(6, worst <= 1e-2, f"worst fit error {worst:.2%}")


def test_criterion_7_sum_rule_on_oracle(cached_spectrum):
    worst = 0.0
    for lam, force in ((0.05, 2), (0.1, 3), (0.5, 3)):
        motion = motion_from_spectrum(cached_spectrum(lam, force_exponent=force))
        worst = max(worst, float(np.max(np.abs(
            quantum_condition_residual(motion)[:6]
        ))))
    assert report(7, worst <= 1e-8, f"worst sum-rule residual {worst:.2e}")


def test_criterion_8_correspondence():
    n = 1000
    quantum = solve_perturbative(P2, 2, n + 4)
    cl = classical_solve(P2, 2, action=n * P2.h)
    d1 = abs(quantum.a(0, 1)[n] / cl.amp[0, 1] - 1.0)
    d2 = abs(quantum.a(0, 2)[n] / cl.amp[0, 2] - 1.0)
    sol = classical_solve(OscillatorParams(lam=0.01), 2, a1=1.0)
    ratio = ode_residual(sol, 0.01) / ode_residual(sol, 0.005)
    balance = float(np.max(np.abs(balance_residuals(cl))))
    ok = d1 <= 1e-3 and d2 <= 1e-3 and 8.0 * 0.7 <= ratio <= 8.0 * 1.3
    assert report(
        8, ok,
        f"amplitude deficits {d1:.1e}/{d2:.1e}, residual drop {ratio:.2f}x, "
        f"balance {balance:.1e}",
    )


def test_criterion_9_quartic_parity_and_validation(sol_quartic, cached_spectrum):
    motion = assemble_motion(sol_quartic, 0.3)
    parity_ok = all(
        np.max(np.abs(motion.amplitudes.band(alpha))) == 0.0
        for alpha in range(0, motion.amplitudes.band_max + 1, 2)
    )
    em = energy_matrix(sol_quartic)
    g1 = np.abs(
        cached_spectrum(0.05, force_exponent=3).eigenvalues[:4] - em.evaluate(0.05)[:4]
    )
    g2 = np.abs(
        cached_spectrum(0.025, force_exponent=3).eigenvalues[:4]
        - em.evaluate(0.025)[:4]
    )
    ratios = g1 / g2
    scaling_ok = bool(np.all((8.0 * 0.7 <= ratios) & (ratios <= 8.0 * 1.3)))
    ok = parity_ok and scaling_ok
    assert report(
        9, ok,
        f"even bands zero: {parity_ok}, gap drop {np.min(ratios):.2f}x..{np.max(ratios):.2f}x",
    )


def test_criterion_10_cli_goldens():
    invocations = {
        "solve.json": ["solve"],
        "solve.csv": ["solve", "--format", "csv"],
        "verify.json": ["verify"],
        "classical.json": ["classical", "--a1", "1.0", "--lam", "0.01",
                           "--level", "40"],
        "oracle.json": ["oracle"],
        "sho.json": ["sho"],
    }
    ok = True
    for name, argv in invocations.items():
        buffer = io.StringIO()
        code = run(argv, stream=buffer)
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        if code != 0 or buffer.getvalue() != golden:
            ok = False
    assert report(10, ok, "byte-identical CLI reruns for every subcommand")
