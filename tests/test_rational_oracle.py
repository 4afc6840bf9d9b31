"""Level energies through eighth order against exact-rational RSPT.

The oracle is textbook Rayleigh-Schroedinger perturbation theory on the
ladder basis, in stdlib fractions, sharing no code with `perturb` or with
the float RSPT of `oracle.rspt`; both are checked against it. In the
unnormalized basis a^+|n) = |n+1), a|n) = n|n-1) every matrix element of
(a + a^+)^q is an integer, so every energy coefficient is a rational.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ampmech import (EnergyConservationError, OscillatorParams, checks, perturb, rspt,
                     solve_perturbative)
from ampmech.perturb import energy_matrix

ORDER = 8
LEVELS = range(6)
UNITS = [(1.0, 1.0, 1.0), (2.3, 0.4, 0.7)]

# Bender and Wu, Phys. Rev. 184, 1231 (1969): ground-state energy of
# p^2/2 + x^2/2 + g x^4 through g^8
BENDER_WU = [Fraction(1, 2), Fraction(3, 4), Fraction(-21, 8), Fraction(333, 16),
             Fraction(-30885, 128), Fraction(916731, 256), Fraction(-65518401, 1024),
             Fraction(2723294673, 2048), Fraction(-1030495099053, 32768)]

# float64 bound on the relative error of a nonzero coefficient, about 450 eps;
# the worst measured is 4.5e-14 (quartic force, n = 1, lam^8, default units)
REL_BOUND = 1e-13


def ladder_x(state):
    """(a + a^+) applied to {level: coefficient} in the unnormalized basis."""
    out = {}
    for n, c in state.items():
        out[n + 1] = out.get(n + 1, 0) + c
        if n:
            out[n - 1] = out.get(n - 1, 0) + n * c
    return out


def ladder_rspt(q, level, orders):
    """E_j, j = 0..orders, of a^+ a + 1/2 + mu (a + a^+)^q at the level, per
    power of mu, from (E_0 - H_0) psi_j = V psi_{j-1} - sum_i E_i psi_{j-i}
    with psi_j free of |level) for j >= 1."""
    psi = [{level: Fraction(1)}]
    energies = [Fraction(2 * level + 1, 2)]
    for j in range(1, orders + 1):
        v = psi[j - 1]
        for _ in range(q):
            v = ladder_x(v)
        energies.append(v.get(level, Fraction(0)))
        for i in range(1, j + 1):
            for m, c in psi[j - i].items():
                v[m] = v.get(m, 0) - energies[i] * c
        psi.append({m: c / (level - m) for m, c in v.items() if m != level and c})
    return energies


def exact_energies(p, level):
    """E^(k)(n) in units hbar = m = omega0 = 1 per power of lam, for
    lam x^(p+1)/(p+1) with x = (a + a^+)/sqrt(2): mu = lam/16 for the
    quartic force, and lam/(6 sqrt(2)) for the cubic, whose odd orders
    vanish, so that the even ones take (1/72)^(k/2)."""
    series = ladder_rspt(p + 1, level, ORDER)
    if p == 3:
        return [e / 16**k for k, e in enumerate(series)]
    assert all(e == 0 for e in series[1::2])
    return [e / 72 ** (k // 2) if k % 2 == 0 else e for k, e in enumerate(series)]


def test_oracle_reproduces_bender_wu():
    assert [e * 4**k for k, e in enumerate(exact_energies(3, 0))] == BENDER_WU


def test_oracle_matches_textbook_second_order():
    # cubic: E2 = -(30 n^2 + 30 n + 11)/72; quartic: E1 = 3 (2 n^2 + 2 n + 1)/16
    for n in LEVELS:
        assert exact_energies(2, n)[2] == Fraction(-(30 * n * n + 30 * n + 11), 72)
        assert exact_energies(3, n)[1] == Fraction(3 * (2 * n * n + 2 * n + 1), 16)


def assert_matches_rational(total, p, units):
    """total[k, n], the lam^k energy coefficient of level n, against the
    rational ladder RSPT."""
    mass, omega0, hbar = units
    # lam enters as lam * m l^(p+1) / (hbar omega0) with l = sqrt(hbar/(m omega0))
    coupling = mass * math.sqrt(hbar / (mass * omega0)) ** (p + 1) / (hbar * omega0)
    for n in LEVELS:
        for k, exact in enumerate(exact_energies(p, n)):
            got = float(total[k, n])
            if exact == 0:
                assert got == 0.0
                continue
            want = hbar * omega0 * float(exact) * coupling**k
            assert abs(got - want) <= REL_BOUND * abs(want), (n, k)


def unit_params(p, units):
    mass, omega0, hbar = units
    return OscillatorParams(mass=mass, omega0=omega0, hbar=hbar, force_exponent=p)


@pytest.mark.parametrize("units", UNITS, ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_energy_series_matches_rational_rspt(p, units):
    em = energy_matrix(solve_perturbative(unit_params(p, units), ORDER, 12))
    total = em.kinetic[:, 0] + em.harmonic[:, 0] + em.anharmonic[:, 0]
    assert_matches_rational(total, p, units)


@pytest.mark.parametrize("units", UNITS, ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_float_rspt_matches_rational_rspt(p, units):
    # at lam = 1 each term of the energy is its own coefficient
    total = rspt(replace(unit_params(p, units), lam=1.0), len(LEVELS), ORDER)[0]
    assert_matches_rational(total, p, units)


@pytest.mark.parametrize("p", [2, 3])
def test_independent_judges_catch_a_mutant_sum_rule(monkeypatch, p):
    # the solver and the check quantum-condition-order{k} read one
    # `_sum_rule`, so a defect in it would pass that check. The closed
    # forms, the off-diagonal energy guard and this module's RSPT do not
    # read it: mutate the solver's own use, 1e-9 n added to the sum rule at
    # every order t >= 1, and each of them fails
    real = perturb._sum_rule

    def mutant(params, x, wx, max_power, min_power=0):
        res = real(params, x, wx, max_power, min_power)
        return res + 1e-9 * np.arange(res.shape[-1]) if min_power >= 1 else res

    monkeypatch.setattr(perturb, "_sum_rule", mutant)
    params = unit_params(p, UNITS[0])
    sol = solve_perturbative(params, ORDER, 12)
    with pytest.raises(EnergyConservationError):
        energy_matrix(sol)
    # the level energies past that guard
    monkeypatch.setattr(perturb.EnergyMatrix, "offdiag", lambda self, k: (0.0, 0.0))
    em = energy_matrix(sol)
    with pytest.raises(AssertionError):
        assert_matches_rational(em.kinetic[:, 0] + em.harmonic[:, 0] + em.anharmonic[:, 0],
                                p, UNITS[0])
    if p == 2:  # the closed forms are tabulated for the cubic force only
        assert any(not observed <= tolerance
                   for _, observed, tolerance in checks.closed_form(sol))
