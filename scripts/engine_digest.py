#!/usr/bin/env python3
"""Print one SHA-256 of the engine's output bytes per (force, order, n_max, units).

Each line hashes, in order: the amplitude tables and frequency potentials of
`solve_perturbative`; the kinetic, harmonic and anharmonic arrays of
`energy_matrix` (or the text of the error it raises); and the harmonic and
frequency coefficients of `classical_solve` at a1 = 1, which do not depend
on n_max. The grid is both forces, orders 0-8, n_max 1, 3, 12, 200 and
1000, and the units (m, omega0, hbar) (1, 1, 1), (1.3, 0.7, 1.1) and
(1e-3, 10, 1e4). The bytes include the signs of zeros. Runs are
deterministic, so two checkouts compare by diffing the output: a change to
the series engine that keeps every bit prints the same lines.

    PYTHONPATH=src python3 scripts/engine_digest.py > digest.txt
"""

import functools
import hashlib

from ampmech import OscillatorParams, classical_solve, energy_matrix, solve_perturbative
from ampmech.perturb import EnergyConservationError

FORCES = (2, 3)
ORDERS = range(9)
N_MAX = (1, 3, 12, 200, 1000)
UNITS = ((1.0, 1.0, 1.0), (1.3, 0.7, 1.1), (1e-3, 10.0, 1e4))


def params_of(force, units):
    m, w0, hbar = units
    return OscillatorParams(mass=m, omega0=w0, hbar=hbar, force_exponent=force)


@functools.cache
def classical_bytes(force, order, units):
    sol = classical_solve(params_of(force, units), order, a1=1.0)
    return sol.amp.tobytes() + sol.omega_coeffs.tobytes()


def digest(force, order, n_max, units):
    """SHA-256 of the solve, energy and classical bytes of one case."""
    h = hashlib.sha256()
    sol = solve_perturbative(params_of(force, units), order, n_max)
    h.update(sol.coeffs.amp.tobytes())
    h.update(sol.coeffs.freq_potential.tobytes())
    try:
        em = energy_matrix(sol)
        for part in (em.kinetic, em.harmonic, em.anharmonic):
            h.update(part.tobytes())
    except EnergyConservationError as exc:
        h.update(str(exc).encode())
    h.update(classical_bytes(force, order, units))
    return h.hexdigest()


def main():
    for force in FORCES:
        for order in ORDERS:
            for n_max in N_MAX:
                for units in UNITS:
                    print(force, order, n_max, ",".join(map(repr, units)),
                          digest(force, order, n_max, units), flush=True)


if __name__ == "__main__":
    main()
