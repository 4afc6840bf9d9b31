"""Command-line front end.

Subcommands:
  solve      perturbative coefficient tables plus the energy series
  verify     invariant checks over the whole library; exit 1 on violation
  classical  Fourier-series orbit, action integral, correspondence ratios
  oracle     truncated-basis diagonalization, sum rule, series fits
  sho        exact unperturbed-oscillator route

Output is deterministic for a fixed invocation: field order is fixed and
every float is rendered with 17 significant digits, so reruns are
byte-identical and can be diffed against golden files. JSON goes to
stdout unless --output is given; AMPMECH_OUT_DIR rebases relative output
paths.

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
3 numeric failure (non-convergence, or a result not finite or overflowing).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .classical import action_integral, classical_solve, ode_residual
from .core import (
    BandAmplitudeArray,
    FrequencyGrid,
    MotionRepresentation,
    commutator_diagonal,
    multiply,
    quantum_condition_residual,
    time_derivative,
)
from .oracle import (
    NumericError,
    PlateauError,
    default_lambda_grid,
    lambda_series_fit,
    motion_from_spectrum,
    rspt_energy_second_order,
    spectrum,
)
from .params import OscillatorParams
from .perturb import (
    EnergyConservationError,
    StructureViolationError,
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
    _band_list,
)

CHECK_GROUPS = (
    "all",
    "algebra",
    "recursion",
    "quantum-condition",
    "commutator",
    "offdiag",
    "closed-form",
)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic rendering


class NonFiniteError(ValueError):
    """A result to be rendered is NaN or infinite."""


def _fmt_table(values, line: str, sep: str, indexed: bool = False) -> str:
    """The one float rule for a 1-d table: 17 significant digits, -0.0 as 0,
    NaN and inf refused. One % renders the whole table: `line`, which holds
    "%.17g" (after "%d" when `indexed`, which passes each value's index
    first), is repeated once per value and joined by `sep`."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteError("refusing to serialize a non-finite number")
    # x + 0.0 is x for every finite x except -0.0, which it turns into 0.0
    args = (arr + 0.0).tolist()
    if indexed:
        pairs = [None] * (2 * len(args))
        pairs[0::2] = range(len(args))
        pairs[1::2] = args
        args = pairs
    return sep.join([line] * len(arr)) % tuple(args)


def _fmt_float(x) -> str:
    """The rule of `_fmt_table` for one number."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteError("refusing to serialize a non-finite number")
    return "%.17g" % (x + 0.0)


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) == 0:
            return "[]"
        if isinstance(obj, np.ndarray):  # 1-d, of floats
            body = _fmt_table(obj, "%.17g", f",\n{inner}")
        else:
            body = f",\n{inner}".join(render_json(v, indent + 1) for v in obj)
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_csv(rows) -> str:
    """One line per value; a row whose value is an array gives one line per n."""
    lines = ["quantity,order,band,n,value"]
    for quantity, order, band, n, value in rows:
        order, band, n = ("" if v is None else str(int(v)) for v in (order, band, n))
        if isinstance(value, np.ndarray):
            if len(value):
                prefix = f"{quantity},{order},{band},".replace("%", "%%")
                lines.append(_fmt_table(value, prefix + "%d,%.17g", "\n", indexed=True))
        else:
            lines.append(f"{quantity},{order},{band},{n},{_fmt_float(value)}")
    return "\n".join(lines) + "\n"


def _values(array) -> np.ndarray:
    return np.array(array, dtype=np.float64).ravel()


# ---------------------------------------------------------------------------
# checks


def _check(checks, rows, check_id, tolerance, observed, detail=None):
    broken = observed is None or not math.isfinite(observed)
    entry = {
        "id": check_id,
        "tolerance": float(tolerance),
        "observed": None if broken else float(observed),
        "pass": False if broken else bool(observed <= tolerance),
    }
    if detail:
        entry["detail"] = detail
    checks.append(entry)
    if not broken:
        rows.append((f"check:{check_id}", None, None, None, float(observed)))


def _check_window(checks, rows, check_id, low, high, observed, detail=None):
    entry = {
        "id": check_id,
        "window": [float(low), float(high)],
        "observed": float(observed),
        "pass": bool(low <= observed <= high),
    }
    if detail:
        entry["detail"] = detail
    checks.append(entry)
    rows.append((f"check:{check_id}", None, None, None, float(observed)))


def _random_symmetric_band(rng, n_max: int, band_max: int) -> BandAmplitudeArray:
    data = np.zeros((n_max + 1, 2 * band_max + 1))
    for a in range(band_max + 1):
        vals = rng.normal(size=n_max + 1)
        vals[:a] = 0.0
        data[:, band_max + a] = vals
        if a:
            data[: n_max + 1 - a, band_max - a] = vals[a:]
    return BandAmplitudeArray(data)


def _dyadic_potential(rng, size: int) -> np.ndarray:
    # dyadic rationals keep potential differences exact in binary floating point
    return rng.integers(-(2**20), 2**20, size=size).astype(float) / 1024.0


def _algebra_checks(checks, rows, params, seed: int) -> None:
    rng = np.random.default_rng(seed)
    n_max, bx, by = 14, 2, 3
    x = _random_symmetric_band(rng, n_max, bx)
    y = _random_symmetric_band(rng, n_max, by)
    z = _random_symmetric_band(rng, n_max, 2)

    pot = _dyadic_potential(rng, n_max + bx + by + 3)
    grid = FrequencyGrid(pot)
    worst = 0.0
    for n in range(n_max):
        for a in range(1, 4):
            for b in range(1, 4):
                if n - a - b < 0:
                    continue
                worst = max(
                    worst,
                    abs(
                        grid.omega(n, n - a)
                        + grid.omega(n - a, n - a - b)
                        - grid.omega(n, n - a - b)
                    ),
                )
    _check(checks, rows, "ritz-combination", 0.0, worst)

    prod = multiply(x, y)
    dense = x.to_dense() @ y.to_dense()
    scale = max(1.0, float(np.max(np.abs(dense))))
    _check(
        checks,
        rows,
        "multiply-matches-dense-product",
        1e-14,
        float(np.max(np.abs(prod.to_dense() - dense))) / scale,
    )

    left = multiply(multiply(x, y), z).to_dense()
    right = multiply(x, multiply(y, z)).to_dense()
    scale = max(1.0, float(np.max(np.abs(left))))
    _check(
        checks,
        rows,
        "multiply-associative",
        1e-14,
        float(np.max(np.abs(left - right))) / scale,
    )

    t_left = multiply(x, y).to_dense().T
    t_right = multiply(y, x).to_dense()
    scale = max(1.0, float(np.max(np.abs(t_right))))
    _check(
        checks,
        rows,
        "product-transpose-reverses-order",
        1e-14,
        float(np.max(np.abs(t_left - t_right))) / scale,
    )

    mx = MotionRepresentation(x, grid, params)
    my = MotionRepresentation(y, grid, params)
    prod_m = MotionRepresentation(multiply(x, y), grid, params)
    lhs = time_derivative(prod_m).to_dense()
    rhs = (
        multiply(time_derivative(mx), y).to_dense()
        + multiply(x, time_derivative(my)).to_dense()
    )
    scale = max(1.0, float(np.max(np.abs(rhs))))
    _check(
        checks,
        rows,
        "derivative-product-rule",
        1e-12,
        float(np.max(np.abs(lhs - rhs))) / scale,
    )


def _sho_checks(checks, rows, sol, interior: int) -> None:
    """Sum rule and commutator of an exact oscillator solution on its first
    `interior` rows."""
    motion = assemble_motion(sol, 0.0)
    res = quantum_condition_residual(motion)[:interior]
    comm = commutator_diagonal(motion)[:interior]
    _check(checks, rows, "sho-quantum-condition", 1e-12,
           float(np.max(np.abs(res))))
    _check(checks, rows, "sho-commutator", 1e-12,
           float(np.max(np.abs(comm - 1j * sol.params.hbar))))


def _recursion_checks(checks, rows, params, sol) -> None:
    # residuals are compared against the magnitude of the equation's own
    # terms; for the cubic force at default units that scale is O(1)
    n_hi = sol.n_max + 1
    for alpha in _band_list(params.force_exponent, _public_band_max(params, sol.order)):
        for k in range(sol.order + 1):
            residual = build_recursions(params, alpha, k)(sol.coeffs)
            amp_scale = float(np.max(np.abs(sol.coeffs.amp[: k + 1, alpha, :n_hi])))
            if alpha == 1:
                scale = max(1.0, amp_scale**2)
            else:
                scale = max(1.0, abs(1 - alpha * alpha) * params.omega0**2 * amp_scale)
            _check(
                checks,
                rows,
                f"recursion-residual-band{alpha}-order{k}",
                1e-12,
                float(np.max(np.abs(residual[:n_hi]))) / scale,
            )


def _quantum_condition_checks(checks, rows, params, sol) -> None:
    n_hi = sol.n_max + 1
    for k in range(sol.order + 1):
        residual = quantum_condition_order_residual(sol, k)
        amp_scale = float(np.max(np.abs(sol.coeffs.amp[: k + 1, 1, :n_hi])))
        scale = max(1.0, math.pi * params.mass * params.omega0 * amp_scale**2)
        _check(
            checks,
            rows,
            f"quantum-condition-order{k}",
            1e-12,
            float(np.max(np.abs(residual[:n_hi]))) / scale,
        )
    worst = 0.0
    for k in range(sol.order + 1):
        om2 = sol.omega_band(k, 2)
        om1 = sol.omega_band(k, 1)
        pair = np.zeros(sol.n_max + 1)
        pair[2:] = om1[2:] + om1[1:-1]
        worst = max(worst, float(np.max(np.abs(om2 - pair))))
    _check(checks, rows, "frequency-additivity", 1e-12, worst)


def _closed_form_checks(checks, rows, params, sol) -> None:
    if params.force_exponent != 2:
        return
    levels = np.arange(sol.n_max + 1)

    def worst(solved, target):
        return float(np.max(np.abs(solved - target) / np.maximum(1.0, np.abs(target))))

    tabulated_amp = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                     (2, 0), (2, 1), (2, 2)]
    observed = max(
        worst(sol.a(k, alpha), closed_form_amplitude(k, levels, alpha, params))
        for k, alpha in tabulated_amp
    )
    _check(checks, rows, "closed-form-amplitudes", 1e-12, observed)

    tabulated_freq = [(0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (2, 2)]
    observed = max(
        worst(sol.omega_band(k, alpha)[alpha:],
              closed_form_frequency(k, levels[alpha:], alpha, params))
        for k, alpha in tabulated_freq
    )
    _check(checks, rows, "closed-form-frequencies", 1e-12, observed)

    try:
        constants = extract_structure_constants(sol)
        observed = max(
            abs(constants[1] - 1.0),
            abs(constants[2] - 1.0 / 6.0),
            abs(constants[3] - 1.0 / 48.0),
        )
    except StructureViolationError:
        observed = None
    _check(checks, rows, "structure-constants", 1e-12, observed)


def _offdiag_checks(checks, rows, params, sol) -> None:
    try:
        em = energy_matrix(sol, sol.order)
    except EnergyConservationError:
        for k in range(sol.order + 1):
            _check(checks, rows, f"offdiag-energy-order{k}", 1e-12, None)
        return
    for k in range(sol.order + 1):
        worst = 0.0
        for alpha in range(1, min(3, em.band_max) + 1):
            worst = max(worst, float(np.max(np.abs(em.total(k, alpha)))))
        _check(checks, rows, f"offdiag-energy-order{k}", 1e-12, worst)


def _commutator_checks(checks, rows, params) -> None:
    quartic = replace(params, force_exponent=3)
    sol = solve_perturbative(quartic, 2, 12)
    devs = []
    for lam in (0.1, 0.05):
        comm = commutator_diagonal(assemble_motion(sol, lam))
        devs.append(float(np.max(np.abs(comm[:5] - 1j * quartic.hbar))))
    ratio = devs[0] / devs[1]
    _check_window(
        checks,
        rows,
        "commutator-coupling-scaling",
        8.0 * 0.7,
        8.0 * 1.3,
        ratio,
        detail="deviation from i*hbar under coupling halving, quartic force",
    )


def _public_band_max(params, order: int) -> int:
    return order + 1 if params.force_exponent == 2 else 2 * order + 1


# ---------------------------------------------------------------------------
# subcommands


def _params_from(cfg) -> OscillatorParams:
    return OscillatorParams(
        mass=cfg.mass,
        omega0=cfg.omega0,
        lam=cfg.lam,
        hbar=cfg.hbar,
        force_exponent=cfg.force,
    )


def _config_block(cfg, extra: dict | None = None) -> dict:
    block = {
        "subcommand": cfg.subcommand,
        "mass": cfg.mass,
        "omega0": cfg.omega0,
        "lam": cfg.lam,
        "hbar": cfg.hbar,
        "force": cfg.force,
    }
    if extra:
        block.update(extra)
    return block


def cmd_solve(cfg):
    params = _params_from(cfg)
    sol = solve_perturbative(params, cfg.order, cfg.n_max)
    checks: list = []
    rows: list = []
    amplitude_tables = []
    for alpha in _band_list(params.force_exponent, _public_band_max(params, cfg.order)):
        for k in range(sol.solved_orders[alpha] + 1):
            values = _values(sol.a(k, alpha))
            amplitude_tables.append({"order": k, "band": alpha, "values": values})
            rows.append(("a", k, alpha, None, values))
    freq_tables = []
    for k in range(cfg.order + 1):
        band = _values(sol.omega_band(k, 1))
        freq_tables.append({"order": k, "band": 1, "values": band})
        rows.append(("omega", k, 1, None, band))
    potential_tables = [
        {"order": k, "values": _values(sol.frequency_potential(k))}
        for k in range(cfg.order + 1)
    ]

    exit_code = 0
    try:
        em = energy_matrix(sol, cfg.order)
        energy_orders = []
        for k in range(cfg.order + 1):
            total = _values(em.diagonal(k))
            energy_orders.append(
                {
                    "order": k,
                    "kinetic": _values(em.kinetic[k, 0]),
                    "harmonic": _values(em.harmonic[k, 0]),
                    "anharmonic": _values(em.anharmonic[k, 0]),
                    "total": total,
                }
            )
            rows.append(("energy", k, 0, None, total))
            worst = 0.0
            for alpha in range(1, em.band_max + 1):
                worst = max(worst, float(np.max(np.abs(em.total(k, alpha)))))
            _check(checks, rows, f"offdiag-energy-order{k}", 1e-12, worst)
    except EnergyConservationError as exc:
        energy_orders = []
        _check(checks, rows, "offdiag-energy", 1e-12, None, detail=str(exc))
        exit_code = 1

    constants = extract_structure_constants(sol)
    for alpha, value in sorted(constants.items()):
        rows.append(("structure-constant", 0, alpha, None, float(value)))

    payload = {
        "config": _config_block(cfg, {"order": cfg.order, "n_max": cfg.n_max}),
        "results": {
            "beta": params.beta,
            "structure_constants": [
                {"band": alpha, "value": value}
                for alpha, value in sorted(constants.items())
            ],
            "amplitude_coefficients": amplitude_tables,
            "frequency_corrections": freq_tables,
            "frequency_potential": potential_tables,
            "energy_series": energy_orders,
        },
        "checks": checks,
        "provenance": _provenance(checks),
    }
    if any(not c["pass"] for c in checks):
        exit_code = 1
    return payload, rows, exit_code


def cmd_verify(cfg):
    params = _params_from(cfg)
    checks: list = []
    rows: list = []
    group = cfg.check
    needs_solution = group in ("all", "recursion", "quantum-condition",
                               "offdiag", "closed-form")
    sol = solve_perturbative(params, cfg.order, cfg.n_max) if needs_solution else None
    if group in ("all", "algebra"):
        _algebra_checks(checks, rows, params, cfg.seed)
    if group in ("all", "commutator"):
        _sho_checks(checks, rows, sho_solve(replace(params, lam=0.0), 50), 49)
        _commutator_checks(checks, rows, params)
    if group in ("all", "recursion"):
        _recursion_checks(checks, rows, params, sol)
    if group in ("all", "quantum-condition"):
        _quantum_condition_checks(checks, rows, params, sol)
    if group in ("all", "closed-form"):
        _closed_form_checks(checks, rows, params, sol)
    if group in ("all", "offdiag"):
        _offdiag_checks(checks, rows, params, sol)

    payload = {
        "config": _config_block(
            cfg,
            {"order": cfg.order, "n_max": cfg.n_max, "check": group,
             "seed": cfg.seed},
        ),
        "results": {"checks_run": len(checks)},
        "checks": checks,
        "provenance": _provenance(checks),
    }
    return payload, rows, 0 if all(c["pass"] for c in checks) else 1


def cmd_classical(cfg):
    params = _params_from(cfg)
    checks: list = []
    rows: list = []
    if cfg.action is not None:
        sol = classical_solve(params, cfg.order, action=cfg.action)
    else:
        sol = classical_solve(params, cfg.order, a1=cfg.a1)
    coeff_tables = []
    for k in range(cfg.order + 1):
        coeff_tables.append({"order": k, "values": _values(sol.amp[k])})
        for alpha, v in enumerate(sol.amp[k]):
            rows.append(("harmonic", k, alpha, None, float(v)))
    for k, v in enumerate(sol.omega_coeffs):
        rows.append(("omega", k, None, None, float(v)))

    action = action_integral(sol, params, lam=cfg.lam)
    rows.append(("action", None, None, None, action))
    residual = ode_residual(sol, cfg.lam, cfg.samples)
    residual_half = ode_residual(sol, cfg.lam / 2.0, cfg.samples)
    rows.append(("ode-residual", None, None, None, residual))
    results = {
        "a1": float(sol.amp[0, 1]),
        "omega_coefficients": _values(sol.omega_coeffs),
        "harmonic_coefficients": coeff_tables,
        "action": action,
        "ode_residual": residual,
        "ode_residual_half_coupling": residual_half,
        "ode_residual_ratio": residual / residual_half if residual_half else 0.0,
    }

    if cfg.level is not None:
        n = cfg.level
        quantum = solve_perturbative(params, cfg.order, n + 4)
        cl = classical_solve(params, cfg.order, action=n * params.h)
        ratios = {
            "level": n,
            "a1_ratio": float(quantum.a(0, 1)[n] / cl.amp[0, 1]),
        }
        if params.force_exponent == 2 and 2 in quantum.solved_orders:
            ratios["a2_ratio"] = float(quantum.a(0, 2)[n] / cl.amp[0, 2])
            if cfg.order >= 2:
                ratios["omega2_ratio"] = float(
                    quantum.omega_band(2, 1)[n] / (cl.omega_coeffs[2])
                )
        results["correspondence"] = ratios
        for key, val in ratios.items():
            if key != "level":
                rows.append((f"correspondence-{key}", None, None, n, float(val)))

    payload = {
        "config": _config_block(
            cfg,
            {"order": cfg.order, "a1": cfg.a1, "action": cfg.action,
             "level": cfg.level, "samples": cfg.samples},
        ),
        "results": results,
        "checks": checks,
        "provenance": _provenance(checks),
    }
    return payload, rows, 0


def cmd_oracle(cfg):
    params = _params_from(cfg)
    checks: list = []
    rows: list = []
    spec = spectrum(params, cfg.basis_size)
    levels = min(cfg.levels, cfg.basis_size)
    eigenvalues = _values(spec.eigenvalues[:levels])
    rows.append(("eigenvalue", None, None, None, eigenvalues))

    motion = motion_from_spectrum(spec)
    trk = _values(quantum_condition_residual(motion)[:6])
    rows.append(("thomas-kuhn-residual", None, None, None, trk))
    _check(
        checks, rows, "thomas-kuhn-sum-rule", 1e-8, float(np.max(np.abs(trk)))
    )

    rspt = [rspt_energy_second_order(params, n) for n in range(levels)]
    sol = solve_perturbative(params, 2, max(12, levels + 4))
    series = energy_diagonal_series(sol).evaluate(params.lam)[:levels]
    gaps = np.abs(eigenvalues - series)
    rows.append(("perturbative-gap", None, None, None, gaps))
    _check(
        checks,
        rows,
        "rspt-matches-amplitude-series",
        1e-12,
        float(np.max(np.abs(np.array(rspt) - series))),
        detail="second-order sum versus banded-solver energy series",
    )

    grid = default_lambda_grid(cfg.lam_max, cfg.grid_points)
    if params.force_exponent == 2:
        # the grid point at lam itself is the main spectrum, already built
        specs = [
            spec if lam == params.lam
            else spectrum(replace(params, lam=lam), cfg.basis_size, check_plateau=False)
            for lam in grid
        ]
        beta, w0 = params.beta, params.omega0
        fits = []
        targets = [
            ("omega-1-0", np.array([s.omega_exact(1, 0) for s in specs]), 2,
             -5.0 * beta**2 / (12.0 * w0**3)),
            ("x-1-1", np.array([s.amplitudes[1, 1] for s in specs]), 1,
             -3.0 * beta**2 / (4.0 * w0**2)),
            ("x-2-0", np.array([s.amplitudes[2, 0] for s in specs]), 1,
             beta**2 * math.sqrt(2.0) / (12.0 * w0**2)),
        ]
        for name, samples, power, target in targets:
            fit = lambda_series_fit(samples, grid, cfg.fit_order)
            got = float(fit.coefficients[power])
            rel = abs(got - target) / abs(target)
            fits.append(
                {
                    "quantity": name,
                    "power": power,
                    "coefficient": got,
                    "target": target,
                    "relative_error": rel,
                    "condition_number": fit.condition_number,
                    "ill_conditioned": fit.ill_conditioned,
                }
            )
            _check(checks, rows, f"series-fit-{name}", 1e-2, rel)
    else:
        fits = []

    results = {
        "basis_size": cfg.basis_size,
        "eigenvalues": eigenvalues,
        "plateau": _values(spec.plateau) if spec.plateau is not None else None,
        "thomas_kuhn_residuals": trk,
        "rspt_second_order": [float(v) for v in rspt],
        "perturbative_series": _values(series),
        "perturbative_gap": gaps,
        "series_fits": fits,
    }
    payload = {
        "config": _config_block(
            cfg,
            {"basis_size": cfg.basis_size, "levels": cfg.levels,
             "lam_max": cfg.lam_max, "grid_points": cfg.grid_points,
             "fit_order": cfg.fit_order},
        ),
        "results": results,
        "checks": checks,
        "provenance": _provenance(checks),
    }
    return payload, rows, 0 if all(c["pass"] for c in checks) else 1


def cmd_sho(cfg):
    # the exact route ignores --lam
    params = _params_from(replace(cfg, lam=0.0))
    checks: list = []
    sol = sho_solve(params, cfg.n_max)
    amp = _values(sol.a(0, 1))
    energies = _values(energy_matrix(sol, 0).diagonal(0))
    rows = [("a", 0, 1, None, amp), ("energy", 0, 0, None, energies)]
    _sho_checks(checks, rows, sol, max(1, cfg.n_max - 2))
    payload = {
        "config": _config_block(cfg, {"n_max": cfg.n_max}),
        "results": {
            "beta": params.beta,
            "adjacent_amplitudes": amp,
            "energies": energies,
        },
        "checks": checks,
        "provenance": _provenance(checks),
    }
    return payload, rows, 0 if all(c["pass"] for c in checks) else 1


def _provenance(checks) -> dict:
    return {
        "format_version": 1,
        "tool": "ampmech",
        "rules": [c["id"] for c in checks],
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@dataclass
class RunConfig:
    subcommand: str
    mass: float = 1.0
    omega0: float = 1.0
    lam: float = 0.05
    hbar: float = 1.0
    force: int = 2
    order: int = 2
    n_max: int = 12
    basis_size: int = 80
    levels: int = 8
    a1: float | None = None
    action: float | None = None
    level: int | None = None
    samples: int = 256
    seed: int = 0
    check: str = "all"
    lam_max: float = 0.05
    grid_points: int = 5
    fit_order: int = 3
    fmt: str = "json"
    output: str | None = None

    def validate(self) -> None:
        for name in ("mass", "omega0", "lam", "hbar", "a1", "action", "lam_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite")
        if self.force not in (2, 3):
            raise UsageError("--force must be 2 or 3")
        if not (0 <= self.order <= 2):
            raise UsageError("--order must be 0, 1 or 2")
        if self.n_max < self.order + 3:
            raise UsageError("--n-max must be at least order + 3")
        if self.basis_size < 18:
            raise UsageError("--basis-size must be at least 18")
        if self.samples < 16:
            raise UsageError("--samples must be at least 16")
        if self.fmt not in ("json", "csv"):
            raise UsageError("--format must be json or csv")
        if self.check not in CHECK_GROUPS:
            raise UsageError(f"--check must be one of {', '.join(CHECK_GROUPS)}")
        if self.grid_points < self.fit_order + 2:
            raise UsageError("--grid-points must be at least fit order + 2")
        if self.subcommand == "classical":
            if (self.a1 is None) == (self.action is None):
                raise UsageError("classical needs exactly one of --a1 or --action")
            if self.level is not None and self.level < 1:
                raise UsageError("--level must be positive")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mass", type=float, default=1.0)
    shared.add_argument("--omega0", type=float, default=1.0)
    shared.add_argument("--lam", type=float, default=0.05)
    shared.add_argument("--hbar", type=float, default=1.0)
    shared.add_argument("--force", type=int, default=2, choices=(2, 3))
    shared.add_argument("--format", dest="fmt", default="json",
                        choices=("json", "csv"))
    shared.add_argument("--output", default=None, help="write here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ampmech",
        description="transition-amplitude mechanics for anharmonic oscillators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", parents=[shared],
                             help="perturbative coefficient tables")
    p_solve.add_argument("--order", type=int, default=2)
    p_solve.add_argument("--n-max", type=int, default=12)

    p_verify = sub.add_parser("verify", parents=[shared],
                              help="run invariant checks")
    p_verify.add_argument("--order", type=int, default=2)
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.add_argument("--check", default="all", choices=CHECK_GROUPS)
    p_verify.add_argument("--seed", type=int, default=0)

    p_classical = sub.add_parser("classical", parents=[shared],
                                 help="classical Fourier-series benchmark")
    p_classical.add_argument("--order", type=int, default=2)
    p_classical.add_argument("--a1", type=float, default=None)
    p_classical.add_argument("--action", type=float, default=None)
    p_classical.add_argument("--level", type=int, default=None,
                             help="compare against quantum amplitudes at this level")
    p_classical.add_argument("--samples", type=int, default=256)

    p_oracle = sub.add_parser("oracle", parents=[shared],
                              help="diagonalization cross-checks")
    p_oracle.add_argument("--basis-size", type=int, default=80)
    p_oracle.add_argument("--levels", type=int, default=8)
    p_oracle.add_argument("--lam-max", type=float, default=0.05)
    p_oracle.add_argument("--grid-points", type=int, default=5)
    p_oracle.add_argument("--fit-order", type=int, default=3)

    p_sho = sub.add_parser("sho", parents=[shared],
                           help="exact unperturbed-oscillator route")
    p_sho.add_argument("--n-max", type=int, default=12)

    return parser


_DISPATCH = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "classical": cmd_classical,
    "oracle": cmd_oracle,
    "sho": cmd_sho,
}


# parse_args leaves the parser as it was, so one per process serves every run
_parser = functools.cache(build_parser)


def run(argv=None, stream=None) -> int:
    try:
        namespace = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig(**{k: v for k, v in vars(namespace).items()})
    try:
        cfg.validate()
        # an overflow or invalid operation stops where it happens
        with np.errstate(over="raise", invalid="raise"):
            payload, rows, code = _DISPATCH[cfg.subcommand](cfg)
            text = render_json(payload) + "\n" if cfg.fmt == "json" else render_csv(rows)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, PlateauError, NonFiniteError, OverflowError,
            FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.output is None:
        (stream or sys.stdout).write(text)
    else:
        # join keeps an absolute path as it is and treats "" as no directory
        path = os.path.join(os.environ.get("AMPMECH_OUT_DIR", ""), cfg.output)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


def main() -> None:
    sys.exit(run())
