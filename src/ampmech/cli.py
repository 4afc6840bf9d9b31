"""Command-line front end.

Subcommands:
  solve      perturbative coefficient tables plus the energy series
  verify     invariant checks over the whole library; exit 1 on violation
  classical  Fourier-series orbit, action integral, correspondence ratios
  oracle     truncated-basis diagonalization, sum rule, gap-order checks
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
import math
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import checks as registry
from .classical import action_integral, classical_solve, ode_residual
from .oracle import (
    NumericError,
    PlateauError,
    cubic_coupling_limit,
    lowest_eigenpairs,
    rspt,
    spectrum,
)
from .params import OscillatorParams
from .perturb import (
    energy_matrix,
    extract_structure_constants,
    solve_perturbative,
)

CHECK_GROUPS = ("all", *registry.GROUPS)
# `oracle` runs RSPT and the solver at this one order, and its gap-order
# check judges the solver's series through this order
ORACLE_ORDER = 2


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
            f"{inner}{encode_basestring_ascii(str(k))}: {render_json(v, indent + 1)}"
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
        return encode_basestring_ascii(obj)
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
# check recording


def _check(checks, rows, check_id, observed, tolerance):
    """Record one check of `registry`: it passes when observed <= tolerance,
    or, for a (low, high) window, when observed lies inside it."""
    broken = observed is None or not math.isfinite(observed)
    if isinstance(tolerance, tuple):
        low, high = tolerance
        entry = {"id": check_id, "window": [float(low), float(high)]}
        passed = not broken and low <= observed <= high
    else:
        entry = {"id": check_id, "tolerance": float(tolerance)}
        passed = not broken and observed <= tolerance
    entry["observed"] = None if broken else float(observed)
    entry["pass"] = bool(passed)
    if check_id in registry.DETAILS:
        entry["detail"] = registry.DETAILS[check_id]
    checks.append(entry)
    if not broken:
        rows.append((f"check:{check_id}", None, None, None, float(observed)))


# ---------------------------------------------------------------------------
# subcommands


def _params_from(cfg) -> OscillatorParams:
    return OscillatorParams(mass=cfg.mass, omega0=cfg.omega0, lam=cfg.lam,
                            hbar=cfg.hbar, force_exponent=cfg.force)


def _report(cfg, extra: dict, results: dict, checks: list, rows: list):
    """Payload, CSV rows and exit code of a run: 1 if a check failed."""
    config = {"subcommand": cfg.subcommand, "mass": cfg.mass, "omega0": cfg.omega0,
              "lam": cfg.lam, "hbar": cfg.hbar, "force": cfg.force, **extra}
    provenance = {"format_version": 1, "tool": "ampmech", "rules": [c["id"] for c in checks]}
    payload = {"config": config, "results": results, "checks": checks, "provenance": provenance}
    return payload, rows, 0 if all(c["pass"] for c in checks) else 1


def cmd_solve(cfg):
    params = _params_from(cfg)
    sol = solve_perturbative(params, cfg.order, cfg.n_max)
    checks, rows = [], []
    amplitude_tables = []
    for alpha in sol.public_bands:
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

    em, found = registry.offdiag_energy(sol)
    energy_orders = []
    # each order's energy row precedes its check; a failed guard gives none
    for k, check in enumerate(found):
        if em is not None:
            total = _values(em.diagonal(k))
            energy_orders.append({"order": k, "kinetic": _values(em.kinetic[k, 0]),
                                  "harmonic": _values(em.harmonic[k, 0]),
                                  "anharmonic": _values(em.anharmonic[k, 0]), "total": total})
            rows.append(("energy", k, 0, None, total))
        _check(checks, rows, *check)

    constants = extract_structure_constants(sol)
    for alpha, value in sorted(constants.items()):
        rows.append(("structure-constant", 0, alpha, None, float(value)))

    results = {
        "beta": params.beta,
        "structure_constants": [
            {"band": alpha, "value": value}
            for alpha, value in sorted(constants.items())
        ],
        "amplitude_coefficients": amplitude_tables,
        "frequency_corrections": freq_tables,
        "frequency_potential": potential_tables,
        "energy_series": energy_orders,
    }
    return _report(cfg, {"order": cfg.order, "n_max": cfg.n_max}, results, checks, rows)


def cmd_verify(cfg):
    params = _params_from(cfg)
    checks, rows = [], []
    group = cfg.check
    solve = functools.cache(solve_perturbative)

    def sol(p=params, order=cfg.order, n_max=cfg.n_max):
        return solve(p, order, n_max)

    for name, checks_of in registry.GROUPS.items():
        if group in ("all", name):
            for check in checks_of(params, sol, cfg.seed):
                _check(checks, rows, *check)
    if not checks:
        # a verify that checked nothing must not read as a pass
        raise UsageError(f"--check {group} has no checks for --force {cfg.force}")

    extra = {"order": cfg.order, "n_max": cfg.n_max, "check": group, "seed": cfg.seed}
    return _report(cfg, extra, {"checks_run": len(checks)}, checks, rows)


def cmd_classical(cfg):
    params = _params_from(cfg)
    rows: list = []
    if cfg.action is not None:
        sol = classical_solve(params, cfg.order, action=cfg.action)
    else:
        sol = classical_solve(params, cfg.order, a1=cfg.a1)
    coeff_tables = []
    for k, harmonics in enumerate(sol.harmonics):
        coeff_tables.append({"order": k, "values": _values(harmonics)})
        for alpha, v in enumerate(harmonics):
            rows.append(("harmonic", k, alpha, None, float(v)))
    for k, v in enumerate(sol.omega_coeffs):
        rows.append(("omega", k, None, None, float(v)))

    action = action_integral(sol, lam=cfg.lam)
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
        if 2 in quantum.solved_orders:
            ratios["a2_ratio"] = float(quantum.a(0, 2)[n] / cl.amp[0, 2])
            if cfg.order >= 2:
                ratios["omega2_ratio"] = float(
                    quantum.omega_band(2, 1)[n] / (cl.omega_coeffs[2])
                )
        results["correspondence"] = ratios
        for key, val in ratios.items():
            if key != "level":
                rows.append((f"correspondence-{key}", None, None, n, float(val)))

    extra = {"order": cfg.order, "a1": cfg.a1, "action": cfg.action,
             "level": cfg.level, "samples": cfg.samples}
    return _report(cfg, extra, results, [], rows)


def cmd_oracle(cfg):
    params = _params_from(cfg)
    if params.force_exponent == 2:
        limit = cubic_coupling_limit(params)
        if abs(params.lam) > limit:
            raise UsageError(f"--lam must be at most {limit:.4g} in absolute value "
                             "for the cubic force at these units")
    checks, rows = [], []
    levels = min(cfg.levels, cfg.basis_size)
    # the solver's table first: it fixes how many of the lowest states the
    # gap-order check reads, and so how many pairs the main spectrum holds
    sol = solve_perturbative(params, ORACLE_ORDER, max(12, levels + 4))
    spec = spectrum(params, cfg.basis_size, max(levels, registry.gap_states(sol)))
    eigenvalues = _values(spec.eigenvalues[:levels])
    plateau = _values(spec.plateau)
    rows.append(("eigenvalue", None, None, None, eigenvalues))

    # the rows of the levels the plateau rule vets, each a sum over every
    # level of H_N by closure
    trk = _values(registry.thomas_kuhn_residuals(spec))
    rows.append(("thomas-kuhn-residual", None, None, None, trk))
    _check(checks, rows, "thomas-kuhn-sum-rule", *registry.thomas_kuhn(trk, params))

    rspt_total = rspt(params, levels, ORACLE_ORDER)[0].sum(axis=0)
    em = energy_matrix(sol)
    series = em.evaluate(params.lam)[:levels]
    gaps = np.abs(eigenvalues - series)
    rows.append(("perturbative-gap", None, None, None, gaps))
    _check(checks, rows, "rspt-matches-amplitude-series",
           *registry.rspt_matches_series(rspt_total, series, em, params.lam))

    # the gap-order check reads spectra at lam_1 and lam_1/2, the first of
    # them the main one where lam is lam_1; each is reduced to the values
    # the check reads before the next is solved. The others need only the
    # lowest states, which a verified block of the basis gives
    lams = registry.gap_couplings(params)
    exact = [registry.gap_exact(spec, sol)] if params.lam == lams[0] else []
    del spec
    for lam in lams[len(exact):]:
        exact.append(registry.gap_exact(lowest_eigenpairs(
            replace(params, lam=lam), cfg.basis_size, registry.gap_states(sol)), sol))
    judged, found = registry.gap_order(sol, em, lams, exact, cfg.basis_size)
    for check in found:
        _check(checks, rows, *check)

    results = {
        "basis_size": cfg.basis_size,
        "eigenvalues": eigenvalues,
        "plateau": plateau,
        "thomas_kuhn_residuals": trk,
        "rspt_second_order": _values(rspt_total),
        "perturbative_series": _values(series),
        "perturbative_gap": gaps,
        "gap_order": judged,
    }
    extra = {"basis_size": cfg.basis_size, "levels": cfg.levels}
    return _report(cfg, extra, results, checks, rows)


def cmd_sho(cfg):
    # the exact route ignores --lam: the oscillator is the order-0 table at lam = 0
    params = _params_from(replace(cfg, lam=0.0))
    checks: list = []
    sol = solve_perturbative(params, 0, cfg.n_max)
    amp = _values(sol.a(0, 1))
    energies = _values(energy_matrix(sol).diagonal(0))
    rows = [("a", 0, 1, None, amp), ("energy", 0, 0, None, energies)]
    for check in registry.sho(sol, max(1, cfg.n_max - 2)):
        _check(checks, rows, *check)
    results = {"beta": params.beta, "adjacent_amplitudes": amp, "energies": energies}
    return _report(cfg, {"n_max": cfg.n_max}, results, checks, rows)


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
    fmt: str = "json"
    output: str | None = None

    def validate(self) -> None:
        for name in ("mass", "omega0", "lam", "hbar", "a1", "action"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite")
        if self.order < 0:
            raise UsageError("--order must be nonnegative")
        if self.n_max < 1:
            raise UsageError("--n-max must be at least 1")
        if self.subcommand in ("solve", "verify") and self.n_max < self.order + 3:
            raise UsageError("--n-max must be at least order + 3")
        if self.basis_size < 18:
            raise UsageError("--basis-size must be at least 18")
        if self.levels < 1:
            raise UsageError("--levels must be at least 1")
        if self.samples < 16:
            raise UsageError("--samples must be at least 16")
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
