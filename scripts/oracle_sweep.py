#!/usr/bin/env python3
"""Print the verdict of `oracle` over a grid of invocations.

One line per argv: the exit code, the sorted ids of the failing checks
("-" for none) and the argv. The grid runs both forces at basis sizes
18 to 600, at the default coupling, 0.01 and -0.05, in default units and
in units (1.3, 0.8, 0.7), with the default --levels, 1 and 20; then the
argv of `tests/test_oracle.py::TestOracleVerdicts`; then the same argv
with hbar and m scaled together by 10^j, j = -4..8, which leaves every
unit-free coupling as it is, and three unit-scaled argv whose verdict
flipped while the oracle's model bounds were absolute constants. A
summary line per section counts the exit codes and gives the SHA-256 of
every run's stdout and stderr, in order. Runs are in-process and
deterministic, so two checkouts compare by diffing the output: equal
verdict lines show the same verdicts, equal summary lines the same bytes.

    PYTHONPATH=src python3 scripts/oracle_sweep.py > sweep.txt
"""

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter

from ampmech.cli import run

FORCES = ("2", "3")
BASIS_SIZES = ("18", "24", "30", "80", "106", "107", "200", "300", "600")
LAMS = ((), ("--lam", "0.01"), ("--lam", "-0.05"))
UNITS = ((), ("--mass", "1.3", "--omega0", "0.8", "--hbar", "0.7"))
LEVELS = ((), ("--levels", "1"), ("--levels", "20"))

_U = ("--mass", "1.3", "--omega0", "0.8", "--hbar", "0.7")
# the argv of TestOracleVerdicts, in its order
VERDICT_ARGV = (
    *(("--basis-size", n) for n in ("18", "24", "30", "80", "300", "600")),
    ("--lam", "0.01"), ("--lam", "0.01", "--basis-size", "600"),
    ("--levels", "1"), ("--levels", "20"), _U, (*_U, "--lam", "0.01"),
    *(("--force", "3", "--basis-size", n) for n in ("18", "24", "30", "80", "300", "600")),
    ("--force", "3", "--lam", "0.01"), ("--force", "3", "--lam", "0.01", "--basis-size", "600"),
    ("--force", "3", "--levels", "1"), ("--force", "3", "--levels", "20"),
    ("--force", "3", *_U), ("--force", "3", *_U, "--lam", "0.01"),
    ("--force", "3", "--lam", "0.2"), ("--force", "3", "--lam", "0.5"),
    ("--force", "3", "--lam", "-0.05"), ("--force", "3", "--lam", "1.0", "--basis-size", "200"),
)
UNIT_SCALED_ARGV = (
    ("--force", "3", "--basis-size", "600", "--hbar", "1e6", "--mass", "1e6"),
    ("--force", "2", "--basis-size", "300", "--hbar", "1e5", "--mass", "1e5"),
    ("--force", "2", "--basis-size", "300", "--hbar", "1e7", "--mass", "1e7"),
)
SCALE_POWERS = tuple(j for j in range(-4, 9) if j)


def scaled(argv, j):
    """argv with hbar and m multiplied by 10^j: each given value gets the
    exponent e<j>, and a missing one is given as 1e<j>."""
    argv = list(argv)
    for option in ("--hbar", "--mass"):
        if option in argv:
            i = argv.index(option) + 1
            argv[i] = f"{argv[i]}e{j}"
        else:
            argv += [option, f"1e{j}"]
    return tuple(argv)


def sections():
    grid = [("--force", f, "--basis-size", n, *lam, *units, *levels)
            for f in FORCES for n in BASIS_SIZES for lam in LAMS for units in UNITS
            for levels in LEVELS]
    grid += [argv for argv in VERDICT_ARGV if argv not in grid]
    unit_scaled = [scaled(argv, j) for argv in VERDICT_ARGV for j in SCALE_POWERS]
    return {"grid": grid, "unit-scaled": unit_scaled + list(UNIT_SCALED_ARGV)}


def _run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["oracle", *argv], stream=out)
    return code, out.getvalue(), err.getvalue()


def _failing(code, stdout):
    if code >= 2:
        return []
    return sorted(c["id"] for c in json.loads(stdout)["checks"] if not c["pass"])


def verdict(argv):
    """Exit code and sorted failing check ids of one in-process run."""
    code, stdout, _ = _run(argv)
    return code, _failing(code, stdout)


def main() -> None:
    for name, argvs in sections().items():
        codes, digest = Counter(), hashlib.sha256()
        for argv in argvs:
            code, stdout, stderr = _run(argv)
            codes[code] += 1
            # repr keeps each run's two streams apart from the next run's
            digest.update(repr((stdout, stderr)).encode())
            print(f"{code} {','.join(_failing(code, stdout)) or '-'} oracle {' '.join(argv)}")
        summary = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
        print(f"# {name}: {len(argvs)} argv: {summary}; sha256 {digest.hexdigest()}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
