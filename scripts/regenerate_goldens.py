#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/goldens/.

Run from the repository root after any intentional change to CLI output:

    python3 scripts/regenerate_goldens.py

The reference invocations here are the single source of truth; the CLI
determinism tests replay them and compare byte for byte.
"""

import io
import pathlib
import sys

from ampmech.cli import run

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "goldens"

REFERENCE_INVOCATIONS = {
    "solve.json": ["solve"],
    "solve.csv": ["solve", "--format", "csv"],
    "verify.json": ["verify"],
    "classical.json": ["classical", "--a1", "1.0", "--lam", "0.01", "--level", "40"],
    "oracle.json": ["oracle"],
    "sho.json": ["sho"],
    "verify.csv": ["verify", "--format", "csv"],
    "classical.csv": ["classical", "--a1", "1.0", "--lam", "0.01", "--level", "40",
                      "--format", "csv"],
    "oracle.csv": ["oracle", "--format", "csv"],
    "sho.csv": ["sho", "--format", "csv"],
    "solve-quartic-order4.json": ["solve", "--order", "4", "--force", "3"],
}


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, argv in REFERENCE_INVOCATIONS.items():
        buffer = io.StringIO()
        code = run(argv, stream=buffer)
        if code != 0:
            # a golden pins a passing run; the old file stays as it is
            print(f"{name}: reference invocation exited {code}; not written",
                  file=sys.stderr)
            status = 1
            continue
        (GOLDEN_DIR / name).write_text(buffer.getvalue(), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name} ({len(buffer.getvalue())} bytes)")
    return status


if __name__ == "__main__":
    sys.exit(main())
