#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/goldens/.

Run from the repository root after any intentional change to CLI output:

    python3 scripts/regenerate_goldens.py

The reference invocations here are the single source of truth; the CLI
determinism tests replay them and compare byte for byte. For each golden it
overwrites, the script prints an audit of the change: how many numeric
tokens changed and the largest distance among them in units in the last
place (ulp), or a note that the text around the numbers changed too.
"""

import io
import pathlib
import re
import struct
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


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _ordinal(value: float) -> int:
    """Position of a float64 in the ordered sequence of all float64 values."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def audit(old: str, new: str) -> str:
    """One line describing how `new` differs from `old`, number by number."""
    if old == new:
        return "unchanged"
    old_numbers, new_numbers = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.split(old) != NUMBER.split(new) or len(old_numbers) != len(new_numbers):
        return "text around the numbers changed; audit by hand"
    changed = [(a, b) for a, b in zip(old_numbers, new_numbers) if a != b]
    ulps, a, b = max((abs(_ordinal(float(a)) - _ordinal(float(b))), a, b) for a, b in changed)
    return (f"{len(changed)} of {len(new_numbers)} numeric tokens changed, "
            f"largest distance {ulps} ulp ({a} -> {b})")


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
        path = GOLDEN_DIR / name
        text = buffer.getvalue()
        change = audit(path.read_text(encoding="utf-8"), text) if path.exists() else "new"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes): {change}")
    return status


if __name__ == "__main__":
    sys.exit(main())
