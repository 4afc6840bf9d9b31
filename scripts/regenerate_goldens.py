#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/goldens/.

Run from the repository root after any intentional change to CLI output:

    python3 scripts/regenerate_goldens.py

The reference invocations here are the single source of truth; the CLI
determinism tests replay them and compare byte for byte. For each golden it
overwrites, the script prints an audit of the change, value by value: a JSON
golden is keyed by the path to each value, a check by its id, and a CSV
golden by the (quantity, order, band, n) of each line. The audit lists the removed and
added keys and each changed value with its distance in units in the last
place (ulp) and its absolute change, so it survives a change of layout. The
ulp distance of a value near zero can be huge for a change of rounding size,
which the absolute change shows. A check's observed value or tolerance in a
JSON golden also gives its change as a fraction of the check's tolerance:
the scale that a verdict reads it on.
"""

import csv
import io
import json
import pathlib
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
    "verify-quartic-order8.json": ["verify", "--order", "8", "--force", "3"],
    "oracle-quartic.json": ["oracle", "--force", "3"],
}


def _ordinal(value: float) -> int:
    """Position of a float64 in the ordered sequence of all float64 values."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


class Number(str):
    """A JSON number kept as the text the golden holds."""


def _item_key(index: int, item) -> str:
    """A named list item keys by its name: a check entry by its "id", a
    string (a rule of the provenance) by itself; any other by its index."""
    if isinstance(item, dict) and isinstance(item.get("id"), str):
        return item["id"]
    # a Number is a str too, but keys by its index
    return item if type(item) is str else str(index)


def _keyed(name: str, text: str) -> dict[str, str]:
    """The text of each value of a golden under its key: the path of keys,
    names and indices for JSON, the (quantity, order, band, n) columns for
    CSV."""
    if name.endswith(".csv"):
        return {",".join(key): value for *key, value in list(csv.reader(io.StringIO(text)))[1:]}
    out = {}

    def walk(path: str, node) -> None:
        if isinstance(node, (dict, list)):
            items = (node.items() if isinstance(node, dict)
                     else ((_item_key(i, v), v) for i, v in enumerate(node)))
            for k, v in items:
                walk(f"{path}/{k}", v)
        else:
            out[path] = node if isinstance(node, Number) else json.dumps(node)

    walk("", json.loads(text, parse_float=Number, parse_int=Number))
    return out


def _distance(a: str, b: str) -> tuple[int, float] | None:
    """ulp distance and absolute difference of two numbers given as text;
    None unless both are."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return abs(_ordinal(x) - _ordinal(y)), abs(y - x)


def _of_tolerance(key: str, change: float, keyed: dict[str, str]) -> str:
    """", r of the tolerance", r = change / |tolerance|, where key is the
    observed value or the tolerance of a check whose tolerance in keyed is a
    nonzero number; else ""."""
    check, _, leaf = key.rpartition("/")
    if not check.startswith("/checks/") or leaf not in ("observed", "tolerance"):
        return ""
    try:
        tolerance = abs(float(keyed[f"{check}/tolerance"]))
    except (KeyError, ValueError):
        return ""
    return f", {change / tolerance:.3g} of the tolerance" if tolerance else ""


def audit(name: str, old: str, new: str) -> str:
    """How `new` differs from `old`, key by key: a summary line, then one
    line per removed (-), added (+) and changed (~) key. Numbers are shown
    as each golden spells them."""
    if old == new:
        return "unchanged"
    before, after = _keyed(name, old), _keyed(name, new)
    removed = [f"  - {k}: {v}" for k, v in before.items() if k not in after]
    added = [f"  + {k}: {v}" for k, v in after.items() if k not in before]
    # a number counts as changed when its value does, not its spelling
    changed = [(k, before[k], v, _distance(before[k], v))
               for k, v in after.items() if k in before and before[k] != v]
    changed = [c for c in changed if c[3] is None or c[3][0] != 0]
    summary = f"{len(changed)} of {len(after)} values changed"
    numbers = [(d, a, b) for _, a, b, d in changed if d is not None]
    if numbers:
        # the first of equals
        (u, _), a, b = max(numbers, key=lambda c: c[0][0])
        summary += f", largest distance {u} ulp ({a} -> {b})"
        (_, e), a, b = max(numbers, key=lambda c: c[0][1])
        summary += f", largest change {e:.3g} ({a} -> {b})"
    summary += f"; {len(removed)} keys removed, {len(added)} added"
    lines = [f"  ~ {k}: {a} -> {b}" + ("" if d is None else
                                        f" ({d[0]} ulp, |d| {d[1]:.3g}"
                                        f"{_of_tolerance(k, d[1], after)})")
             for k, a, b, d in changed]
    return "\n".join([summary, *removed, *added, *lines])


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
        change = audit(name, path.read_text(encoding="utf-8"), text) if path.exists() else "new"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes): {change}")
    return status


if __name__ == "__main__":
    sys.exit(main())
