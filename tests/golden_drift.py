"""Report how far each CLI golden output has drifted from its pinned file.

Run from the repository root:

    PYTHONPATH=src python tests/golden_drift.py

For every GOLDEN_CASES output that differs from its file in tests/golden,
one line gives the number of changed numeric values, the largest relative
change among them, and whether the non-numeric skeleton (the text with each
number blanked) is identical.  Indented lines under it give each changed
value, old -> new, with its relative change: the list the golden policy in
ROADMAP.md asks a regeneration to record.  It only reports: the golden tests
are the gate, and this script exits 0 whatever it finds.
"""

import contextlib
import io
import math
import re
import sys

from test_cli import GOLDEN, GOLDEN_CASES, resolve
from zonalg.cli import run

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def split(text: str) -> tuple[str, list[str]]:
    """The text with every number replaced by '#', and the numbers in order."""
    return NUMBER.sub("#", text), NUMBER.findall(text)


def relative_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def drift(old_text: str, new_text: str) -> tuple[int, bool, list]:
    """(changed values, skeleton identical, (old, new, relative change) of each changed pair)."""
    old_skeleton, old = split(old_text)
    new_skeleton, new = split(new_text)
    pairs = [(a, b, relative_change(a, b)) for a, b in zip(old, new) if a != b]
    return len(pairs) + abs(len(old) - len(new)), old_skeleton == new_skeleton, pairs


def main() -> int:
    differing = 0
    for argv, golden in GOLDEN_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(resolve(argv))
        pinned = (GOLDEN / golden).read_text()
        if code == 0 and out.getvalue() == pinned:
            continue
        differing += 1
        changed, same, pairs = drift(pinned, out.getvalue())
        largest = max((rel for _, _, rel in pairs), default=0.0)
        print(
            f"{golden}: exit {code}, {changed} values changed, largest relative change {largest:.3g}, "
            f"skeleton {'identical' if same else 'differs'}"
        )
        for a, b, rel in pairs:
            print(f"  {a} -> {b} ({rel:.3g})")
    print(f"{differing} of {len(GOLDEN_CASES)} golden outputs differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
