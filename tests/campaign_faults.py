"""Minor page faults and wall time per campaign command, in one long-running process.

Run from the repository root:

    PYTHONPATH=src python tests/campaign_faults.py [rounds]

Each round runs `check iso|bm|bmgen|schwarz --trials 200` through
zonalg.cli.run with a new seed per command and stdout discarded, as a
closed-loop client would.  For each kind it prints the minor faults
(getrusage ru_minflt) and the milliseconds per command, after one warm-up
round.  A report, not a gate: whether the allocator returns freed heap to
the OS between commands (glibc trims the heap top past a threshold that
moves with earlier allocations) decides the fault count, not the program
alone.
"""

import contextlib
import io
import resource
import sys
import time

from zonalg import cli

KINDS = ("iso", "bm", "bmgen", "schwarz")


def main(rounds: int = 50) -> None:
    faults, seconds = dict.fromkeys(KINDS, 0), dict.fromkeys(KINDS, 0.0)
    for r in range(rounds + 1):
        for i, kind in enumerate(KINDS):
            argv = ["check", kind, "--trials", "200", "--seed", str(4 * r + i)]
            with contextlib.redirect_stdout(io.StringIO()):
                f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
                code = cli.run(argv)
                t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited {code}")
            if r:  # round 0 warms up
                faults[kind] += f1 - f0
                seconds[kind] += t1 - t0
    for kind in KINDS:
        print(f"check {kind}: {faults[kind] / rounds:.1f} minor faults, {1e3 * seconds[kind] / rounds:.2f} ms per command")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
