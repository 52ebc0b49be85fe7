"""The one random draw: the atoms of seeded random bodies.

draw_atoms is the draw of the fuzz campaigns, and the tests take their fuzz
bodies from it too.  Each word it reads is a hash of (seed, trial, body,
slot), so a trial's bodies do not depend on the other trials drawn with it,
on the order trials run in, or on numpy's random generators.  They do depend
on numpy's CPU dispatch of np.exp, which gives the half-lengths and disc
radii: its AVX-512 and AVX2 loops round differently, so a drawn length can
move in its last bits from one CPU to another.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import PI
from .errors import DomainError

HALF_LENGTH_RANGE = (0.01, 10.0)
LOG_LO, LOG_HI = (math.log(h) for h in HALF_LENGTH_RANGE)
LOG_SPAN = LOG_HI - LOG_LO
DISC_PROB = 0.25

# Every raw 64-bit word is a pure function of (seed, trial, body, slot), the
# counter-based design of Salmon et al. 2011 ("Parallel random numbers: as
# easy as 1, 2, 3") with SplitMix64's finalizer as the hash (Steele, Lea and
# Flood 2014).  tests/test_generators.py holds draw_atoms to a pure-Python
# integer reference.

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """SplitMix64's finalizer of z: a Python int below 2**64, or a uint64 array.

    Never a uint64 scalar: numpy 1.x promotes one with a Python int to float64.
    """
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & M64
    return z ^ z >> 31


def draw_atoms(seed: int, trials: range, count: int, max_diangles: int):
    """The raw atoms of `count` random bodies per trial.

    A body's count is uniform on 1..max_diangles, its angles uniform on
    [0, pi), and its half-lengths and disc radius log-uniform on
    HALF_LENGTH_RANGE; it has a disc with probability DISC_PROB.

    Trial t's key is _mix(k + t·GAMMA), where k folds the seed's 64-bit words,
    low first, through _mix.  Slot s of body b reads the word
    _mix(key + (b·(2m + 3) + s)·GAMMA), m = max_diangles ≤ 2**32: slot 0 is the
    count, 1 + ((w >> 32)·m >> 32), then m angle slots, m log-length slots, the
    disc coin and the disc radius; each slot but the count is the double
    (w >> 11)·2**-53 in [0, 1).  A count's probability is within 2**-32 of 1/m,
    so the count's bias is below m·2**-32 in total.  Trial t is one row:
    draw_atoms(seed, range(t, t + 1), ...) replays it.

    Returns sizes (T, count), angles and half-lengths (T, count, m)
    zero-padded past each size, and disc radii (T, count).
    """
    if len(trials) and not (0 <= trials[0] <= M64 and 0 <= trials[-1] <= M64):
        raise DomainError(f"trial indices must lie in [0, 2**64), got {trials}")
    key = 0
    for shift in range(0, max(1, seed.bit_length()), 64):
        key = _mix(key ^ seed >> shift & M64)
    # the trial indices in uint64; arithmetic mod 2**64 handles a negative step
    t = trials.start % 2**64 + trials.step % 2**64 * np.arange(len(trials), dtype=np.uint64)
    m, slots = max_diangles, 2 * max_diangles + 3
    counters = np.arange(count * slots, dtype=np.uint64).reshape(count, slots) * GAMMA
    words = _mix(_mix(key + t * GAMMA)[:, None, None] + counters)
    n = (1 + ((words[..., 0] >> 32) * m >> 32)).astype(np.intp)
    u = (words[..., 1:] >> 11) * 2.0**-53
    scaled = np.exp(LOG_LO + LOG_SPAN * u[..., m:])  # the m log-lengths, the coin, the log-radius
    filled = np.arange(m) < n[..., None]
    angles, lengths = np.where(filled, PI * u[..., :m], 0.0), np.where(filled, scaled[..., :m], 0.0)
    return n, angles, lengths, np.where(u[..., 2 * m] < DISC_PROB, scaled[..., m + 1], 0.0)
