import math

import numpy as np
import pytest

from zonalg import bodies, generators
from zonalg.lifted import lift

# The seed of the fuzz bodies whose trial a test's rng picks.
FUZZ_SEED = 20261019


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def drawn(seed, trial, count, max_diangles, zonogons=False):
    """The `count` canonical bodies of trial `trial` of generators.draw_atoms,
    each without its disc when `zonogons` is set.

    Every fuzz body of the tests comes from here, so each replays from
    (seed, trial) on any numpy version.
    """
    sizes, angles, lengths, radii = generators.draw_atoms(seed, range(trial, trial + 1), count, max_diangles)
    return [
        bodies.canonicalize(angles[0, b, :n], lengths[0, b, :n], 0.0 if zonogons else radii[0, b])
        for b, n in enumerate(sizes[0])
    ]


def mixed_area_50(x, y, turn=0.0):
    """B(x, y) to 50 digits, B the atom_form of the atom triples x and y at their doubles with y's
    angles turned by `turn`; each |sin(a - b)| is |sin a cos b - cos a sin b| from one sin and cos per atom."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        sides = []
        for (angles, weights, radius), shift in ((x, 0.0), (y, turn)):
            atoms = [(mpmath.mpf(a) + shift, mpmath.mpf(w)) for a, w in zip(np.ravel(angles).tolist(), np.ravel(weights).tolist()) if w]
            sides.append(([(mpmath.sin(t), mpmath.cos(t), w) for t, w in atoms], mpmath.mpf(float(radius))))
        (u, ru), (v, rv) = sides
        cross = mpmath.fsum(wa * wb * abs(sa * cb - ca * sb) for sa, ca, wa in u for sb, cb, wb in v)
        return 2 * cross + 2 * (ru * mpmath.fsum(w for *_, w in v) + rv * mpmath.fsum(w for *_, w in u)) + mpmath.pi * ru * rv


def mixed_area_error(got, x, y, turn=0.0):
    """|got - B(x, y)|, B as mixed_area_50 takes it."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(float(got)) - mixed_area_50(x, y, turn)))


def fuzz_trial(rng):
    return int(rng.integers(2**62))


def random_zonogon(rng, max_diangles=10):
    return drawn(FUZZ_SEED, fuzz_trial(rng), 1, max_diangles, zonogons=True)[0]


def random_body(rng, max_diangles=10):
    return drawn(FUZZ_SEED, fuzz_trial(rng), 1, max_diangles)[0]


def random_lifted(rng, max_diangles=10):
    return lift(*drawn(FUZZ_SEED, fuzz_trial(rng), 2, max_diangles))


# The campaigns' draw, one word at a time in Python integers: no numpy in the
# hashing.  tests/test_generators.py holds generators.draw_atoms to it.

GAMMA = 0x9E3779B97F4A7C15
LOG_LO, LOG_HI = (math.log(h) for h in generators.HALF_LENGTH_RANGE)


def splitmix(z):
    """SplitMix64's finalizer (Steele, Lea and Flood 2014)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def reference_atoms(seed, trial, body, max_diangles):
    """(angles, half-lengths, disc radius) of body `body` of trial `trial`.

    The seed's 64-bit words, low first, fold into a key; the trial key is
    splitmix(key + trial·γ); slot s of the body is the word
    splitmix(trial key + (body·(2m + 3) + s)·γ), laid out as the count, m
    angles, m log-lengths, the disc coin (a disc when below 1/4) and the
    disc's log-radius.
    """
    key = 0
    for shift in range(0, max(1, seed.bit_length()), 64):
        key = splitmix(key ^ (seed >> shift) % 2**64)
    key = splitmix((key + trial * GAMMA) % 2**64)
    m = max_diangles
    first = body * (2 * m + 3)

    def unit(slot):
        return (splitmix((key + (first + slot) * GAMMA) % 2**64) >> 11) * 2.0**-53

    n = 1 + ((splitmix((key + first * GAMMA) % 2**64) >> 32) * m >> 32)
    angles = np.array([math.pi * unit(1 + j) for j in range(n)])
    # exp of the log-lengths and the log-radius in one call, as numpy takes them
    scaled = np.exp([LOG_LO + (LOG_HI - LOG_LO) * unit(slot) for slot in [*range(1 + m, 1 + m + n), 2 * m + 2]])
    return angles, scaled[:n], float(scaled[n]) if unit(2 * m + 1) < 0.25 else 0.0
