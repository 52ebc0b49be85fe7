"""Seeded random bodies and lifted vectors for fuzz campaigns.

Trial i of a campaign draws what trial_rng(seed, i) would draw, so results
are deterministic and independent of trial execution order; draw_atoms
computes those draws for many trials at once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bodies
from .bodies import PI, Body
from .lifted import LiftedVector, lift

HALF_LENGTH_RANGE = (0.01, 10.0)
LOG_LO, LOG_HI = (math.log(h) for h in HALF_LENGTH_RANGE)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def random_atoms(
    rng: np.random.Generator,
    max_diangles: int = 10,
    disc_prob: float = 0.25,
    min_diangles: int = 1,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Raw draws of a random body: (angles in [0, pi), half-lengths, disc radius).

    Half-lengths and the disc radius are log-uniform on HALF_LENGTH_RANGE;
    a disc is drawn with probability disc_prob.
    """
    n = int(rng.integers(min_diangles, max_diangles + 1))
    angles = rng.uniform(0.0, PI, n)
    lens = np.exp(rng.uniform(LOG_LO, LOG_HI, n))
    disc = 0.0
    if disc_prob > 0 and rng.random() < disc_prob:
        disc = float(np.exp(rng.uniform(LOG_LO, LOG_HI)))
    return angles, lens, disc


def random_body(
    rng: np.random.Generator,
    max_diangles: int = 10,
    disc_prob: float = 0.25,
    min_diangles: int = 1,
) -> Body:
    angles, lens, disc = random_atoms(rng, max_diangles, disc_prob, min_diangles)
    return bodies.body(list(zip(angles, lens)), disc)


def random_zonogon(rng: np.random.Generator, max_diangles: int = 10, min_diangles: int = 1) -> Body:
    return random_body(rng, max_diangles=max_diangles, disc_prob=0.0, min_diangles=min_diangles)


def random_lifted(
    rng: np.random.Generator, max_diangles: int = 10, disc_prob: float = 0.25
) -> LiftedVector:
    return lift(
        random_body(rng, max_diangles, disc_prob),
        random_body(rng, max_diangles, disc_prob),
    )


# --- lockstep draws -------------------------------------------------------
#
# trial_rng(seed, t) followed by random_atoms, for many trials at once and
# bit for bit: numpy's SeedSequence pool hash and generate_state, PCG64
# seeding and XSL-RR output (O'Neill 2014) reached by LCG jump-ahead, and
# Generator's Lemire integers (Lemire 2019) and 53-bit doubles, all in
# uint32/uint64 arrays.  tests/test_generators.py holds them to numpy.

M32, M64 = (1 << 32) - 1, (1 << 64) - 1
PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
MULT_A, INIT_A, MULT_B, INIT_B = 0x931E8875, 0x43B0D7E5, 0x58F38DED, 0x8B51F9DD
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
LOG_SPAN = LOG_HI - LOG_LO


@functools.lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """Rows (h_i, h_i * mult) of SeedSequence's running hash constant, shape (n, 2, 1)."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & M32)
    return np.array([h[:-1], h[1:]], dtype=np.uint32).T[:, :, None]


def _hashmix(value, consts):
    value = (value ^ consts[:, 0]) * consts[:, 1]
    return value ^ value >> 16


def _mix(x, y):
    x = x * MIX_L - y * MIX_R
    return x ^ x >> 16


def _generate_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) per column of uint32 words (L, T).

    Entropy shorter than the 4-word pool comes zero-padded to 4 rows.
    """
    h = _hash_consts(INIT_A, MULT_A, 4 * len(words))
    pool = _hashmix(words[:4], h[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[4 + 3 * src : 7 + 3 * src]))
    for i, word in enumerate(words[4:]):
        pool = _mix(pool, _hashmix(word, h[16 + 4 * i : 20 + 4 * i]))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(INIT_B, MULT_B, 8)).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def generate_states(seed: int, trials: range) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(4, np.uint64) for each t in trials, shape (T, 4).

    A trial of 2**32 or more has two entropy words, so it is hashed apart.
    """
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    seed_words = [seed >> s & M32 for s in range(0, max(32, seed.bit_length()), 32)]
    out = np.zeros((len(t), 4), np.uint64)
    for wide in (False, True):
        sel = (t > M32) == wide
        if sel.any():
            words = np.zeros((max(4, len(seed_words) + 1 + wide), sel.sum()), np.uint32)
            words[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
            words[len(seed_words) : len(seed_words) + 1 + wide] = [t[sel] & M32, t[sel] >> 32][: 1 + wide]
            out[sel] = _generate_state(words)
    return out


def _mulhi(a, b):
    """High 64 bits of a*b for uint64 a and b, from 32-bit halves."""
    a0, a1, b0, b1 = a & M32, a >> 32, b & M32, b >> 32
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (lo_hi & M32) + (hi_lo & M32)
    return a1 * b1 + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _mul(a, b):
    """a*b mod 2**128 for (hi, lo) pairs of uint64."""
    return _mulhi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _add(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


# M - 1 as (hi, lo) arrays of shape (1, 1), not numpy scalars: a uint64
# scalar with a Python int promotes to float64 under numpy 1.x rules.
MULT_LESS_1 = tuple(np.array([[x]], np.uint64) for x in ((PCG_MULT - 1) >> 64, (PCG_MULT - 1) & M64))


@functools.lru_cache(maxsize=8)
def _jumps(n: int):
    """B_k = 1 + M + ... + M**(k-1), k = 1..n, as (hi, lo) uint64 arrays of shape (1, n).

    k LCG steps take s to M**k s + B_k inc = s + B_k ((M - 1) s + inc),
    because M**k - 1 = (M - 1) B_k.
    """
    b, rows = 0, []
    for _ in range(n):
        b = (b * PCG_MULT + 1) & (1 << 128) - 1
        rows.append((b >> 64, b & M64))
    return tuple(np.array(c, dtype=np.uint64).reshape(1, n) for c in zip(*rows))


class TrialStreams:
    """The PCG64 streams of trial_rng(seed, t) for t in trials, read in lockstep.

    `raw` holds each trial's 64-bit outputs (row per trial, column k is
    random_raw output k + 1), computed by jump-ahead from the seeded state
    and widened on demand; `pos` is each trial's next unread column and
    `buf`/`has` PCG64's buffered upper half for 32-bit draws.
    """

    def __init__(self, seed: int, trials: range, width: int):
        init_hi, init_lo, seq_hi, seq_lo = (c[:, None] for c in generate_states(seed, trials).T)
        # PCG64 seeding sets state = inc + initstate, then steps once before
        # the first output; so output k is XSL-RR of the state k + 1 steps on.
        inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
        self.state = _add(inc, (init_hi, init_lo))
        self.step = _add(_mul(MULT_LESS_1, self.state), inc)
        self.raw = self._outputs(0, max(width, 1))
        self.rows = np.arange(len(init_hi))
        self.pos = np.zeros(len(init_hi), np.intp)
        self.buf = np.zeros(len(init_hi), np.uint64)
        self.has = np.zeros(len(init_hi), bool)

    def _outputs(self, k0: int, k1: int) -> np.ndarray:
        """XSL-RR outputs k0+1 .. k1 of every trial."""
        hi, lo = _add(self.state, _mul(tuple(h[:, k0 + 1 : k1 + 1] for h in _jumps(k1 + 1)), self.step))
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (64 - rot & 63)

    def reserve(self, extra: int) -> None:
        """Widen `raw` until every trial has `extra` unread outputs."""
        have, need = self.raw.shape[1], int(self.pos.max(initial=0)) + extra
        if need > have:
            self.raw = np.hstack([self.raw, self._outputs(have, max(need, 2 * have))])

    def integers(self, m: int) -> np.ndarray:
        """Generator.integers(1, m + 1) of every trial, for 1 <= m <= 2**32."""
        out = np.ones(len(self.rows), np.intp)
        threshold, live = (1 << 32) % m, self.rows if m > 1 else self.rows[:0]
        while len(live):
            self.reserve(1)
            has, pos = self.has[live], self.pos[live]
            word = self.raw[live, pos]
            prod = np.where(has, self.buf[live], word & M32) * m
            self.buf[live], self.has[live], self.pos[live] = word >> 32, ~has, pos + ~has
            out[live] = 1 + (prod >> 32)
            live = live[(prod & M32) < threshold]
        return out

    def atoms(self, count: int, m: int):
        """The next `count` random_atoms(rng, m) of every trial.

        Returns sizes (T, count), angles and half-lengths (T, count, m)
        zero-padded past each size, and disc radii (T, count).
        """
        starts, sizes, discs = [], [], []
        for _ in range(count):
            # n angles, n log-lengths, random() < disc_prob, the disc's log-radius
            n = self.integers(m)
            self.reserve(2 * m + 2)
            disc = (self.raw[self.rows, self.pos + 2 * n] >> 11) * 2.0**-53 < 0.25
            starts.append(self.pos)
            sizes.append(n)
            discs.append(disc)
            self.pos = self.pos + 2 * n + 1 + disc
        pos, n = np.stack(starts, 1)[..., None], np.stack(sizes, 1)[..., None]
        j = np.arange(m)
        cols = pos + np.concatenate([j, j, [1]]) + n * np.repeat([0, 1, 2], [m, m, 1])
        u = (self.raw[self.rows[:, None, None], cols] >> 11) * 2.0**-53
        scaled, filled = np.exp(LOG_LO + LOG_SPAN * u[..., m:]), j < n
        angles, lengths = np.where(filled, PI * u[..., :m], 0.0), np.where(filled, scaled[..., :m], 0.0)
        return n[..., 0], angles, lengths, np.where(np.stack(discs, 1), scaled[..., m], 0.0)


def draw_atoms(seed: int, trials: range, count: int, max_diangles: int):
    """The first `count` random_atoms(trial_rng(seed, t), max_diangles) of each trial, as TrialStreams.atoms."""
    return TrialStreams(seed, trials, count * (2 * max_diangles + 3)).atoms(count, max_diangles)
