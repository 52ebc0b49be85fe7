"""Seeded random bodies and lifted vectors for fuzz campaigns.

Trial i of a campaign uses a generator derived from (seed, i), so results
are deterministic and independent of trial execution order.
"""

from __future__ import annotations

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
