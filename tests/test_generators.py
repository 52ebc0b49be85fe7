"""The campaigns' counter-based draw against a pure-Python integer reference.

conftest.reference_atoms computes each word alone with Python integers, so
these tests hold draw_atoms' array layout, key folding and decoding to it bit
for bit, and then check the distributions the draw promises.  The draw is
also the tests' one fuzz source: TestFuzzSource holds conftest.drawn, which
every fuzz body of the tests comes from, to the same reference.
"""

import math

import numpy as np
import pytest

from zonalg import bodies, generators

from conftest import GAMMA, drawn, reference_atoms, splitmix

# 1-, 2- and 4-word seeds, around the 32- and 64-bit word boundaries
SEEDS = [0, 1, 5, 2**31 - 1, 2**32 - 1, 2**32 + 7, 12345678901234567890, 2**64, 2**200 + 11]
# trial 0, trials whose index has two 32-bit words, and the last two trials
TRIALS = [range(0, 46), range(2**32 - 2, 2**32 + 2), range(2**64 - 2, 2**64)]
WIDTHS = [1, 2, 3, 10, 300, 1024]


def within(frequency, p, n):
    """frequency is within 5 binomial standard deviations of p over n draws."""
    return abs(frequency - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


class TestSeeding:
    def test_splitmix_reference_outputs(self):
        # The first outputs of SplitMix64 seeded with 0: the finalizer of k·γ.
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
        assert [splitmix(k * GAMMA % 2**64) for k in range(1, 5)] == want

    def test_empty_range(self):
        sizes, angles, lengths, radii = generators.draw_atoms(3, range(0), 4, 10)
        assert sizes.shape == radii.shape == (0, 4) and angles.shape == lengths.shape == (0, 4, 10)


class TestDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_atoms_match_reference(self, seed):
        """52 trials x 6 widths x 4 bodies per seed, each drawn again as a 2-body prefix."""
        discs = 0
        for trials in TRIALS:
            for m in WIDTHS:
                four, two = (generators.draw_atoms(seed, trials, count, m) for count in (4, 2))
                for count, (sizes, angles, lengths, radii) in ((4, four), (2, two)):
                    assert sizes.shape == radii.shape == (len(trials), count)
                    assert angles.shape == lengths.shape == (len(trials), count, m)
                # body b's slots do not depend on how many bodies follow it
                for a, b in zip(four, two):
                    assert a[:, :2].tobytes() == b.tobytes()
                sizes, angles, lengths, radii = four
                for i, t in enumerate(trials):
                    for b in range(4):
                        want_angles, want_lengths, want_radius = reference_atoms(seed, t, b, m)
                        n = len(want_angles)
                        assert sizes[i, b] == n
                        assert angles[i, b, :n].tobytes() == want_angles.tobytes()
                        assert lengths[i, b, :n].tobytes() == want_lengths.tobytes()
                        assert not angles[i, b, n:].any() and not lengths[i, b, n:].any()
                        assert radii[i, b] == want_radius
                        discs += want_radius > 0
        assert discs > 0

    def test_distributions(self):
        """50,000 bodies at width 10: counts, discs, angles and half-lengths."""
        m = 10
        sizes, angles, lengths, radii = generators.draw_atoms(2026, range(12_500), 4, m)
        bodies = sizes.size
        counts = np.bincount(sizes.ravel(), minlength=m + 1)
        assert counts[0] == 0 and len(counts) == m + 1
        assert all(within(c / bodies, 1 / m, bodies) for c in counts[1:]), counts
        discs = radii[radii > 0]
        assert within(len(discs) / bodies, 0.25, bodies)
        filled = np.arange(m) < sizes[..., None]
        theta, half = angles[filled], lengths[filled]
        assert theta.min() >= 0.0 and theta.max() < math.pi
        assert within(np.count_nonzero(theta < math.pi / 2) / theta.size, 0.5, theta.size)
        # log-uniform: half of the half-lengths fall below the geometric mean of the range
        lo, hi = generators.HALF_LENGTH_RANGE
        for r in (half, discs):
            assert lo <= r.min() and r.max() < hi
            assert within(np.count_nonzero(r < math.sqrt(lo * hi)) / r.size, 0.5, r.size)


class TestFuzzSource:
    @pytest.mark.parametrize("m", [1, 8, 10, 12])
    def test_drawn_bodies_match_reference(self, m):
        """Each body of conftest.drawn is the reference's atoms, canonicalized.

        So drawn reads each body of a row, its own count of atoms and its own
        radius; only the zonogons drop the radius.
        """
        for seed in SEEDS[:6]:
            for t in (0, 1, 17, 2**32 + 1, 2**64 - 1):
                for count in (1, 2, 4):
                    got, zonogons = drawn(seed, t, count, m), drawn(seed, t, count, m, zonogons=True)
                    assert len(got) == len(zonogons) == count
                    for b in range(count):
                        angles, lengths, radius = reference_atoms(seed, t, b, m)
                        assert got[b] == bodies.canonicalize(angles, lengths, radius)
                        assert zonogons[b] == bodies.canonicalize(angles, lengths)
