"""The lockstep draw engine against numpy's SeedSequence, PCG64 and Generator.

numpy is the oracle here, the installed release whatever it is: if a numpy
release changes one of these streams, these tests fail.
"""

import numpy as np
import pytest

from zonalg import generators

# 1-, 2- and 7-word seeds, around the 32-bit word boundaries
SEEDS = [0, 1, 5, 2**31 - 1, 2**32 - 1, 2**32 + 7, 12345678901234567890, 2**200 + 11]
# trial 0 and trials whose index has two 32-bit words
TRIALS = [range(0, 46), range(2**32 - 2, 2**32 + 2)]


def reference_states(seed, trials):
    return np.array([np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in trials])


class TestSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_seed_sequence(self, seed):
        for trials in TRIALS:
            assert np.array_equal(generators.generate_states(seed, trials), reference_states(seed, trials))

    def test_empty_range(self):
        assert generators.generate_states(3, range(0)).shape == (0, 4)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_outputs_match_pcg64(self, seed):
        for trials in TRIALS:
            streams = generators.TrialStreams(seed, trials, 40)
            streams.reserve(70)  # widens the block past the first 40 columns
            assert streams.raw.shape == (len(trials), 80)
            for row, t in zip(streams.raw, trials):
                want = np.random.PCG64(np.random.SeedSequence([seed, t])).random_raw(row.size)
                assert np.array_equal(row, want)


class TestDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_atoms_match_random_atoms(self, seed):
        """50 trials x 5 widths x 6 bodies per seed: 12,000 bodies over SEEDS."""
        discs = 0
        for trials in TRIALS:
            for max_diangles in (1, 2, 3, 10, 300):
                for count in (2, 4):
                    sizes, angles, lengths, radii = generators.draw_atoms(seed, trials, count, max_diangles)
                    assert sizes.shape == radii.shape == (len(trials), count)
                    assert angles.shape == lengths.shape == (len(trials), count, max_diangles)
                    for i, t in enumerate(trials):
                        rng = generators.trial_rng(seed, t)
                        for b in range(count):
                            want_theta, want_len, want_radius = generators.random_atoms(rng, max_diangles)
                            n = len(want_theta)
                            assert sizes[i, b] == n
                            assert angles[i, b, :n].tobytes() == want_theta.tobytes()
                            assert lengths[i, b, :n].tobytes() == want_len.tobytes()
                            assert not angles[i, b, n:].any() and not lengths[i, b, n:].any()
                            assert radii[i, b] == want_radius
                            discs += want_radius > 0
        assert discs > 0

    @pytest.mark.parametrize("m", [2, 7, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32])
    def test_integers_match_generator(self, m):
        """Near 2**31 about half the 32-bit words are rejected and redrawn."""
        trials, draws = range(40), 16
        streams = generators.TrialStreams(3, trials, 2)
        got = np.stack([streams.integers(m) for _ in range(draws)], axis=1)
        for row, t in zip(got, trials):
            rng = generators.trial_rng(3, t)
            assert row.tolist() == [rng.integers(1, m + 1) for _ in range(draws)]
        if m in (2**31 + 1, 3 * 2**30 + 1):
            # more 64-bit outputs read than draws / 2, so rejections happened
            assert streams.pos.sum() > len(trials) * draws // 2
            assert streams.raw.shape[1] > 2

    def test_size_one_draws_no_integer(self):
        streams = generators.TrialStreams(4, range(10), 4)
        assert streams.integers(1).tolist() == [1] * 10
        assert not streams.pos.any() and not streams.has.any()
