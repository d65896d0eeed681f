"""``seeded.Generator`` draws bit for bit what ``numpy.random.default_rng`` draws,
alone and in each runner's own sequence of draws.  That the experiments run
without importing ``numpy.random`` is checked in ``test_harness.py``."""

import numpy as np
import pytest

from phasequant import harness, seeded

EXPERIMENT_SEEDS = (20260814, 31415, 27182, 16180)
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 3, 2**160 + 7) + EXPERIMENT_SEEDS


def same(got, want) -> bool:
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy_bit_for_bit(seed):
    ours, theirs = seeded.Generator(seed), np.random.default_rng(seed)
    for low, high in ((0.0, 1.0), (-1.0, 1.0), (-1.5, 1.5), (0.6, 1.8), (-np.pi, np.pi)):
        for size in (None, 1, 2, 4, 50):
            assert same(ours.uniform(low, high, size=size), theirs.uniform(low, high, size=size)), (low, high, size)
    assert same(ours.uniform(), theirs.uniform())


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        seeded.Generator(-1)


class Twin(seeded.Generator):
    """The harness's generator, each draw checked against numpy's from the same seed."""

    draws: dict[int, int] = {}

    def __init__(self, seed):
        super().__init__(seed)
        self.seed, self.numpy = seed, np.random.default_rng(seed)

    def uniform(self, low=0.0, high=1.0, size=None):
        got = super().uniform(low, high, size)
        assert same(got, self.numpy.uniform(low, high, size)), (self.seed, low, high, size)
        Twin.draws[self.seed] = Twin.draws.get(self.seed, 0) + 1
        return got


def test_every_runners_draws_match_numpy_bit_for_bit(monkeypatch):
    monkeypatch.setattr(seeded, "Generator", Twin)
    monkeypatch.setattr(Twin, "draws", {})
    for name in harness.EXPERIMENT_NAMES:
        harness.run_experiment(harness.ExperimentConfig.from_dict(harness.default_config(name)))
    assert set(Twin.draws) == set(EXPERIMENT_SEEDS) and all(Twin.draws.values())

