"""End-to-end fast-path equivalence: training with every memoization
layer on must be bitwise-identical to training with them all off.

This is the integration-level pin behind the per-layer equivalence
tests (`test_perfmodel_cache`): identical RNG streams + identical float
arithmetic at every decision point means identical trajectories,
returns, and throughputs — not merely statistically similar ones.
"""

import numpy as np

from repro.core.trainer import OfflineTrainer
from repro.perfmodel.cache import (
    CacheStats,
    corun_cache_disabled,
    reset_corun_cache,
)
from repro.rl.nn import DuelingQNetwork


def _small_trainer():
    return OfflineTrainer(
        window_size=6,
        c_max=3,
        n_training_queues=3,
        seed=11,
        dqn_overrides={
            "hidden": (32, 16),
            "warmup_transitions": 16,
            "batch_size": 8,
        },
    )


class TestFastPathIdentity:
    def test_train_identical_with_cache_on_vs_off(self):
        reset_corun_cache()
        with corun_cache_disabled():
            ref = _small_trainer().train(episodes=8)
        fast = _small_trainer().train(episodes=8)
        assert fast.episode_returns == ref.episode_returns
        assert fast.episode_throughputs == ref.episode_throughputs

    def test_repeated_train_on_one_trainer_is_deterministic(self):
        # the shared window-context cache across train() calls must not
        # change results
        trainer = _small_trainer()
        repo = trainer.build_repository()
        a = trainer.train(episodes=5, repository=repo)
        b = trainer.train(episodes=5, repository=repo)
        assert a.episode_returns == b.episode_returns
        assert a.episode_throughputs == b.episode_throughputs

    def test_cache_stats_populated(self):
        reset_corun_cache()
        result = _small_trainer().train(episodes=5)
        assert set(result.cache_stats) == {"corun", "decisions"}
        corun = result.cache_stats["corun"]
        assert isinstance(corun, CacheStats)
        assert corun.lookups > 0
        assert 0.0 <= corun.hit_rate <= 1.0

    def test_cache_stats_idle_when_disabled(self):
        reset_corun_cache()
        with corun_cache_disabled():
            result = _small_trainer().train(episodes=3)
        assert result.cache_stats["corun"].lookups == 0
        assert result.cache_stats["decisions"].lookups == 0


class TestInferenceForward:
    def test_infer_matches_forward_bitwise(self):
        rng = np.random.default_rng(5)
        for dueling in (True, False):
            net = DuelingQNetwork(
                n_inputs=17, n_actions=9, hidden=(24, 12), seed=3,
                dueling=dueling,
            )
            x = rng.normal(size=(13, 17))
            assert np.array_equal(net.infer(x), net.forward(x))
