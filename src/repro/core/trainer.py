"""Offline training (paper Fig. 7, left half).

The trainer owns the full offline pipeline:

1. profile every training-set benchmark on the simulated device
   (populating the Job Profiles Repository),
2. generate the 20 random training queues (all three classes present,
   unseen programs excluded — Section V-A2),
3. run dueling-double-DQN episodes against the co-scheduling
   environment until the requested episode budget is spent, with the
   epsilon schedule decaying from 1.0 to the 0.01 floor.

The result carries the trained agent plus per-episode diagnostics
(return, throughput gain, TD loss) so convergence can be inspected and
regression-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.core.actions import ActionCatalog
from repro.core.env import DECISION_MEMO_SIZE, CoSchedulingEnv
from repro.core.features import FeatureExtractor
from repro.core.rewards import RewardConfig
from repro.gpu.arch import A100_40GB, GpuSpec
from repro.gpu.device import SimulatedGpu
from repro.perfmodel.cache import CacheStats, CoRunCache, corun_cache
from repro.profiling.profiler import NsightProfiler
from repro.profiling.repository import ProfileRepository
from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent
from repro.telemetry.facade import NULL_TELEMETRY, Telemetry
from repro.workloads.generator import QueueGenerator
from repro.workloads.jobs import Job
from repro.workloads.suite import TRAINING_SET

__all__ = ["TrainingResult", "OfflineTrainer"]


@dataclass
class TrainingResult:
    """Trained agent + per-episode diagnostics.

    ``cache_stats`` reports the fast path's effectiveness over this
    training run: ``"corun"`` is the process-wide
    :class:`~repro.perfmodel.cache.CoRunCache` delta (hits / misses /
    evictions attributable to the run), ``"decisions"`` the delta of the
    trainer-owned step-decision memo shared by every environment the
    trainer builds.
    """

    agent: DuelingDoubleDQNAgent
    repository: ProfileRepository
    episode_returns: list[float] = field(default_factory=list)
    episode_throughputs: list[float] = field(default_factory=list)
    cache_stats: dict[str, CacheStats] = field(default_factory=dict)

    @property
    def final_throughput(self) -> float:
        """Mean throughput gain over the last 10% of episodes."""
        tail = max(1, len(self.episode_throughputs) // 10)
        return float(np.mean(self.episode_throughputs[-tail:]))


class OfflineTrainer:
    """End-to-end offline phase on a simulated device."""

    def __init__(
        self,
        spec: GpuSpec = A100_40GB,
        window_size: int = 12,
        c_max: int = 4,
        n_training_queues: int = 20,
        seed: int = 0,
        reward_config: RewardConfig | None = None,
        profile_noise: float = 0.01,
        dqn_overrides: dict | None = None,
        binding: str = "auto",
        telemetry: Telemetry = NULL_TELEMETRY,
        recorder=None,
    ):
        if window_size < 2:
            raise TrainingError("training needs windows of at least 2 jobs")
        self.spec = spec
        self.window_size = window_size
        self.c_max = c_max
        self.n_training_queues = n_training_queues
        self.seed = seed
        self.reward_config = reward_config or RewardConfig()
        self.profile_noise = profile_noise
        self.binding = binding
        self.telemetry = telemetry
        self.recorder = recorder
        self._losses_recorded = 0
        self.catalog = ActionCatalog(spec, c_max=c_max)
        extractor = FeatureExtractor(window_size)
        cfg_kwargs = {
            "n_inputs": extractor.n_inputs,
            "n_actions": self.catalog.n_actions,
            "seed": seed,
        }
        cfg_kwargs.update(dqn_overrides or {})
        self.dqn_config = DQNConfig(**cfg_kwargs)
        self._windows: list[list[Job]] | None = None
        # Window contexts are pure functions of (window, repository);
        # sharing them across the environments built over the trainer's
        # lifetime avoids rebuilding the per-window tables every call.
        self._ctx_repo: ProfileRepository | None = None
        self._ctx_cache: dict = {}
        # One step-decision memo shared by every environment the trainer
        # builds: keys are content signatures (not queue positions), so
        # later train() calls reuse earlier decisions instead of each
        # warming a private memo from zero.
        self._decision_memo = CoRunCache(maxsize=DECISION_MEMO_SIZE)

    # ------------------------------------------------------------------
    def build_repository(self) -> ProfileRepository:
        """Profile all training-set programs (the offline profiling box
        of Fig. 7). Unseen programs are profiled online when first
        submitted, not here."""
        device = SimulatedGpu(self.spec)
        profiler = NsightProfiler(device, noise=self.profile_noise)
        repo = ProfileRepository()
        for name in TRAINING_SET:
            job = Job.submit(name)
            repo.store(job, profiler.profile(job))
        return repo

    def build_env(self, repository: ProfileRepository) -> CoSchedulingEnv:
        """One training environment over the fixed window set."""
        windows = self._windows
        if windows is None:
            # The window set is a pure function of the trainer's
            # configuration — generate it once, not per train() call.
            gen = QueueGenerator(seed=self.seed, training_only=True)
            queues = gen.training_queues(
                n=self.n_training_queues, w=self.window_size
            )
            windows = [q.window(self.window_size) for q in queues]
            self._windows = windows
        if self._ctx_repo is not repository:
            self._ctx_repo, self._ctx_cache = repository, {}
        return CoSchedulingEnv(
            windows=windows,
            repository=repository,
            catalog=self.catalog,
            window_size=self.window_size,
            reward_config=self.reward_config,
            seed=self.seed,
            binding=self.binding,
            window_context_cache=self._ctx_cache,
            decision_memo=self._decision_memo,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        episodes: int = 400,
        repository: ProfileRepository | None = None,
    ) -> TrainingResult:
        """Run the offline training loop."""
        if episodes <= 0:
            raise TrainingError("episode budget must be positive")
        repo = repository or self.build_repository()
        env = self.build_env(repo)
        agent = DuelingDoubleDQNAgent(self.dqn_config)
        result = TrainingResult(agent=agent, repository=repo)
        corun_before = corun_cache().stats
        decisions_before = self._decision_memo.stats
        self._losses_recorded = 0

        for ep_idx in range(episodes):
            obs, info = env.reset()
            capture = None
            if self.recorder is not None:
                from repro.insight.records import WindowCapture

                capture = WindowCapture(self.recorder, "train", agent, env)
            done = False
            ep_return = 0.0
            while not done:
                mask = info["action_mask"]
                if capture is not None:
                    epsilon = agent.epsilon  # before act() advances it
                action = agent.act(obs, mask)
                if capture is not None:
                    capture.stage(obs, mask, action, epsilon=epsilon)
                next_obs, reward, terminated, truncated, info = env.step(action)
                if capture is not None:
                    capture.set_reward(reward)
                done = terminated or truncated
                agent.observe(
                    obs, action, reward, next_obs, done, info["action_mask"]
                )
                obs = next_obs
                ep_return += reward
            if capture is not None:
                terminal = info["schedule"]
                capture.finalize(
                    terminal,
                    terminal,
                    full_window=env.window_jobs,
                    method=terminal.method,
                    c_max=self.c_max,
                    window_size=self.window_size,
                )
            result.episode_returns.append(ep_return)
            result.episode_throughputs.append(
                info["schedule"].throughput_gain
            )
            if self.telemetry.enabled:
                self._record_episode(
                    agent, ep_return, info["schedule"].throughput_gain,
                    obs, ep_idx,
                )
        result.cache_stats = {
            "corun": corun_cache().stats.delta(corun_before),
            "decisions": self._decision_memo.stats.delta(decisions_before),
        }
        if self.telemetry.enabled:
            self._record_cache_stats(result.cache_stats)
        return result

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    _GAIN_BUCKETS = (0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 3.0)
    _LOSS_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 25.0, 100.0)

    _Q_BUCKETS = (-10.0, -5.0, -1.0, 0.0, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0)

    def _record_episode(
        self,
        agent: DuelingDoubleDQNAgent,
        ep_return: float,
        gain: float,
        final_obs: np.ndarray,
        episode_index: int,
    ) -> None:
        tel = self.telemetry
        tel.observe("train_episode_return", ep_return, buckets=self._GAIN_BUCKETS)
        tel.observe("train_episode_throughput", gain, buckets=self._GAIN_BUCKETS)
        tel.gauge("train_epsilon", agent.epsilon)
        n = self._losses_recorded
        losses = agent.loss_history[n:]
        for loss in losses:
            tel.observe("train_loss", loss, buckets=self._LOSS_BUCKETS)
        self._losses_recorded = len(agent.loss_history)
        # per-episode event on the "train" track: the stream the insight
        # drift/blowup detectors replay (episode index as the timestamp)
        q_max = float(np.max(agent.q_values(final_obs)))
        tel.observe("train_q_max", q_max, buckets=self._Q_BUCKETS)
        tel.event(
            "episode",
            "train",
            float(episode_index),
            category="train",
            q_max=q_max,
            loss=float(np.mean(losses)) if losses else 0.0,
            ep_return=ep_return,
            gain=gain,
            epsilon=agent.epsilon,
        )

    def _record_cache_stats(self, cache_stats: dict) -> None:
        for name, stats in cache_stats.items():
            self.telemetry.gauge(
                "corun_cache_hit_rate"
                if name == "corun"
                else "decision_cache_hit_rate",
                stats.hit_rate,
            )

