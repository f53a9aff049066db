"""The benchmark's four workloads.

Each workload builds every input from its seed in :meth:`setup` (the
program receives only the generated windows, arrival lists and training
seeds), may run one untimed warm-up operation, and then runs timed
operations through :meth:`op`. All operations of one run see identical
inputs, so their simulated outcomes — summarized by ``digest`` — must
be identical. Sizes are constructor arguments, so the self-test can run
every workload at tiny sizes.

============  ============================  ====================================
workload      one operation                 one latency sample
============  ============================  ====================================
train-paper   a paper-size training run     one training episode
serve-cold    serving every window once     one ``optimize_many`` call
fleet-flat    draining the arrival list     advancing 10 simulated s (or more)
fleet-placed  one agent-placed drain        one placement decision
============  ============================  ====================================
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.fleet import FleetEngine
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.core.actions import ActionCatalog
from repro.core.evaluation import profile_all_benchmarks
from repro.core.optimizer import OnlineOptimizer
from repro.core.serving import DecisionCache
from repro.core.trainer import OfflineTrainer
from repro.hierarchy import JointTrainer, LeastLoadedPlacement, evaluate_placement
from repro.insight.benchgate import HIERARCHY_BENCH_POOL
from repro.perfmodel.cache import corun_cache, partition_signature, reset_corun_cache
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import QueueGenerator
from repro.workloads.jobs import Job
from repro.workloads.suite import TRAINING_SET

__all__ = [
    "Region",
    "OpResult",
    "TrainPaper",
    "ServeCold",
    "FleetFlat",
    "FleetPlaced",
    "WORKLOADS",
    "digest",
]

clock = time.perf_counter

#: the serving and fleet workloads train their agents from this fixed
#: seed, so ``--seed`` varies only the windows and arrivals they serve
#: (agents trained per seed moved sim_gain by 5-10% between seeds)
AGENT_SEED = 0

#: serve-cold: share of windows that resubmit an earlier window's
#: programs, and windows per ``optimize_many`` call
REPEAT_SHARE = 0.05
BATCH = 4

#: fleet-flat: programs in the arrival pool, and simulated seconds per
#: latency sample
POOL_SIZE = 6
SLICE_S = 10.0

#: the small node-level agent of the fleet workloads (the settings
#: ``measure_fleet_bench`` and ``JointTrainer`` use)
SMALL_AGENT = {
    "hidden": (64, 32),
    "warmup_transitions": 32,
    "batch_size": 16,
    "epsilon_decay_rate": 0.98,
}


def digest(value) -> str:
    """A stable hash of nested ints, floats and strings (a float's
    ``repr`` round-trips exactly, so equal digests mean equal bits)."""
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


class Region:
    """The timed part of one operation.

    :meth:`timed` adds the host seconds of its block to ``wall_s``.
    Given ``patches`` (a :class:`spans.Patches`), it installs the
    tracing wrappers around the block, outside the clock readings.
    :meth:`mark` starts a new trace id for the spans that follow.
    """

    def __init__(self, patches=None) -> None:
        self.patches = patches
        self.wall_s = 0.0

    @contextmanager
    def timed(self):
        if self.patches is not None:
            self.patches.install()
        start = clock()
        try:
            yield
        finally:
            self.wall_s += clock() - start
            if self.patches is not None:
                self.patches.uninstall()

    def mark(self) -> None:
        if self.patches is not None:
            self.patches.tracer.trace_id += 1


@dataclass
class OpResult:
    """What one operation did: work ``items`` in ``wall_s`` host
    seconds, per-sample latencies, and a digest of its simulated
    outcome. ``corun`` and ``decisions`` are (hits, lookups) of the
    co-run cache and the serving decision cache during the operation."""

    items: int
    wall_s: float
    samples_s: list[float]
    digest: str
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    corun: tuple[int, int] = (0, 0)
    decisions: tuple[int, int] = (0, 0)


def _hits(stats) -> tuple[int, int]:
    return stats.hits, stats.lookups


def _selector(agent, repository, c_max: int, window_size: int) -> PolicySelector:
    """Node-level serving: the frozen agent behind a fresh decision
    cache, co-scheduling whenever a job waits (threshold 1)."""
    optimizer = OnlineOptimizer(
        agent,
        repository,
        ActionCatalog(c_max=c_max),
        window_size,
        decision_cache=DecisionCache(),
    )
    return PolicySelector(
        co_scheduling=CoSchedulingPolicy(optimizer),
        fcfs=FcfsPolicy(),
        crowding_threshold=1,
    )


class Workload:
    """One named workload. ``item`` is the work unit of
    ``throughput_per_s``; ``sample`` is what one latency sample times;
    ``required_layer`` must show calls in a traced run (it is the code
    the workload exists to time). ``notes`` collects simulated results
    worth printing beside the metrics."""

    name = ""
    item = ""
    sample = ""
    required_layer = ""
    #: whether the warm-up runs the timed operation itself (same digest)
    warm_matches_op = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.notes: dict[str, float] = {}

    def setup(self) -> float:
        """Build every input from the seed; return the seconds spent
        training agents."""
        raise NotImplementedError

    def warm(self) -> OpResult | None:
        """One untimed operation that fills caches before timing."""
        return self.op(Region())

    def op(self, region: Region) -> OpResult:
        raise NotImplementedError

    def quality(self) -> float:
        """The simulated gain ``sim_gain`` (untimed; may run a baseline)."""
        raise NotImplementedError


class TrainPaper(Workload):
    """``OfflineTrainer()`` at paper defaults, from scratch each time.

    ``episodes`` must run past the 256-transition replay warm-up, or no
    gradient step is timed.
    """

    name = "train-paper"
    item = "episodes"
    sample = "one training step past replay warm-up"
    required_layer = "rl.dqn.train_step"
    warm_matches_op = False

    def __init__(self, seed: int, episodes: int = 150, warm_episodes: int = 70) -> None:
        super().__init__(seed)
        self.episodes = episodes
        self.warm_episodes = warm_episodes
        self.repository = None
        self.mean_gain = 0.0

    def setup(self) -> float:
        self.repository = OfflineTrainer(seed=self.seed).build_repository()
        return 0.0

    def warm(self) -> OpResult | None:
        if not self.warm_episodes:
            return None
        return self._train(self.warm_episodes, Region())

    def op(self, region: Region) -> OpResult:
        return self._train(self.episodes, region)

    def _train(self, episodes: int, region: Region) -> OpResult:
        reset_corun_cache()
        trainer = OfflineTrainer(seed=self.seed)
        stamps: list[float] = []
        build_env = trainer.build_env

        def build_env_probed(*args, **kwargs):
            # one clock reading per env.step(); a new trace id per episode
            env = build_env(*args, **kwargs)
            reset, step = env.reset, env.step

            def reset_marked(*a, **k):
                region.mark()
                return reset(*a, **k)

            def step_stamped(action):
                stamps.append(clock())
                return step(action)

            env.reset, env.step = reset_marked, step_stamped
            return env

        trainer.build_env = build_env_probed
        with region.timed():
            result = trainer.train(episodes=episodes, repository=self.repository)
            stamps.append(clock())
        # A training step runs from one env.step() to the next: the env
        # step, then the agent stores the transition and - once the
        # replay buffer holds enough of them - takes one gradient step.
        # Samples start at the first step that takes a gradient step.
        cfg = trainer.dqn_config
        first = max(cfg.warmup_transitions, cfg.batch_size) - 1
        samples = [b - a for a, b in zip(stamps[first:-1], stamps[first + 1:])]
        agent = result.agent
        # mean over every episode: the last-10% mean (final_throughput)
        # swings by ~14% between seeds at this length
        self.mean_gain = float(np.mean(result.episode_throughputs))
        self.notes["final_gain"] = result.final_throughput
        self.notes["gradient_steps"] = agent.train_steps
        return OpResult(
            items=len(result.episode_returns),
            wall_s=region.wall_s,
            samples_s=samples,
            digest=digest((
                result.episode_returns,
                result.episode_throughputs,
                agent.loss_history,
            )),
            checks={
                "episodes_completed": len(result.episode_returns) == episodes,
                "gradient_steps_taken": agent.train_steps > 0,
                "one_sample_per_gradient_step": len(samples) == agent.train_steps,
            },
            corun=_hits(result.cache_stats["corun"]),
        )

    def quality(self) -> float:
        return self.mean_gain


class ServeCold(Workload):
    """Cache-miss serving: W=12 windows through ``optimize_many``.

    Every operation starts from an empty decision cache and an empty
    co-run cache, so almost every window is decided by the Q-network
    plus predictor reranking. :data:`REPEAT_SHARE` of the windows resubmit
    an earlier window's programs in a new order (fresh jobs), so the
    decision cache sees a few hits.
    """

    name = "serve-cold"
    item = "windows"
    sample = "one optimize_many call"
    required_layer = "core.optimizer.optimize_many"

    def __init__(
        self,
        seed: int,
        agent_episodes: int = 80,
        n_windows: int = 192,
    ) -> None:
        super().__init__(seed)
        self.agent_episodes = agent_episodes
        self.n_windows = n_windows
        self.trainer = None
        self.agent = None
        self.repository = None
        self.windows: list[list[Job]] = []
        self.mean_gain = 0.0

    def setup(self) -> float:
        reset_corun_cache()
        start = clock()
        self.trainer = OfflineTrainer(seed=AGENT_SEED)
        result = self.trainer.train(episodes=self.agent_episodes)
        train_s = clock() - start
        self.agent, self.repository = result.agent, result.repository
        self.windows = self._windows(self.trainer.window_size)
        return train_s

    def _windows(self, w: int) -> list[list[Job]]:
        n_repeats = round(self.n_windows * REPEAT_SHARE)
        gen = QueueGenerator(seed=self.seed + 1, training_only=True)
        distinct = [
            q.window(w) for q in gen.training_queues(n=self.n_windows - n_repeats, w=w)
        ]
        rng = np.random.default_rng(self.seed)
        windows = list(distinct)
        for _ in range(n_repeats):
            base = distinct[int(rng.integers(len(distinct)))]
            windows.append([
                Job.submit(base[j].benchmark_name) for j in rng.permutation(len(base))
            ])
        return [windows[i] for i in rng.permutation(len(windows))]

    def op(self, region: Region) -> OpResult:
        reset_corun_cache()
        trainer = self.trainer
        optimizer = OnlineOptimizer(
            self.agent,
            self.repository,
            trainer.catalog,
            trainer.window_size,
            reward_config=trainer.reward_config,
            decision_cache=DecisionCache(),
        )
        before = corun_cache().stats
        decisions, samples = [], []
        windows = self.windows
        with region.timed():
            for i in range(0, len(windows), BATCH):
                region.mark()
                start = clock()
                decisions.extend(optimizer.optimize_many(windows[i:i + BATCH]))
                samples.append(clock() - start)
        gains = [d.schedule.throughput_gain for d in decisions]
        self.mean_gain = float(np.mean(gains))
        # the paper's online overhead: decision compute (the optimizer's
        # own clock) against the simulated execution time it schedules
        simulated_s = sum(d.schedule.total_time for d in decisions)
        self.notes["decision_overhead_pct"] = (
            100.0 * sum(d.decision_seconds for d in decisions) / simulated_s
        )
        return OpResult(
            items=len(decisions),
            wall_s=region.wall_s,
            samples_s=samples,
            digest=digest([
                [
                    (
                        tuple(j.benchmark_name for j in g.jobs),
                        partition_signature(g.partition),
                        g.corun_time,
                        g.solo_run_time,
                    )
                    for g in d.schedule.groups
                ]
                for d in decisions
            ]),
            checks={
                "every_window_served": len(decisions) == len(windows),
                "no_group_loses_to_time_sharing": min(gains) >= 1.0 - 1e-9,
            },
            corun=_hits(corun_cache().stats.delta(before)),
            decisions=_hits(optimizer.decision_cache.stats),
        )

    def quality(self) -> float:
        return self.mean_gain


class _FleetWorkload(Workload):
    """Shared bookkeeping of the two fleet drains."""

    item = "completed jobs"
    required_layer = "cluster.fleet.run"
    makespan = 0.0
    turnaround = 0.0

    def _cache(self) -> DecisionCache:
        raise NotImplementedError

    def _before(self) -> tuple:
        return corun_cache().stats, self._cache().stats

    def _result(self, result, region: Region, samples: list[float], before) -> OpResult:
        corun_before, cache_before = before
        stats = result.stats
        self.makespan = result.makespan
        self.turnaround = stats.mean_turnaround
        self.notes["sim_makespan_s"] = result.makespan
        self.notes["sim_wait_p99_s"] = stats.queue_wait_p99
        return OpResult(
            items=stats.completed,
            wall_s=region.wall_s,
            samples_s=samples,
            digest=digest((
                sorted(
                    (k, v) for k, v in stats.to_dict().items()
                    # placement_decision_* are host wall-clock readings
                    if not k.startswith("placement_decision")
                ),
                result.makespan,
                result.utilization,
                result.placements,
            )),
            failed=stats.failed + stats.rejected,
            checks={
                "accounting": (
                    stats.completed + stats.failed + stats.rejected == stats.submitted
                ),
                "every_job_completed": stats.completed == self.jobs,
            },
            corun=_hits(corun_cache().stats.delta(corun_before)),
            decisions=_hits(self._cache().stats.delta(cache_before)),
        )


class FleetFlat(_FleetWorkload):
    """``FleetEngine`` over a flat fleet with a warm decision cache.

    The warm-up drains the same arrival list once, so every timed
    drain serves its windows from the decision cache; the timed part
    is the event heap, node replay and dispatch. Arrivals outpace the
    fleet, so the drain is mostly a backlog being worked off.
    """

    name = "fleet-flat"
    sample = "advancing the fleet by one slice of simulated time"

    def __init__(
        self,
        seed: int,
        nodes: int = 1000,
        jobs: int = 100_000,
        rate: float = 5000.0,
        agent_episodes: int = 20,
    ) -> None:
        super().__init__(seed)
        self.nodes = nodes
        self.jobs = jobs
        self.rate = rate
        self.agent_episodes = agent_episodes
        self.selector = None
        self.arrivals: list = []

    def setup(self) -> float:
        reset_corun_cache()
        start = clock()
        trainer = OfflineTrainer(
            window_size=6,
            c_max=3,
            n_training_queues=4,
            seed=AGENT_SEED,
            dqn_overrides=SMALL_AGENT,
        )
        result = trainer.train(episodes=self.agent_episodes)
        train_s = clock() - start
        repository = result.repository.copy()
        profile_all_benchmarks(repository)
        self.selector = _selector(result.agent, repository, trainer.c_max, trainer.window_size)
        pool = sorted(TRAINING_SET)[:POOL_SIZE]
        self.arrivals = list(PoissonArrivals(
            rate=self.rate, pool=pool, n_jobs=self.jobs, seed=self.seed + 2,
        ))
        return train_s

    def _cache(self) -> DecisionCache:
        return self.selector.co_scheduling.optimizer.decision_cache

    def _engine(self, selector) -> FleetEngine:
        engine = FleetEngine(ClusterState.homogeneous(self.nodes), selector, window_size=6)
        engine.attach_arrivals(self.arrivals)
        return engine

    def op(self, region: Region) -> OpResult:
        engine = self._engine(self.selector)
        events = engine.events
        samples: list[float] = []
        horizon = 0.0
        before = self._before()
        with region.timed():
            region.mark()
            while events:
                # never an empty slice: jump to the next event if later
                horizon = max(horizon + SLICE_S, events.peek_time())
                start = clock()
                result = engine.run(until=horizon)
                samples.append(clock() - start)
        return self._result(result, region, samples, before)

    def quality(self) -> float:
        """Makespan of exclusive FCFS over the same arrivals, divided by
        the co-scheduled makespan."""
        fcfs = PolicySelector(
            co_scheduling=self.selector.co_scheduling,
            fcfs=FcfsPolicy(),
            crowding_threshold=2**62,  # never crowded: always FCFS
        )
        baseline = self._engine(fcfs).run()
        self.notes["fcfs_makespan_s"] = baseline.makespan
        return baseline.makespan / self.makespan


class _TimedPlacement:
    """Forwards ``place`` to the agent and records its host latency."""

    def __init__(self, inner, samples: list[float]) -> None:
        self.inner = inner
        self.name = inner.name
        self.samples = samples

    def place(self, engine, job, now):
        start = clock()
        index = self.inner.place(engine, job, now)
        self.samples.append(clock() - start)
        return index


class FleetPlaced(_FleetWorkload):
    """Two-level hierarchy: a trained placement agent routes each
    arrival, the node-level agent co-schedules each node's windows.

    ``JointTrainer`` uses ``measure_hierarchy_bench``'s settings except
    for fewer placement episodes. The warm-up is one agent drain of the
    same arrivals: it fills the node-level decision cache, which a
    first drain pays for in cold decisions.
    """

    name = "fleet-placed"
    item = "placements"
    sample = "one placement decision"
    required_layer = "hierarchy.placement.place"

    def __init__(
        self,
        seed: int,
        nodes: int = 100,
        jobs: int = 2000,
        rate: float = 40.0,
        node_episodes: int = 12,
        placement_episodes: int = 2,
        jobs_per_episode: int = 300,
    ) -> None:
        super().__init__(seed)
        self.nodes = nodes
        self.jobs = jobs
        self.rate = rate
        self.node_episodes = node_episodes
        self.placement_episodes = placement_episodes
        self.jobs_per_episode = jobs_per_episode
        self.trainer = None
        self.agent = None
        self.arrivals: list = []

    def setup(self) -> float:
        reset_corun_cache()
        pool = list(HIERARCHY_BENCH_POOL)
        start = clock()
        self.trainer = JointTrainer(
            n_nodes=self.nodes,
            window_size=6,
            c_max=3,
            seed=AGENT_SEED,
            jobs_per_episode=self.jobs_per_episode,
            arrival_rate=self.rate,
            pool=pool,
            node_episodes=self.node_episodes,
            prioritized=True,
            wait_weight=1.0,
            affinity_weight=0.5,
            terminal_weight=2.0,
            placement_overrides={
                "hidden": (64, 32),
                "candidate_k": 12,
                "gamma": 0.5,
                "warmup_transitions": 64,
                "batch_size": 32,
                "epsilon_decay_rate": 0.995,
            },
        )
        self.agent = self.trainer.train(episodes=self.placement_episodes).placement
        train_s = clock() - start
        # held out: training episodes use seeds AGENT_SEED * 1009 + episode
        self.arrivals = list(PoissonArrivals(
            rate=self.rate, pool=pool, n_jobs=self.jobs, seed=self.seed + 17,
        ))
        return train_s

    def _cache(self) -> DecisionCache:
        return self.trainer.optimizer.decision_cache

    def op(self, region: Region) -> OpResult:
        samples: list[float] = []
        engine = FleetEngine(
            ClusterState.homogeneous(self.nodes),
            self.trainer.selector,
            window_size=6,
            placement=_TimedPlacement(self.agent, samples),
        )
        engine.attach_arrivals(self.arrivals)
        before = self._before()
        with region.timed():
            region.mark()
            result = engine.run()
        op = self._result(result, region, samples, before)
        op.items = len(result.placements)
        return op

    def quality(self) -> float:
        """Least-loaded mean turnaround over the same arrivals, divided
        by the agent's. (The makespan ratio, printed as a note, moves
        about 7% between arrival lists: one late job decides it.)"""
        baseline = evaluate_placement(
            LeastLoadedPlacement(),
            self.trainer.selector,
            self.nodes,
            self.arrivals,
            window_size=6,
        )
        self.notes["least_loaded_makespan_s"] = baseline.makespan
        self.notes["makespan_gain"] = baseline.makespan / self.makespan
        return baseline.stats.mean_turnaround / self.turnaround


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrainPaper, ServeCold, FleetFlat, FleetPlaced)
}
