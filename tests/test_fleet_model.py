"""A stateful property model of :class:`FleetEngine`.

Hypothesis drives three engines with the same operations — closed
submissions, open-loop arrival streams, checkpoints, outages and
reconfigurations, runs to a horizon, full drains:

* ``coarse`` runs each horizon in one ``run(until=)`` call;
* ``fine`` slices every horizon at extra drawn cut points;
* ``observed`` runs like ``coarse`` with live telemetry and a lifecycle
  tracer attached.

Per example it draws the fault rates, the admission policy, placement on
or off, the crowding threshold (a co-run baseline, or a policy that
always raises so the FCFS fallback runs) and the retry budget. After
every rule the model checks:

* conservation — ``submitted == admitted + rejected`` and ``admitted ==
  completed + failed + pending + requeues in flight`` (the engine books
  each outcome when it dispatches the window);
* termination — once the heap is empty, every arrived job has exactly
  one terminal state (completed, failed or rejected);
* time — the engine clock, every write to a node's device clock and the
  checkpoint frames never move backwards;
* occupancy — windows on one node never overlap, so each node's busy
  time is at most the makespan;
* slicing — the sliced engine's :class:`FleetResult` is bitwise equal to
  the coarse one;
* observation — telemetry and lifecycle tracing leave every statistic,
  record and schedule bitwise unchanged.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.clock import time_le
from repro.cluster.fleet import AdmitAll, BoundedQueue, FleetEngine, TokenBucket
from repro.cluster.node import ClusterState, GpuNode
from repro.cluster.policy import FcfsPolicy, PolicySelector
from repro.core.baselines import MigMpsDefaultScheduler
from repro.core.evaluation import profile_all_benchmarks
from repro.core.serving import schedule_fingerprint
from repro.errors import SchedulingError
from repro.faults import FaultConfig, FaultInjector
from repro.gpu.arch import A100_40GB
from repro.gpu.device import SimulatedGpu
from repro.hierarchy import (
    LeastLoadedPlacement,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.obs.trace import LifecycleTracer
from repro.profiling.repository import ProfileRepository
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.jobs import Job

pytestmark = pytest.mark.fleet

POOL = ("stream", "kmeans", "hotspot3D", "pathfinder", "lud_B", "needle")
ENGINES = ("coarse", "fine", "observed")

_REPOSITORY: list[ProfileRepository] = []


def _repository() -> ProfileRepository:
    if not _REPOSITORY:
        repo = ProfileRepository()
        profile_all_benchmarks(repo)
        _REPOSITORY.append(repo)
    return _REPOSITORY[0]


class RaisingPolicy:
    """A co-scheduling policy that always raises: its windows fall back
    to FCFS."""

    name = "raising"

    def schedule(self, window):
        raise SchedulingError("injected policy failure")


class CoRunPolicy:
    """A cheap co-scheduling policy: the fixed MIG 3+4 layout with
    default-mode MPS, so windows run as MIG groups that reconfiguration
    faults can hit."""

    name = "MIG+MPS Default"

    def __init__(self):
        self._scheduler = MigMpsDefaultScheduler(_repository(), c_max=3)

    def schedule(self, window):
        return self._scheduler.schedule(window)


class MonotonicGpu(SimulatedGpu):
    """A device that logs every write that moves its clock backwards."""

    def __setattr__(self, name, value):
        if name == "clock" and value < getattr(self, "clock", value):
            self.__dict__.setdefault("rewinds", []).append((self.clock, value))
        super().__setattr__(name, value)


def monitored_cluster(n_nodes: int) -> ClusterState:
    return ClusterState(
        nodes=[
            GpuNode(f"gpu{i:02d}", MonotonicGpu(A100_40GB))
            for i in range(n_nodes)
        ]
    )


class TerminalLog(LifecycleTracer):
    """A lifecycle tracer that also lists every arrival and every
    terminal hook call, duplicates included."""

    def __init__(self):
        super().__init__(seed=0, retain=False)
        self.arrived: list[str] = []
        self.terminal: list[str] = []

    def arrival(self, job, t, admitted):
        self.arrived.append(job.job_id)
        if not admitted:
            self.terminal.append(job.job_id)
        super().arrival(job, t, admitted)

    def completed(self, job, t, wait):
        self.terminal.append(job.job_id)
        super().completed(job, t, wait)

    def failed(self, job, t):
        self.terminal.append(job.job_id)
        super().failed(job, t)


@st.composite
def fault_configs(draw):
    return FaultConfig(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        job_failure_rate=draw(st.sampled_from([0.3, 0.1, 0.0])),
        transient_rate=draw(st.sampled_from([0.2, 0.0])),
        reconfig_failure_rate=draw(st.sampled_from([0.5, 0.0])),
        straggler_rate=draw(st.sampled_from([0.2, 0.0])),
    )


def result_digest(result) -> tuple:
    """Everything a :class:`FleetResult` reports, in comparable form."""
    return (
        result.stats.to_dict(),
        list(result.history),
        [schedule_fingerprint(s) for s in result.schedules],
        list(result.snapshots),
        list(result.placements),
        result.makespan,
        result.utilization,
    )


class FleetModel(RuleBasedStateMachine):
    """Three identically fed engines, checked after every rule."""

    @initialize(
        n_nodes=st.integers(min_value=1, max_value=3),
        window=st.integers(min_value=1, max_value=4),
        faults=st.one_of(st.none(), fault_configs(), fault_configs()),
        admission=st.sampled_from(["admit-all", "bounded", "token-bucket"]),
        placement=st.sampled_from(
            [None, "least-loaded", "round-robin", "random"]
        ),
        co_policy=st.sampled_from(["co-run", "raising"]),
        crowding=st.sampled_from([1, 2, 10**9]),
        max_retries=st.integers(min_value=0, max_value=2),
    )
    def build(
        self, n_nodes, window, faults, admission, placement, co_policy,
        crowding, max_retries,
    ):
        self.n_nodes = n_nodes
        self.horizon = 0.0
        self.engines: dict[str, FleetEngine] = {}
        self.results: dict[str, object] = {}
        for name in ENGINES:
            observed = name == "observed"
            self.engines[name] = FleetEngine(
                monitored_cluster(n_nodes),
                PolicySelector(
                    co_scheduling=(
                        CoRunPolicy() if co_policy == "co-run"
                        else RaisingPolicy()
                    ),
                    fcfs=FcfsPolicy(),
                    crowding_threshold=crowding,
                ),
                window_size=window,
                admission={
                    "admit-all": AdmitAll,
                    "bounded": lambda: BoundedQueue(max_pending=3),
                    "token-bucket": lambda: TokenBucket(rate=1.0, burst=4.0),
                }[admission](),
                faults=FaultInjector(faults) if faults is not None else None,
                max_retries=max_retries,
                keep_history=True,
                placement={
                    None: lambda: None,
                    "least-loaded": LeastLoadedPlacement,
                    "round-robin": RoundRobinPlacement,
                    "random": lambda: RandomPlacement(seed=3),
                }[placement](),
                telemetry=Telemetry() if observed else NULL_TELEMETRY,
                lifecycle=TerminalLog() if observed else None,
            )
        self.clocks = {name: self._clock_state(name) for name in ENGINES}

    def _clock_state(self, name: str) -> tuple:
        engine = self.engines[name]
        return (
            engine.now,
            [node.available_at for node in engine.cluster.nodes],
            len(engine.snapshots),
        )

    # ------------------------------------------------------------------
    # feeding the heap (applied to every engine in the same order)
    # ------------------------------------------------------------------
    @rule(
        names=st.lists(st.sampled_from(POOL), min_size=1, max_size=6),
        delay=st.floats(min_value=0.0, max_value=30.0),
    )
    def submit_jobs(self, names, delay):
        at = self.horizon + delay
        jobs = [Job.submit(name) for name in names]
        for engine in self.engines.values():
            for job in jobs:
                engine.submit(job, at=at)

    @rule(
        rate=st.sampled_from([0.05, 0.3, 2.0]),
        n_jobs=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def attach_arrivals(self, rate, n_jobs, seed):
        process = PoissonArrivals(
            rate=rate, pool=POOL, n_jobs=n_jobs, seed=seed, start=self.horizon
        )
        stream = [(t, Job.submit(name)) for t, name in process]
        for engine in self.engines.values():
            engine.attach_arrivals(stream)

    @rule(
        node=st.integers(min_value=0, max_value=2),
        delay=st.floats(min_value=0.0, max_value=60.0),
        duration=st.floats(min_value=0.0, max_value=40.0),
        reconfig=st.booleans(),
    )
    def schedule_outage(self, node, delay, duration, reconfig):
        name = f"gpu{node % self.n_nodes:02d}"
        for engine in self.engines.values():
            push = engine.schedule_reconfig if reconfig else engine.schedule_fault
            push(name, at=self.horizon + delay, duration=duration)

    @rule(interval=st.floats(min_value=1.0, max_value=60.0))
    def schedule_checkpoints(self, interval):
        for engine in self.engines.values():
            engine.schedule_checkpoints(interval)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    @rule(
        step=st.floats(min_value=0.5, max_value=200.0),
        cuts=st.lists(
            st.floats(min_value=0.0, max_value=1.0), max_size=4
        ),
    )
    def run_to_horizon(self, step, cuts):
        horizon = self.horizon + step
        fine = self.engines["fine"]
        for fraction in sorted(cuts):
            fine.run(until=self.horizon + fraction * step)
        for name, engine in self.engines.items():
            self.results[name] = engine.run(until=horizon)
        self.horizon = horizon
        self._compare_results()

    @rule()
    def drain(self):
        for name, engine in self.engines.items():
            self.results[name] = engine.run()
        self.horizon = max(self.horizon, self.engines["coarse"].now)
        self._compare_results()

    def _compare_results(self):
        reference = result_digest(self.results["coarse"])
        assert result_digest(self.results["fine"]) == reference, (
            "slicing run(until=) changed the result"
        )
        assert result_digest(self.results["observed"]) == reference, (
            "telemetry/lifecycle changed the result"
        )

    def teardown(self):
        if not hasattr(self, "engines"):
            return
        self.drain()
        self.conservation()
        self.drained_jobs_end_exactly_once()
        self.time_never_goes_backwards()
        self.windows_never_overlap_on_a_node()
        self.observers_and_slicing_are_neutral()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def conservation(self):
        for name, engine in self.engines.items():
            s = engine.stats
            assert s.submitted == s.admitted + s.rejected, name
            in_flight = engine._live_requeues
            assert s.admitted == (
                s.completed + s.failed + engine.pending_depth + in_flight
            ), name

    @invariant()
    def drained_jobs_end_exactly_once(self):
        for name, engine in self.engines.items():
            if not engine.events:
                assert engine.pending_depth == 0, name
                assert engine._live_requeues == 0, name
        observed = self.engines["observed"]
        if observed.events:
            return
        log = observed.lifecycle
        outcomes = Counter(log.terminal)
        assert sorted(outcomes) == sorted(log.arrived)
        assert set(outcomes.values()) <= {1}
        assert log.open_jobs == 0

    @invariant()
    def time_never_goes_backwards(self):
        for name, engine in self.engines.items():
            now, clocks, n_frames = self.clocks[name]
            assert engine.now >= now, name
            current = [node.available_at for node in engine.cluster.nodes]
            assert all(b >= a for a, b in zip(clocks, current)), name
            for node in engine.cluster.nodes:
                assert not getattr(node.device, "rewinds", None), (
                    name, node.name, node.device.rewinds,
                )
            times = [s.time for s in engine.snapshots[max(n_frames - 1, 0):]]
            assert times == sorted(times), name
            assert all(t <= engine.now for t in times), name
            self.clocks[name] = self._clock_state(name)

    @invariant()
    def windows_never_overlap_on_a_node(self):
        for name, engine in self.engines.items():
            makespan = engine.cluster.makespan
            last_end: dict[str, float] = {}
            for record in engine.history:
                assert record.start_time <= record.end_time, name
                previous = last_end.get(record.node_name)
                if previous is not None:
                    assert time_le(previous, record.start_time), name
                last_end[record.node_name] = record.end_time
            for node in engine.cluster.nodes:
                assert time_le(node.busy_time, makespan), name

    @invariant()
    def observers_and_slicing_are_neutral(self):
        def state(engine):
            return (
                engine.stats.to_dict(),
                engine.history,
                [schedule_fingerprint(s) for s in engine.schedules],
                engine.snapshots,
                engine.placements,
                engine.now,
                engine.pending_depth,
                len(engine.events),
            )

        reference = state(self.engines["coarse"])
        for name in ("fine", "observed"):
            assert state(self.engines[name]) == reference, name


FleetModel.TestCase.settings = settings(
    max_examples=80,
    stateful_step_count=10,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFleetModel = FleetModel.TestCase
