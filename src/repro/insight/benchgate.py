"""Telemetry-overhead gate: observation must stay cheap and pure.

:func:`measure_overhead_bench` drains one seeded fleet workload with
telemetry off, with the always-on telemetry plane, and with the
lifecycle trace stream on top; :func:`compare_overhead_bench` judges the
resulting document against a fixed budget, so no committed baseline is
needed. ``repro-gpu benchgate`` runs both and exits non-zero when either
check regresses:

* ``overhead.throughput_ratio`` — telemetry-off wall over telemetry-on
  wall must stay at or above :data:`OVERHEAD_BUDGET`;
* ``overhead.identical_stats`` — the observed drains must reproduce the
  unobserved drain's simulated statistics exactly.

End-to-end throughput, latency and simulated gain are measured by the
repository benchmark (``python3 bench/run.py``, bounds in
``BENCHMARK.json``), not here. :data:`HIERARCHY_BENCH_POOL` is the job
pool that benchmark's ``fleet-placed`` workload and the two-level
placement test (``benchmarks/test_two_level_placement.py``) share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.clock import Clock, perf_clock
from repro.errors import ReproError

__all__ = [
    "GateCheck",
    "gate_passes",
    "format_checks",
    "OVERHEAD_BUDGET",
    "measure_overhead_bench",
    "compare_overhead_bench",
    "HIERARCHY_BENCH_POOL",
]


@dataclass(frozen=True)
class GateCheck:
    """One compared metric and its verdict."""

    key: str
    baseline: float     # the value the candidate is judged against
    candidate: float
    ratio: float        # candidate / baseline
    regressed: bool


def _lookup(doc: dict, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ReproError(f"benchmark document is missing {dotted!r}")
        node = node[part]
    return node


def gate_passes(checks: list[GateCheck]) -> bool:
    return not any(c.regressed for c in checks)


def format_checks(checks: list[GateCheck]) -> str:
    """Human-readable verdict table for the CLI."""
    lines = [
        f"{'metric':<40s} {'baseline':>12s} {'candidate':>12s} "
        f"{'ratio':>7s}  verdict"
    ]
    for c in checks:
        verdict = "REGRESSED" if c.regressed else "ok"
        lines.append(
            f"{c.key:<40s} {c.baseline:12.4f} {c.candidate:12.4f} "
            f"{c.ratio:7.3f}  {verdict}"
        )
    return "\n".join(lines)


#: telemetry-on throughput must stay at least this fraction of
#: telemetry-off (wall_off / wall_on >= budget)
OVERHEAD_BUDGET = 0.85


def measure_overhead_bench(
    n_nodes: int = 64,
    n_jobs: int = 3000,
    warmup_jobs: int = 500,
    pool_size: int = 4,
    arrival_rate: float = 200.0,
    episodes: int = 10,
    timed_runs: int = 5,
    seed: int = 7,
    clock: Clock = perf_clock,
) -> dict:
    """A fresh telemetry-overhead document (``overhead.*`` schema).

    Drains the *same* seeded Poisson workload through the serving-shape
    :class:`~repro.cluster.fleet.FleetEngine` (small trained agent,
    decision-cached :class:`~repro.core.optimizer.OnlineOptimizer` — the
    realistic per-window cost the observer rides on) three times:

    * **off** — the ``NULL_TELEMETRY`` fast path, nothing observed;
    * **telemetry** — the always-on telemetry plane: live
      :class:`Telemetry` with sketch metrics,
      :class:`~repro.obs.phase.PhaseTimers`, a wall-clock decision
      timer, and checkpoint rollup frames at 1/32 of the off-drain's
      measured makespan. ``throughput_ratio = wall_off /
      wall_telemetry`` is the **gated** number: the continuous plane
      must stay within :data:`OVERHEAD_BUDGET`;
    * **full** — the telemetry plane plus a
      :class:`~repro.obs.trace.LifecycleTracer` streaming one span
      tree per job to JSONL. Serializing every job's causal tree costs
      a few ``json.dumps`` per job by construction, so this opt-in
      forensic stream is reported (``lifecycle_ratio``) but not gated.

    A warm-up drain per mode first populates that mode's decision
    cache, and each mode's wall time is the best of ``timed_runs``
    repeats of the same deterministic drain, so the ratios compare
    like steady states rather than scheduler or allocator noise.

    The document also carries the observer-neutrality contract: all
    drains' :class:`FleetStats` must agree exactly on every simulated
    field (excluding the wall-clock ``placement_decision_*`` timings
    and the ``checkpoints`` counter — both exist only on observed
    runs). Self-contained: :func:`compare_overhead_bench` judges
    against a fixed budget, no committed baseline needed.
    """
    import os
    import tempfile

    from repro.cluster.fleet import FleetEngine
    from repro.cluster.node import ClusterState
    from repro.cluster.policy import (
        CoSchedulingPolicy,
        FcfsPolicy,
        PolicySelector,
    )
    from repro.core.actions import ActionCatalog
    from repro.core.evaluation import profile_all_benchmarks
    from repro.core.optimizer import OnlineOptimizer
    from repro.core.serving import DecisionCache
    from repro.core.trainer import OfflineTrainer
    from repro.obs.phase import PhaseTimers
    from repro.obs.trace import LifecycleTracer
    from repro.telemetry import Telemetry
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.suite import TRAINING_SET

    if min(n_nodes, n_jobs, warmup_jobs, pool_size, episodes, timed_runs) <= 0:
        raise ReproError("overhead bench sizes must be positive")
    if arrival_rate <= 0:
        raise ReproError("arrival rate must be positive")

    trainer = OfflineTrainer(
        window_size=6,
        c_max=3,
        n_training_queues=4,
        seed=seed,
        dqn_overrides={
            "hidden": (64, 32),
            "warmup_transitions": 32,
            "batch_size": 16,
            "epsilon_decay_rate": 0.98,
        },
    )
    result = trainer.train(episodes=episodes)
    repository = result.repository.copy()
    profile_all_benchmarks(repository)
    pool = sorted(TRAINING_SET)[:pool_size]

    def make_selector() -> PolicySelector:
        optimizer = OnlineOptimizer(
            result.agent,
            repository,
            ActionCatalog(c_max=trainer.c_max),
            trainer.window_size,
            decision_cache=DecisionCache(),
        )
        return PolicySelector(
            co_scheduling=CoSchedulingPolicy(optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=1,
        )

    def drain(
        selector: PolicySelector,
        jobs: int,
        mode: str,
        lifecycle_path=None,
        checkpoint_interval: float | None = None,
    ):
        lifecycle = profile = None
        kwargs: dict = {}
        if mode != "off":
            profile = PhaseTimers(clock=clock)
            kwargs = dict(
                telemetry=Telemetry(),
                profile=profile,
                decision_clock=clock,
            )
            if mode == "full":
                lifecycle = LifecycleTracer(seed=seed, path=lifecycle_path)
                kwargs["lifecycle"] = lifecycle
        engine = FleetEngine(
            ClusterState.homogeneous(n_nodes),
            selector,
            window_size=trainer.window_size,
            **kwargs,
        )
        if mode != "off" and checkpoint_interval is not None:
            engine.schedule_checkpoints(checkpoint_interval)
        engine.attach_arrivals(PoissonArrivals(
            rate=arrival_rate, pool=pool, n_jobs=jobs, seed=seed + 1,
        ))
        t0 = clock()
        fleet_result = engine.run()
        wall = clock() - t0
        if lifecycle is not None:
            lifecycle.close()
        return fleet_result, max(wall, 1e-12), profile

    with tempfile.TemporaryDirectory() as tmp:
        sel_off = make_selector()
        sel_tel = make_selector()
        sel_full = make_selector()
        # warm every mode's decision cache, and learn the makespan the
        # checkpointed modes should frame at 1/32 of
        result_off, _, _ = drain(sel_off, warmup_jobs, "off")
        drain(sel_tel, warmup_jobs, "telemetry")
        drain(
            sel_full, warmup_jobs, "full",
            lifecycle_path=os.path.join(tmp, "warmup_lifecycle.jsonl"),
        )
        interval = max(
            result_off.makespan * (n_jobs / warmup_jobs) / 32.0, 1e-3
        )
        # interleave the timed repeats so machine drift (CPU frequency,
        # co-tenants) biases every mode equally, then keep best-of
        wall_off = wall_tel = wall_full = math.inf
        result_off = result_tel = result_full = None
        profile = None
        for _ in range(timed_runs):
            result_off, wall, _ = drain(sel_off, n_jobs, "off")
            wall_off = min(wall_off, wall)
            result_tel, wall, profile = drain(
                sel_tel, n_jobs, "telemetry", checkpoint_interval=interval,
            )
            wall_tel = min(wall_tel, wall)
            result_full, wall, _ = drain(
                sel_full, n_jobs, "full",
                lifecycle_path=os.path.join(tmp, "lifecycle.jsonl"),
                checkpoint_interval=interval,
            )
            wall_full = min(wall_full, wall)

    def simulated_stats(doc: dict) -> dict:
        return {
            k: v for k, v in doc.items()
            if not k.startswith("placement_decision") and k != "checkpoints"
        }

    reference = simulated_stats(result_off.stats.to_dict())
    identical = (
        simulated_stats(result_tel.stats.to_dict()) == reference
        and simulated_stats(result_full.stats.to_dict()) == reference
    )
    return {
        "overhead": {
            "n_nodes": n_nodes,
            "n_jobs": n_jobs,
            "warmup_jobs": warmup_jobs,
            "pool_size": pool_size,
            "arrival_rate": arrival_rate,
            "episodes": episodes,
            "timed_runs": timed_runs,
            "window_size": trainer.window_size,
            "wall_seconds_off": wall_off,
            "wall_seconds_telemetry": wall_tel,
            "wall_seconds_full": wall_full,
            "completions_per_min_off": result_off.stats.completed / wall_off * 60.0,
            "completions_per_min_telemetry": (
                result_tel.stats.completed / wall_tel * 60.0
            ),
            "throughput_ratio": wall_off / wall_tel,
            "lifecycle_ratio": wall_off / wall_full,
            "phases": profile.to_dict() if profile is not None else {},
            "identical_stats": bool(identical),
        },
    }


def compare_overhead_bench(
    candidate: dict, budget: float = OVERHEAD_BUDGET
) -> list[GateCheck]:
    """The telemetry-overhead gate — self-contained, no baseline doc.

    One ratio check (``overhead.throughput_ratio`` must stay at or
    above ``budget``) and one bool check (``overhead.identical_stats``:
    the fully-observed drain must not perturb simulated outcomes).
    """
    if not 0.0 < budget <= 1.0:
        raise ReproError("overhead budget must be in (0, 1]")
    ratio = float(_lookup(candidate, "overhead.throughput_ratio"))
    identical = bool(_lookup(candidate, "overhead.identical_stats"))
    return [
        GateCheck(
            key="overhead.throughput_ratio",
            baseline=budget,
            candidate=ratio,
            ratio=ratio / budget,
            regressed=ratio < budget,
        ),
        GateCheck(
            key="overhead.identical_stats",
            baseline=1.0,
            candidate=float(identical),
            ratio=1.0 if identical else 0.0,
            regressed=not identical,
        ),
    ]


#: job pool of the two-level placement runs: two long CI programs, two
#: MI, two short US — maximal spread in both pair affinity and solo
#: time, the two signals the placement level can exploit and the
#: class-blind baselines cannot
HIERARCHY_BENCH_POOL = (
    "hotspot3D", "lavaMD", "lud_A", "stream", "kmeans", "pathfinder",
)
