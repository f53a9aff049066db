#!/usr/bin/env python3
"""Trace replay through the fleet engine.

Scenario: a day in the life of a 2-GPU node under a bursty submission
trace. Jobs arrive over time (doubly-stochastic Poisson arrivals with
per-user program affinities); the engine dispatches windows of at least
two jobs to free GPUs, co-scheduling when the queue is crowded and
falling back to FCFS when it is not — the policy-selection mechanism of
the paper's Section VI. The same trace is replayed under always-FCFS
for comparison.

Run:  python examples/batch_system_replay.py [episodes]
"""

import sys

from repro import ActionCatalog, MixCategory, OfflineTrainer, OnlineOptimizer
from repro.cluster import (
    ClusterState,
    CoSchedulingPolicy,
    FcfsPolicy,
    FleetEngine,
    PolicySelector,
)
from repro.core.evaluation import profile_all_benchmarks
from repro.workloads.arrivals import TraceArrivals
from repro.workloads.traces import generate_trace

EPISODES = int(sys.argv[1]) if len(sys.argv) > 1 else 300
N_JOBS = 48


def run_trace(optimizer, crowding_threshold: int) -> dict:
    trace = generate_trace(
        n_jobs=N_JOBS,
        mean_interarrival=2.0,
        category=MixCategory.BALANCED,
        burstiness=1.0,
        seed=99,
    )
    selector = PolicySelector(
        co_scheduling=CoSchedulingPolicy(optimizer),
        fcfs=FcfsPolicy(),
        crowding_threshold=crowding_threshold,
    )
    engine = FleetEngine(
        ClusterState.homogeneous(2), selector, window_size=12, min_batch=2
    )
    # event-driven replay: each trace submission is an arrival event
    engine.attach_arrivals(TraceArrivals(trace))
    engine.run()
    return engine.summary()


def main() -> None:
    print(f"training the node-local agent ({EPISODES} episodes) ...")
    trainer = OfflineTrainer(window_size=12, c_max=4, seed=0)
    result = trainer.train(episodes=EPISODES)
    profile_all_benchmarks(result.repository)
    optimizer = OnlineOptimizer(
        result.agent, result.repository, ActionCatalog(c_max=4), 12
    )

    print(f"replaying a {N_JOBS}-job bursty trace on 2 GPUs ...\n")
    adaptive = run_trace(optimizer, crowding_threshold=3)
    fcfs_only = run_trace(optimizer, crowding_threshold=10**9)

    print(f"{'':<22s} {'adaptive policy':>16s} {'FCFS only':>12s}")
    for key in ("completed", "mean_wait", "mean_turnaround", "makespan"):
        a, f = adaptive[key], fcfs_only[key]
        if isinstance(a, float):
            print(f"{key:<22s} {a:16.1f} {f:12.1f}")
        else:
            print(f"{key:<22s} {a:16d} {f:12d}")
    print(
        f"\nturnaround improvement from adaptive co-scheduling: "
        f"x{fcfs_only['mean_turnaround'] / adaptive['mean_turnaround']:.2f}"
    )


if __name__ == "__main__":
    main()
