"""Two-level placement vs. single-level baselines (EXPERIMENTS.md).

Trains the two-level policy with :class:`~repro.hierarchy.JointTrainer`
(node-level DDQN offline, then the placement DQN on prioritized-replay
fleet rollouts) at 100 nodes, then drains one held-out Poisson stream
under the trained agent and the ``least-loaded`` / ``round-robin`` /
``random`` baselines. All four drains share the same node-level
selector, so the comparison isolates the placement level. It prints the
rows of EXPERIMENTS.md's two-level table and asserts:

* every arrival completes under every policy;
* the agent's makespan beats the best baseline's;
* the agent's Jain fairness is at least least-loaded's minus 0.01;
* energy accounting is live (positive) for every policy.

The simulation is deterministic given the seeds, but BLAS thread count
moves the trained weights: pin one thread
(``OPENBLAS_NUM_THREADS=1``) to reproduce the recorded table. With
placement off the fleet engine stays bitwise-identical to the
``ClusterScheduler`` oracle; ``tests/test_hierarchy.py::TestNeutrality``
checks that. Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_two_level_placement.py -q -s
"""

from __future__ import annotations

import pytest

from repro.hierarchy import (
    JointTrainer,
    LeastLoadedPlacement,
    RandomPlacement,
    RoundRobinPlacement,
    evaluate_placement,
)
from repro.insight.benchgate import HIERARCHY_BENCH_POOL
from repro.power.model import PowerModel
from repro.workloads.arrivals import PoissonArrivals

pytestmark = pytest.mark.hierarchy

N_NODES = 100
EVAL_JOBS = 2000
ARRIVAL_RATE = 40.0
SEED = 7


def test_two_level_beats_single_level():
    pool = list(HIERARCHY_BENCH_POOL)
    trainer = JointTrainer(
        n_nodes=N_NODES,
        window_size=6,
        c_max=3,
        seed=SEED,
        jobs_per_episode=300,
        arrival_rate=ARRIVAL_RATE,
        pool=pool,
        node_episodes=12,
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
    joint = trainer.train(episodes=10)

    power = PowerModel()
    results = {}
    for policy in (
        joint.placement,
        LeastLoadedPlacement(),
        RoundRobinPlacement(),
        RandomPlacement(SEED),
    ):
        # held out: no training episode draws this seed
        arrivals = PoissonArrivals(
            rate=ARRIVAL_RATE, pool=pool, n_jobs=EVAL_JOBS, seed=SEED + 17
        )
        results[policy.name] = evaluate_placement(
            policy,
            trainer.selector,
            N_NODES,
            arrivals,
            window_size=trainer.window_size,
            power_model=power,
        )

    print(
        f"\n=== two-level placement: {N_NODES} nodes, {EVAL_JOBS:,} "
        f"arrivals at {ARRIVAL_RATE:g}/s ==="
    )
    print("| placement | makespan [s] | Jain fairness | utilization "
          "| mean wait [s] | joules/job |")
    for name, fr in results.items():
        print(
            f"| {name} | {fr.makespan:.1f} | {fr.fairness_jain:.3f} "
            f"| {fr.utilization:.3f} | {fr.stats.mean_wait:.1f} "
            f"| {fr.joules_per_job:.0f} |"
        )

    for fr in results.values():
        assert fr.stats.completed == EVAL_JOBS
        assert fr.energy_joules > 0.0

    agent = results.pop("agent")
    least_loaded = results["least-loaded"]
    best = min(results.values(), key=lambda fr: fr.makespan)
    assert agent.makespan < best.makespan
    assert agent.fairness_jain >= least_loaded.fairness_jain - 0.01
