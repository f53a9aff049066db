"""Cluster-scale extension (paper Section VI).

The paper argues the node-local optimization carries over to clusters
by adding one more level of resource assignment — node/GPU selection —
on top of the hierarchical partitioning. This package implements that
extension:

* :mod:`repro.cluster.node` — a node hosting one or more simulated
  GPUs, each with its own wall clock;
* :mod:`repro.cluster.policy` — the policy-selection mechanism the
  paper sketches: co-scheduling for over-crowded queues, plain FCFS
  when the system is lightly loaded;
* :mod:`repro.cluster.fleet` — the dispatch loop: a discrete-event
  engine on the simulated clock (arrivals, window completions,
  requeues, reconfigurations, faults, checkpoints) that sends each
  window to the GPU that frees up first, with closed submissions or
  open-loop arrival processes, admission control and optional
  placement, from two GPUs to thousands of nodes.

Dispatch is failure-aware: attach a :class:`repro.faults.FaultInjector`
and the engine retries transient device / MIG-reconfiguration faults
with exponential backoff, degrades unconfigurable groups to solo runs,
re-queues crashed jobs at their crash time up to a retry cap, and falls
back to FCFS when the window policy raises.
"""

from repro.faults import FaultConfig, FaultInjector, FaultKind, RetryPolicy
from repro.cluster.node import ExecutionOutcome, GpuNode, ClusterState
from repro.cluster.policy import PolicySelector, FcfsPolicy, CoSchedulingPolicy
from repro.cluster.fleet import (
    AdmissionPolicy,
    AdmitAll,
    BoundedQueue,
    DispatchRecord,
    EventHeap,
    EventKind,
    FleetEngine,
    FleetResult,
    FleetSnapshot,
    FleetStats,
    TokenBucket,
)

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultKind",
    "RetryPolicy",
    "ExecutionOutcome",
    "GpuNode",
    "ClusterState",
    "PolicySelector",
    "FcfsPolicy",
    "CoSchedulingPolicy",
    "AdmissionPolicy",
    "AdmitAll",
    "BoundedQueue",
    "DispatchRecord",
    "EventHeap",
    "EventKind",
    "FleetEngine",
    "FleetResult",
    "FleetSnapshot",
    "FleetStats",
    "TokenBucket",
]
