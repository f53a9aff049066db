"""Performance model: solo-run roofline + co-run contention simulation.

This package plays the role the physical A100 plays in the paper: given
a hierarchical partition (:class:`repro.gpu.partition.PartitionTree`)
and the jobs bound to its slots, it produces co-run execution times.

Structure:

* :mod:`repro.perfmodel.roofline` — solo-run scaling of one kernel under
  a (compute fraction, bandwidth fraction) allocation.
* :mod:`repro.perfmodel.interference` — bandwidth sharing and
  interference pressure inside one memory domain (one MIG GI, or the
  whole device without MIG).
* :mod:`repro.perfmodel.corun` — the staged co-run simulator producing
  per-job times, makespans, and relative throughput.
* :mod:`repro.perfmodel.calibration` — the Section III consistency
  checks tying the model to the paper's observations.
"""

from repro.perfmodel.roofline import solo_time, allocation_time, speedup_curve
from repro.perfmodel.interference import DomainShare, solve_domain
from repro.perfmodel.corun import (
    CoRunResult,
    simulate_corun,
    corun_time,
    solo_run_time,
    relative_throughput,
)
from repro.perfmodel.cache import (
    CacheStats,
    CoRunCache,
    cached_simulate_corun,
    corun_cache,
    corun_cache_disabled,
    corun_caching_enabled,
    corun_signature,
    reset_corun_cache,
)

__all__ = [
    "solo_time",
    "allocation_time",
    "speedup_curve",
    "DomainShare",
    "solve_domain",
    "CoRunResult",
    "simulate_corun",
    "corun_time",
    "solo_run_time",
    "relative_throughput",
    "CacheStats",
    "CoRunCache",
    "cached_simulate_corun",
    "corun_cache",
    "corun_cache_disabled",
    "corun_caching_enabled",
    "corun_signature",
    "reset_corun_cache",
]
