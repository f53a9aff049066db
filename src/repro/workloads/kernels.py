"""Analytic kernel models: the ground truth behind the simulated GPU.

Each benchmark program is reduced to the quantities that decide its
behaviour under compute/bandwidth partitioning:

``t_compute``
    seconds of compute-bound work when run solo on the full device.
``t_memory``
    seconds of bandwidth-bound work when run solo on the full device
    (i.e. the kernel's DRAM traffic divided by its solo achieved
    bandwidth).
``parallel_fraction``
    Amdahl fraction of the compute work that scales with the SM share.
``saturation_fraction``
    the device fraction at which the kernel's parallelism saturates:
    above it, extra SMs buy nothing; below it, the Amdahl law applies
    to the share *relative to the knee*. Unscalable (US) programs have
    a knee near one GPC (so a 1-GPC private slice is nearly free but a
    5% MPS share is not), scalable kernels a knee at 1.0.
``bw_demand``
    fraction of the device's peak DRAM bandwidth the kernel drives when
    unconstrained (its achieved bandwidth / peak). A stream-like kernel
    approaches 0.9+; latency-bound kernels sit far lower.
``interference_sensitivity``
    extra memory-time inflation per unit of co-runner bandwidth pressure
    in the same memory domain (LLC thrash, row-buffer conflicts). This
    is what MIG's physical isolation removes and MPS cannot (paper
    Section III-B, Fig. 4).
``overlap``
    fraction of the shorter of (compute, memory) phases hidden under the
    longer one; modern GPUs overlap aggressively, so this defaults high.

The model's separation of concerns mirrors the paper's: the *profiles*
(Table III counters, produced by :mod:`repro.profiling`) are what the
scheduler sees; the kernel model itself is only visible to the simulated
device, playing the role of the physical hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["KernelModel"]


@dataclass(frozen=True)
class KernelModel:
    """Ground-truth performance description of one benchmark program."""

    name: str
    t_compute: float
    t_memory: float
    parallel_fraction: float
    bw_demand: float
    interference_sensitivity: float
    saturation_fraction: float = 1.0
    overlap: float = 0.8
    # Occupancy/shape statistics used only to synthesize profile counters.
    grid_size: int = 1 << 16
    registers_per_thread: int = 40
    waves_per_sm: float = 8.0
    achieved_warps_per_sm: float = 40.0
    l1_hit_rate: float = 0.6
    l2_hit_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.t_compute < 0 or self.t_memory < 0:
            raise ConfigurationError(f"{self.name}: phase times must be >= 0")
        if self.t_compute == 0 and self.t_memory == 0:
            raise ConfigurationError(f"{self.name}: kernel does no work")
        if not 0.0 <= self.parallel_fraction < 1.0:
            raise ConfigurationError(
                f"{self.name}: parallel fraction must be in [0, 1)"
            )
        if not 0.0 < self.saturation_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: saturation fraction must be in (0, 1]"
            )
        if not 0.0 < self.bw_demand <= 1.0:
            raise ConfigurationError(f"{self.name}: bw demand must be in (0, 1]")
        if self.interference_sensitivity < 0:
            raise ConfigurationError(
                f"{self.name}: interference sensitivity must be >= 0"
            )
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigurationError(f"{self.name}: overlap must be in [0, 1]")

    # ------------------------------------------------------------------
    # solo-run characteristics (full device)
    # ------------------------------------------------------------------
    @property
    def solo_time(self) -> float:
        """Solo execution time on the full device.

        Compute and memory phases overlap by ``overlap`` of the shorter
        phase: ``T = max + (1 - overlap) * min``.
        """
        hi = max(self.t_compute, self.t_memory)
        lo = min(self.t_compute, self.t_memory)
        return hi + (1.0 - self.overlap) * lo

    @property
    def compute_duty(self) -> float:
        """Fraction of the solo run during which SMs do compute work."""
        return min(1.0, self.t_compute / self.solo_time)

    @property
    def memory_duty(self) -> float:
        """Fraction of the solo run during which DRAM is being driven."""
        return min(1.0, self.t_memory / self.solo_time)

    @property
    def avg_dram_utilization(self) -> float:
        """Average DRAM bandwidth utilization over the solo run — this
        is what Nsight's 'Memory [%]' reports at kernel granularity."""
        return self.bw_demand * self.memory_duty

    def compute_scale(self, compute_fraction: float) -> float:
        """Amdahl inflation of the compute phase on a partial SM share.

        ``compute_fraction`` is the job's share of full-device compute
        (MIG slices x MPS percentage). Returns the multiplier on
        ``t_compute`` (1.0 at or above the saturation knee, larger
        below it): Amdahl's law applied to the share normalized by the
        knee, so an unscalable kernel with a 1-GPC knee is unharmed by
        a 1-GPC slice but slows once squeezed below it.
        """
        if not 0.0 < compute_fraction <= 1.0 + 1e-9:
            raise ConfigurationError(
                f"compute fraction must be in (0, 1]; got {compute_fraction}"
            )
        f = self.parallel_fraction
        effective = min(compute_fraction / self.saturation_fraction, 1.0)
        return (1.0 - f) + f / effective

    def memory_scale(self, bandwidth_fraction: float) -> float:
        """Inflation of the memory phase given an available bandwidth
        fraction (before interference)."""
        if bandwidth_fraction <= 0:
            raise ConfigurationError("bandwidth fraction must be positive")
        achieved = min(self.bw_demand, bandwidth_fraction)
        return self.bw_demand / achieved

    def execution_time(
        self,
        compute_fraction: float,
        bandwidth_fraction: float,
        interference_pressure: float = 0.0,
        compute_inflation: float = 1.0,
    ) -> float:
        """Execution time under a resource allocation.

        ``interference_pressure`` is the summed bandwidth demand of
        co-runners sharing this job's memory domain (0 when the domain
        is private). It inflates the memory phase by
        ``1 + sensitivity * pressure``. ``compute_inflation`` scales the
        compute phase for SM-level crowding (MPS clients sharing one
        compute instance); 1.0 when the job owns its CI.
        """
        if compute_inflation < 1.0:
            raise ConfigurationError("compute inflation cannot be below 1")
        tc = self.t_compute * self.compute_scale(compute_fraction) * compute_inflation
        tm = (
            self.t_memory
            * self.memory_scale(bandwidth_fraction)
            * (1.0 + self.interference_sensitivity * max(0.0, interference_pressure))
        )
        hi, lo = (tc, tm) if tc >= tm else (tm, tc)
        return hi + (1.0 - self.overlap) * lo
