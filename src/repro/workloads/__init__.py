"""Benchmark workload models (Table IV of the paper).

The paper evaluates with the Rodinia suite, a CUDA stream benchmark, a
random-access benchmark, and Quicksilver (CORAL) variants. Since no GPU
exists in this environment, each program is modelled analytically by a
:class:`~repro.workloads.kernels.KernelModel` whose parameters (compute
vs. memory time, Amdahl parallel fraction, bandwidth demand,
interference sensitivity) were chosen so the paper's classification
procedure reproduces Table IV exactly (verified in the test suite).
Every simulated result derives from these models; nothing in the
package executes a real kernel.
"""

from repro.workloads.kernels import KernelModel
from repro.workloads.suite import (
    BENCHMARKS,
    TRAINING_SET,
    UNSEEN_SET,
    benchmark,
    benchmark_names,
    benchmarks_in_class,
)
from repro.workloads.jobs import Job, JobQueue
from repro.workloads.generator import (
    MixCategory,
    QueueGenerator,
    paper_queues,
)
from repro.workloads.arrivals import (
    DiurnalBurstArrivals,
    PoissonArrivals,
    TraceArrivals,
)

__all__ = [
    "KernelModel",
    "BENCHMARKS",
    "TRAINING_SET",
    "UNSEEN_SET",
    "benchmark",
    "benchmark_names",
    "benchmarks_in_class",
    "Job",
    "JobQueue",
    "MixCategory",
    "QueueGenerator",
    "paper_queues",
    "DiurnalBurstArrivals",
    "PoissonArrivals",
    "TraceArrivals",
]
