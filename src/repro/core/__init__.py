"""The paper's primary contribution: RL co-scheduling + hierarchical partitioning.

Pipeline (paper Fig. 7):

1. **Offline profiling** — :mod:`repro.profiling` fills a
   :class:`~repro.profiling.repository.ProfileRepository`.
2. **Offline training** — :class:`~repro.core.trainer.OfflineTrainer`
   trains the dueling double DQN on random job queues against one
   :class:`~repro.core.env.CoSchedulingEnv` over the simulated device,
   using the Table VI rewards.
3. **Online optimization** — :class:`~repro.core.optimizer.OnlineOptimizer`
   applies the frozen agent to a queue, emitting the co-scheduling
   groups ``L_JS`` and partitions ``L_R`` of the Section IV-A problem.

Baselines (Time Sharing, MIG Only, MPS Only, MIG+MPS Default) live in
:mod:`repro.core.baselines`; the evaluation metrics (throughput,
AppSlowdown, Fairness) in :mod:`repro.core.metrics`.
"""

from repro.core.rewards import RewardConfig, intermediate_reward, final_reward
from repro.core.features import FeatureExtractor
from repro.core.actions import ActionCatalog
from repro.core.assignment import assign_optimal, assign_greedy, assign_exhaustive
from repro.core.problem import ScheduledGroup, Schedule, SchedulingProblem
from repro.core.env import CoSchedulingEnv
from repro.core.trainer import OfflineTrainer, TrainingResult
from repro.core.optimizer import OnlineOptimizer
from repro.core.baselines import (
    TimeSharingScheduler,
    MigOnlyScheduler,
    MpsOnlyScheduler,
    MigMpsDefaultScheduler,
)
from repro.core.oracle import OracleScheduler
from repro.core.metrics import ScheduleMetrics, evaluate_schedule

__all__ = [
    "RewardConfig",
    "intermediate_reward",
    "final_reward",
    "FeatureExtractor",
    "ActionCatalog",
    "assign_optimal",
    "assign_greedy",
    "assign_exhaustive",
    "ScheduledGroup",
    "Schedule",
    "SchedulingProblem",
    "CoSchedulingEnv",
    "OfflineTrainer",
    "TrainingResult",
    "OnlineOptimizer",
    "TimeSharingScheduler",
    "MigOnlyScheduler",
    "MpsOnlyScheduler",
    "MigMpsDefaultScheduler",
    "OracleScheduler",
    "ScheduleMetrics",
    "evaluate_schedule",
]
