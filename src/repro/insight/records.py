"""Decision flight recorder: structured per-decision records.

Every co-scheduling decision the trained agent takes — online through
:class:`~repro.core.optimizer.OnlineOptimizer` or during offline
training episodes — can be captured as a :class:`DecisionRecord`: the
window signature the agent saw, the chosen action and its dueling
value/advantage decomposition, the top-k alternative actions with their
Q-gaps, and the predicted vs. realized co-run times. One
:class:`WindowRecord` per window/episode summarizes the realized
schedule so the regret analyzer (:mod:`repro.insight.regret`) can
replay it against the oracle.

Capture is a *pure observer*: staging runs only network inference and
the analytic predictor (no RNG, no environment mutation), so a run with
a recorder attached is bitwise-identical to one without — the same
contract the telemetry facade keeps (DESIGN.md §9/§10).

Records round-trip losslessly through JSON lines
(:func:`write_decision_log` / :func:`read_decision_log`): JSON floats
serialize via shortest-repr, so ``from_dict(to_dict(r)) == r`` holds
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.gpu.partition import format_partition
from repro.obs.jsonl import iter_jsonl_objects

__all__ = [
    "AlternativeAction",
    "DecisionRecord",
    "WindowRecord",
    "DecisionRecorder",
    "WindowCapture",
    "write_decision_log",
    "read_decision_log",
]


@dataclass(frozen=True)
class AlternativeAction:
    """One runner-up template the agent could have picked instead."""

    action: int
    q_value: float
    q_gap: float  # best masked Q minus this action's Q (>= 0)

    def to_dict(self) -> dict:
        return {"action": self.action, "q_value": self.q_value,
                "q_gap": self.q_gap}

    @classmethod
    def from_dict(cls, d: dict) -> "AlternativeAction":
        return cls(action=int(d["action"]), q_value=float(d["q_value"]),
                   q_gap=float(d["q_gap"]))


@dataclass(frozen=True)
class DecisionRecord:
    """One agent decision: what was chosen, why, and what it cost.

    ``window`` is the window *as the agent saw it* (for the online path
    that is the profiled subset); ``chosen`` indexes into it. ``value``
    and ``advantage`` are the dueling decomposition ``Q = V + A -
    mean(A)`` of the chosen action (``V`` is 0.0 for a plain head).
    ``predicted_makespan`` is the analytic predictor's estimate for the
    committed group under its binding; ``realized_corun_time`` the
    simulated co-run result.
    """

    source: str                 # "online" | "train"
    seq: int                    # per-source window/episode sequence number
    step: int                   # decision index within the window
    window: tuple[str, ...]     # benchmark names the agent saw
    window_index: int           # env window index (0 for online)
    available: tuple[int, ...]  # schedulable window indices at decision time
    action: int
    concurrency: int
    partition: str              # hierarchical partition label
    chosen: tuple[int, ...]     # window indices bound to the template slots
    jobs: tuple[str, ...]       # benchmark names of the chosen jobs
    q_chosen: float
    value: float                # dueling V(s)
    advantage: float            # dueling A(s, a_chosen)
    alternatives: tuple[AlternativeAction, ...]  # top-k by masked Q
    greedy_action: int          # argmax of the masked Q row
    explored: bool              # action != greedy_action
    epsilon: float              # exploration rate at decision time
    predicted_makespan: float
    realized_corun_time: float
    solo_run_time: float        # sum of members' solo times
    reward: float | None        # training reward (None online)

    def to_dict(self) -> dict:
        return {
            "type": "decision",
            "source": self.source,
            "seq": self.seq,
            "step": self.step,
            "window": list(self.window),
            "window_index": self.window_index,
            "available": list(self.available),
            "action": self.action,
            "concurrency": self.concurrency,
            "partition": self.partition,
            "chosen": list(self.chosen),
            "jobs": list(self.jobs),
            "q_chosen": self.q_chosen,
            "value": self.value,
            "advantage": self.advantage,
            "alternatives": [a.to_dict() for a in self.alternatives],
            "greedy_action": self.greedy_action,
            "explored": self.explored,
            "epsilon": self.epsilon,
            "predicted_makespan": self.predicted_makespan,
            "realized_corun_time": self.realized_corun_time,
            "solo_run_time": self.solo_run_time,
            "reward": self.reward,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionRecord":
        return cls(
            source=str(d["source"]),
            seq=int(d["seq"]),
            step=int(d["step"]),
            window=tuple(str(n) for n in d["window"]),
            window_index=int(d["window_index"]),
            available=tuple(int(i) for i in d["available"]),
            action=int(d["action"]),
            concurrency=int(d["concurrency"]),
            partition=str(d["partition"]),
            chosen=tuple(int(i) for i in d["chosen"]),
            jobs=tuple(str(n) for n in d["jobs"]),
            q_chosen=float(d["q_chosen"]),
            value=float(d["value"]),
            advantage=float(d["advantage"]),
            alternatives=tuple(
                AlternativeAction.from_dict(a) for a in d["alternatives"]
            ),
            greedy_action=int(d["greedy_action"]),
            explored=bool(d["explored"]),
            epsilon=float(d["epsilon"]),
            predicted_makespan=float(d["predicted_makespan"]),
            realized_corun_time=float(d["realized_corun_time"]),
            solo_run_time=float(d["solo_run_time"]),
            reward=None if d["reward"] is None else float(d["reward"]),
        )

    @property
    def q_gap_to_greedy(self) -> float:
        """How much masked Q the agent left on the table (0 if greedy)."""
        best = max(
            (a.q_value for a in self.alternatives), default=self.q_chosen
        )
        return max(best - self.q_chosen, 0.0)

    @property
    def prediction_error(self) -> float:
        """Realized minus predicted group makespan."""
        return self.realized_corun_time - self.predicted_makespan


@dataclass(frozen=True)
class WindowRecord:
    """Realized summary of one optimized window / training episode.

    ``window`` here is the *full* window (including jobs the online
    path drained solo while profiling), so the regret analyzer replays
    the same problem instance the oracle would have been handed.
    """

    source: str
    seq: int
    window: tuple[str, ...]
    method: str
    c_max: int
    window_size: int
    total_time: float
    solo_time: float
    throughput_gain: float
    n_decisions: int
    n_unprofiled: int
    decision_seconds: float

    def to_dict(self) -> dict:
        return {
            "type": "window",
            "source": self.source,
            "seq": self.seq,
            "window": list(self.window),
            "method": self.method,
            "c_max": self.c_max,
            "window_size": self.window_size,
            "total_time": self.total_time,
            "solo_time": self.solo_time,
            "throughput_gain": self.throughput_gain,
            "n_decisions": self.n_decisions,
            "n_unprofiled": self.n_unprofiled,
            "decision_seconds": self.decision_seconds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WindowRecord":
        return cls(
            source=str(d["source"]),
            seq=int(d["seq"]),
            window=tuple(str(n) for n in d["window"]),
            method=str(d["method"]),
            c_max=int(d["c_max"]),
            window_size=int(d["window_size"]),
            total_time=float(d["total_time"]),
            solo_time=float(d["solo_time"]),
            throughput_gain=float(d["throughput_gain"]),
            n_decisions=int(d["n_decisions"]),
            n_unprofiled=int(d["n_unprofiled"]),
            decision_seconds=float(d["decision_seconds"]),
        )


class DecisionRecorder:
    """Accumulates decision/window records in capture order.

    Hand one instance to :class:`~repro.core.optimizer.OnlineOptimizer`
    and/or :class:`~repro.core.trainer.OfflineTrainer`; read the
    ``decisions``/``windows`` lists afterwards or persist everything
    with :func:`write_decision_log`.
    """

    def __init__(self, top_k: int = 5):
        if top_k < 1:
            raise ReproError("top_k must be at least 1")
        self.top_k = top_k
        self.decisions: list[DecisionRecord] = []
        self.windows: list[WindowRecord] = []
        self._records: list = []  # both kinds, capture order
        self._seq: dict[str, int] = {}

    def begin(self, source: str) -> int:
        """Allocate the next sequence number for ``source``."""
        seq = self._seq.get(source, 0)
        self._seq[source] = seq + 1
        return seq

    def record_decision(self, record: DecisionRecord) -> None:
        self.decisions.append(record)
        self._records.append(record)

    def record_window(self, record: WindowRecord) -> None:
        self.windows.append(record)
        self._records.append(record)

    def records(self) -> list:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class WindowCapture:
    """Stages per-step data during one window and emits final records.

    Usage (inside the optimizer/trainer loop)::

        cap = WindowCapture(recorder, "online", agent, env)
        ...
        cap.stage(obs, mask, action)          # before env.step(action)
        obs, reward, ... = env.step(action)
        cap.set_reward(reward)                # training path only
        ...
        cap.finalize(env_schedule, final_schedule, ...)

    ``stage`` must run *before* ``env.step`` so the availability
    snapshot matches what the agent observed. Staging is pure compute
    (one extra network inference); realized times and the predictor
    estimate are filled in at :meth:`finalize` by walking the terminal
    schedule — each environment step appends exactly one group, in
    decision order, so ``groups[i]`` belongs to staged decision ``i``.
    """

    def __init__(self, recorder: DecisionRecorder, source: str, agent, env):
        self.recorder = recorder
        self.source = source
        self.agent = agent
        self.env = env
        self.seq = recorder.begin(source)
        self._staged: list[dict] = []

    def stage(
        self, obs: np.ndarray, mask: np.ndarray, action: int,
        epsilon: float = 0.0,
    ) -> None:
        q, v, adv = self.agent.q_decomposition(obs)
        masked = np.where(np.asarray(mask, dtype=bool), q, -np.inf)
        greedy = int(np.argmax(masked))
        best = float(masked[greedy])
        order = np.argsort(masked)[::-1]
        alts = tuple(
            AlternativeAction(
                int(a), float(q[int(a)]), best - float(q[int(a)])
            )
            for a in order[: self.recorder.top_k]
            if mask[int(a)]
        )
        self._staged.append({
            "step": len(self._staged),
            "available": tuple(
                i for i, free in enumerate(self.env.availability) if free
            ),
            "action": int(action),
            "q_chosen": float(q[int(action)]),
            "value": v,
            "advantage": float(adv[int(action)]),
            "alternatives": alts,
            "greedy_action": greedy,
            "epsilon": float(epsilon),
            "reward": None,
        })

    def set_reward(self, reward: float) -> None:
        self._staged[-1]["reward"] = float(reward)

    def finalize(
        self,
        env_schedule,
        final_schedule,
        *,
        full_window: list,
        method: str,
        c_max: int,
        window_size: int,
        n_unprofiled: int = 0,
        decision_seconds: float = 0.0,
    ) -> None:
        """Emit one DecisionRecord per staged step plus the WindowRecord.

        ``env_schedule`` is the environment's terminal schedule (groups
        aligned 1:1 with staged decisions); ``final_schedule`` the
        schedule actually executed (after gain enforcement / solo
        drains), whose totals go into the window summary.
        """
        env = self.env
        jobs = env.window_jobs
        profiles = env.job_profiles
        idx_of = {j.job_id: i for i, j in enumerate(jobs)}
        window_names = tuple(j.benchmark_name for j in jobs)
        groups = env_schedule.groups
        if len(groups) < len(self._staged):
            raise ReproError(
                f"schedule has {len(groups)} groups for "
                f"{len(self._staged)} staged decisions"
            )
        for staged, group in zip(self._staged, groups):
            chosen = tuple(idx_of[j.job_id] for j in group.jobs)
            predicted = env.predictor.predict_group(
                [profiles[i] for i in chosen], group.partition
            ).makespan
            self.recorder.record_decision(DecisionRecord(
                source=self.source,
                seq=self.seq,
                step=staged["step"],
                window=window_names,
                window_index=env.window_index,
                available=staged["available"],
                action=staged["action"],
                concurrency=group.concurrency,
                partition=format_partition(group.partition),
                chosen=chosen,
                jobs=tuple(j.benchmark_name for j in group.jobs),
                q_chosen=staged["q_chosen"],
                value=staged["value"],
                advantage=staged["advantage"],
                alternatives=staged["alternatives"],
                greedy_action=staged["greedy_action"],
                explored=staged["action"] != staged["greedy_action"],
                epsilon=staged["epsilon"],
                predicted_makespan=float(predicted),
                realized_corun_time=group.corun_time,
                solo_run_time=group.solo_run_time,
                reward=staged["reward"],
            ))
        self.recorder.record_window(WindowRecord(
            source=self.source,
            seq=self.seq,
            window=tuple(j.benchmark_name for j in full_window),
            method=method,
            c_max=c_max,
            window_size=window_size,
            total_time=final_schedule.total_time,
            solo_time=final_schedule.total_solo_time,
            throughput_gain=final_schedule.throughput_gain,
            n_decisions=len(self._staged),
            n_unprofiled=n_unprofiled,
            decision_seconds=decision_seconds,
        ))

    def finalize_empty(
        self,
        final_schedule,
        *,
        full_window: list,
        method: str,
        c_max: int,
        window_size: int,
        n_unprofiled: int = 0,
        decision_seconds: float = 0.0,
    ) -> None:
        """Window summary for a pass that took no agent decision
        (everything drained solo: single profiled job, or all jobs
        unprofiled)."""
        self.recorder.record_window(WindowRecord(
            source=self.source,
            seq=self.seq,
            window=tuple(j.benchmark_name for j in full_window),
            method=method,
            c_max=c_max,
            window_size=window_size,
            total_time=final_schedule.total_time,
            solo_time=final_schedule.total_solo_time,
            throughput_gain=final_schedule.throughput_gain,
            n_decisions=0,
            n_unprofiled=n_unprofiled,
            decision_seconds=decision_seconds,
        ))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def write_decision_log(recorder: DecisionRecorder, path) -> int:
    """Write every captured record to ``path`` as JSON lines.

    Records keep capture order; each line carries a ``"type"`` tag
    (``decision`` / ``window``). Returns the number of lines written.
    """
    import json

    n = 0
    with open(path, "w") as fh:
        for record in recorder.records():
            fh.write(json.dumps(record.to_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_decision_log(
    path,
) -> tuple[list[DecisionRecord], list[WindowRecord]]:
    """Load a decision log written by :func:`write_decision_log`.

    A line that is not a JSON object, or carries an unknown record
    type, raises :class:`ReproError` naming ``path:line``.
    """
    decisions: list[DecisionRecord] = []
    windows: list[WindowRecord] = []
    with open(path) as fh:
        for line_no, d in iter_jsonl_objects(fh, path):
            kind = d.get("type")
            if kind == "decision":
                decisions.append(DecisionRecord.from_dict(d))
            elif kind == "window":
                windows.append(WindowRecord.from_dict(d))
            else:
                raise ReproError(
                    f"{path}:{line_no}: unknown record type {kind!r}"
                )
    return decisions, windows
