"""Timing spans around the public functions of each program layer.

The traced run patches the functions listed in :data:`LAYER_TARGETS`
(class methods, or a name as bound in the module that calls it) with a
wrapper that records one span per call, and restores the originals
afterwards. Nothing under ``src/`` knows about it.

A span's *self time* is its duration minus the durations of the spans
nested directly inside it, so the self times of all spans add up to the
summed duration of the root spans (spans with no traced caller).

Very frequent leaf calls (``aggregate=True`` targets: the event heap
and the co-run cache) are not stored one by one: their count and time
are folded into the parent span's record, which bounds memory on
fleet drains with hundreds of thousands of heap operations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable

__all__ = ["LAYER_TARGETS", "LAYERS", "Tracer", "Patches"]

#: ``(layer, "module" or "module:Class", attribute, aggregate)`` — every
#: function the traced run wraps. Module attributes are the names as
#: bound where they are called (``repro.core.env`` calls
#: ``linear_sum_assignment`` and the binders by their imported names).
LAYER_TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("core.trainer.train", "repro.core.trainer:OfflineTrainer", "train", False),
    ("rl.dqn.train_step", "repro.rl.dqn:DuelingDoubleDQNAgent", "train_step", False),
    ("rl.replay", "repro.rl.replay:ReplayBuffer", "push", False),
    ("rl.replay", "repro.rl.replay:ReplayBuffer", "sample", False),
    ("rl.dqn.act", "repro.rl.dqn:DuelingDoubleDQNAgent", "act", False),
    ("rl.dqn.q_forward", "repro.rl.dqn:DuelingDoubleDQNAgent", "q_values", False),
    ("rl.dqn.q_forward", "repro.rl.dqn:DuelingDoubleDQNAgent", "q_values_many", False),
    ("core.assignment", "repro.core.env", "assign_optimal", False),
    ("core.assignment", "repro.core.env", "assign_conflict_aware", False),
    ("core.assignment", "repro.core.env", "linear_sum_assignment", False),
    ("core.predictor.predict_group", "repro.core.predictor:AnalyticPredictor", "predict_group", False),
    ("core.env", "repro.core.env:CoSchedulingEnv", "reset", False),
    ("core.env", "repro.core.env:CoSchedulingEnv", "step", False),
    ("perfmodel.cache.corun", "repro.core.problem", "cached_simulate_corun", True),
    ("core.optimizer.optimize_many", "repro.core.optimizer:OnlineOptimizer", "optimize_many", False),
    ("core.serving.materialize", "repro.core.serving:SchedulePlan", "materialize", False),
    ("cluster.policy.schedule_batch", "repro.cluster.policy:PolicySelector", "schedule_batch", False),
    ("cluster.node.execute_schedule_fast", "repro.cluster.node:GpuNode", "execute_schedule_fast", False),
    ("cluster.fleet.event_heap", "repro.cluster.fleet:EventHeap", "push", True),
    ("cluster.fleet.event_heap", "repro.cluster.fleet:EventHeap", "pop", True),
    ("cluster.fleet.run", "repro.cluster.fleet:FleetEngine", "run", False),
    ("hierarchy.placement.place", "repro.hierarchy.placement:PlacementAgent", "place", False),
    ("hierarchy.features", "repro.hierarchy.features:PlacementObservation", "observe", False),
    ("hierarchy.features", "repro.hierarchy.features:PlacementObservation", "candidate_mask", False),
)

#: layer names in table order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in LAYER_TARGETS))


class Tracer:
    """Records nested spans and per-layer call counts and self times.

    ``trace_id`` is set by the workload at each timed operation
    (episode, ``optimize_many`` batch or drain); every span started
    while it holds a value carries it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.trace_id = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.root_s = 0.0
        # (trace, span, parent, layer, start, end, self_s, aggregated children)
        self.spans: list[tuple] = []
        # env step-decision memos seen by traced resets, by identity
        self.memos: dict[int, Any] = {}
        self._stack: list[list] = []
        self._next_span = 0

    def call(self, layer: str, aggregate: bool, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        # [span id, seconds covered by children, aggregated children, trace]
        frame = [self._next_span, 0.0, None, self.trace_id]
        self._next_span += 1
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            own = duration - frame[1]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            if parent is None:
                self.root_s += duration
            else:
                parent[1] += duration
            if aggregate and parent is not None:
                folded = parent[2]
                if folded is None:
                    folded = parent[2] = {}
                entry = folded.setdefault(layer, [0, 0.0])
                entry[0] += 1
                entry[1] += duration
            else:
                self.spans.append((
                    frame[3], frame[0], None if parent is None else parent[0],
                    layer, start, end, own, frame[2],
                ))

    def write_spans(self, path) -> None:
        """One JSON array per span: trace, span, parent, layer, start,
        end, self seconds, aggregated children ``{layer: [calls, s]}``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _resolve(where: str):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Patches:
    """Installs and removes the tracing wrappers of :data:`LAYER_TARGETS`.

    ``install`` and ``uninstall`` bracket each traced operation, so
    untraced operations in the same process run the original functions.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.originals: dict[tuple[int, str], tuple[Any, str, Any]] = {}
        self._installed = False

    def install(self) -> None:
        if self._installed:
            return
        for layer, where, attr, aggregate in LAYER_TARGETS:
            owner = _resolve(where)
            original = vars(owner)[attr]
            self.originals.setdefault((id(owner), attr), (owner, attr, original))
            setattr(owner, attr, self._wrap(layer, attr, aggregate, original))
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original in self.originals.values():
            setattr(owner, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """Whether every patched attribute holds its original again."""
        return all(
            vars(owner)[attr] is original
            for owner, attr, original in self.originals.values()
        )

    def _wrap(self, layer: str, attr: str, aggregate: bool, fn):
        call = self.tracer.call
        if layer == "core.env" and attr == "reset":
            # the env's step-decision memo is only reachable from the env;
            # collect it here for core.env.memo_hit_ratio
            memos = self.tracer.memos

            @functools.wraps(fn)
            def traced_reset(env, *args, **kwargs):
                memos[id(env.decision_cache)] = env.decision_cache
                return call(layer, aggregate, fn, (env, *args), kwargs)

            return traced_reset

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer, aggregate, fn, args, kwargs)

        return traced
