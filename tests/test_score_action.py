"""``CoSchedulingEnv.score_action``: the online rerank's scoring path.

The optimizer reranks its top-k Q templates by the predicted throughput
gain of the binding the environment would commit. These tests pin that
the fast path (the window's cached tables) scores exactly as the
reference binder plus ``AnalyticPredictor.predict_group`` do, that the
serving paths no longer run the reference binder at all, and that a
step reuses the binding its rerank computed.
"""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.core import assignment as assignment_mod
from repro.core import env as env_mod
from repro.core.env import CoSchedulingEnv
from repro.core.optimizer import OnlineOptimizer
from repro.core.predictor import AnalyticPredictor
from repro.core.serving import DecisionCache, schedule_fingerprint
from repro.core.trainer import OfflineTrainer
from repro.perfmodel.cache import corun_cache_disabled
from repro.rl.dqn import DuelingDoubleDQNAgent
from repro.workloads.generator import QueueGenerator
from repro.workloads.jobs import Job

W = 12


@pytest.fixture(scope="module")
def setup():
    """A paper-size (W=12, C_max=4) trainer's repository and catalog, an
    untrained agent (its arbitrary but frozen Q ranking suffices for
    identity checks), and 24 windows: 20 distinct training-set windows
    plus 4 permuted resubmissions of earlier ones."""
    trainer = OfflineTrainer(seed=3, dqn_overrides={"hidden": (64, 32)})
    repository = trainer.build_repository()
    agent = DuelingDoubleDQNAgent(trainer.dqn_config)
    gen = QueueGenerator(seed=29, training_only=True)
    windows = [q.window(W) for q in gen.training_queues(n=20, w=W)]
    rng = np.random.default_rng(5)
    for i in (0, 3, 7, 11):
        windows.append([
            Job.submit(windows[i][j].benchmark_name)
            for j in rng.permutation(W)
        ])
    return trainer, repository, agent, windows


def _env(setup, window):
    trainer, repository, _, _ = setup
    return CoSchedulingEnv(
        windows=[window],
        repository=repository,
        catalog=trainer.catalog,
        window_size=W,
        shuffle_windows=False,
    )


def _optimizer(setup, cache=None):
    trainer, repository, agent, _ = setup
    return OnlineOptimizer(
        agent,
        repository,
        trainer.catalog,
        W,
        rerank_top_k=5,
        decision_cache=cache,
    )


def _drive(env, actions=None, seed=0):
    """Score every valid action at every step, then commit one: the
    given ``actions`` in turn, or a seeded draw among the valid ones.
    Returns ``[(action, {a: (indices, gain hex)})]`` per step."""
    rng = np.random.default_rng(seed)
    _, info = env.reset(options={"window_index": 0})
    trace = []
    done = False
    while not done:
        valid = [int(a) for a in np.flatnonzero(info["action_mask"])]
        scores = {}
        for a in valid:
            chosen, gain = env.score_action(a)
            scores[a] = (chosen, gain.hex())
        if actions is None:
            action = valid[int(rng.integers(len(valid)))]
        else:
            action = actions[len(trace)]
        trace.append((action, scores))
        _, _, done, _, info = env.step(action)
    # each step committed the binding its score reported
    jobs = env.window_jobs
    for group, (action, scores) in zip(info["schedule"].groups, trace):
        assert group.jobs == tuple(jobs[i] for i in scores[action][0])
    return trace


def test_fast_scores_equal_reference_at_every_step(setup):
    windows = setup[3]
    for k, window in enumerate(windows):
        fast = _drive(_env(setup, window), seed=k)
        with corun_cache_disabled():
            ref = _drive(
                _env(setup, window), actions=[a for a, _ in fast]
            )
        assert fast == ref, f"window {k}"


def test_optimize_many_equals_reference_optimize(setup):
    windows = setup[3]
    fast = _optimizer(setup, DecisionCache()).optimize_many(windows)
    with corun_cache_disabled():
        ref = [_optimizer(setup).optimize(w) for w in windows]
    assert [schedule_fingerprint(d.schedule) for d in fast] == [
        schedule_fingerprint(d.schedule) for d in ref
    ]
    # the permuted resubmissions replayed their original's plan
    assert sum(d.cached for d in fast) == 4


def test_serving_never_runs_the_reference_binder(setup, monkeypatch):
    calls = {"predict_group": 0, "assign_optimal": 0, "assign_conflict_aware": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (env_mod, assignment_mod):
        for name in ("assign_optimal", "assign_conflict_aware"):
            monkeypatch.setattr(
                module, name, counting(name, getattr(module, name))
            )
    monkeypatch.setattr(
        AnalyticPredictor,
        "predict_group",
        counting("predict_group", AnalyticPredictor.predict_group),
    )
    windows = setup[3]
    _optimizer(setup, DecisionCache()).optimize_many(windows)
    _optimizer(setup).optimize(windows[1])
    assert calls == {
        "predict_group": 0, "assign_optimal": 0, "assign_conflict_aware": 0
    }


def test_step_reuses_the_scored_binding(setup, monkeypatch):
    solves = []
    lsa = env_mod.linear_sum_assignment

    def counting(*args, **kwargs):
        solves.append(1)
        return lsa(*args, **kwargs)

    monkeypatch.setattr(env_mod, "linear_sum_assignment", counting)
    env = _env(setup, setup[3][2])
    env.reset(options={"window_index": 0})
    action = setup[0].catalog.actions_with_concurrency(3)[0]
    first = env.score_action(action)
    assert env.score_action(action) == first
    env.step(action)
    assert len(solves) == 1  # the step bound nothing again
    second = env.score_action(action)
    assert len(solves) == 2  # availability changed: a fresh binding
    assert set(second[0]).isdisjoint(first[0])


def test_score_action_validates(setup):
    env = _env(setup, setup[3][0][:3])
    with pytest.raises(SchedulingError, match="reset"):
        env.score_action(0)
    env.reset(options={"window_index": 0})
    four = setup[0].catalog.actions_with_concurrency(4)[0]
    with pytest.raises(SchedulingError, match="invalid"):
        env.score_action(four)
