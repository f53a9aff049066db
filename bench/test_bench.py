"""Self-test of the benchmark: ``python -m pytest bench -q``.

Runs every workload at tiny sizes, untraced and traced, and checks the
metric names against BENCHMARK.json, the tracer's self-time arithmetic,
that tracing restores every patched function, and that the command
refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "train-paper": dict(episodes=80, warm_episodes=0),
    "serve-cold": dict(agent_episodes=2, n_windows=8),
    # enough work per simulated slice that the slice loop, outside the
    # traced root spans, stays under 1% of the timed wall
    "fleet-flat": dict(nodes=100, jobs=3000, rate=1000.0, agent_episodes=2),
    "fleet-placed": dict(
        nodes=4, jobs=60, rate=2.0, node_episodes=2, placement_episodes=1,
        jobs_per_episode=30,
    ),
}


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(cases.WORKLOADS) == list(TINY)


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_at_tiny_size(name, trace, tmp_path):
    workload = cases.WORKLOADS[name](seed=3, **TINY[name])
    result = harness.run_workload(
        workload, seconds=0.0, trace=trace, spans_path=tmp_path / "spans.jsonl"
    )
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    printed = run.format_result(result)
    for metric in SPEC[key]:
        # a traced run prints <layer>.calls/.self_s/.share as a table row
        layer, _, field = metric["name"].rpartition(".")
        if field in ("calls", "self_s", "share"):
            assert f"  {layer} " in printed
        else:
            assert metric["name"] in printed
    if trace:
        assert result["checks"]["root_spans_cover_timed_wall"]
        assert result["metrics"][f"{workload.required_layer}.calls"]["value"] > 0
        assert (tmp_path / "spans.jsonl").stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_arithmetic_on_nested_calls():
    tracer = spans.Tracer(clock=_FakeClock())

    def leaf():
        return None

    def inner():
        tracer.call("leaf", True, leaf, (), {})
        tracer.call("leaf", True, leaf, (), {})

    def outer():
        tracer.call("inner", False, inner, (), {})

    tracer.call("outer", False, outer, (), {})
    # every clock reading advances time by 1: leaf spans last 1 each,
    # inner covers both leaves (1 + 2 + 2 + 1 readings apart)
    assert tracer.calls == {"leaf": 2, "inner": 1, "outer": 1}
    assert tracer.self_s["leaf"] == 2.0
    assert tracer.self_s["inner"] == 5.0 - 2.0
    assert tracer.self_s["outer"] == 7.0 - 5.0
    assert tracer.root_s == 7.0 == sum(tracer.self_s.values())
    # the aggregated leaves are folded into inner's record, not stored
    assert [s[3] for s in tracer.spans] == ["inner", "outer"]
    inner_span = tracer.spans[0]
    assert inner_span[2] == tracer.spans[1][1]  # parent is outer
    assert inner_span[7] == {"leaf": [2, 2.0]}


def test_tracing_restores_every_patched_function():
    targets = [
        (spans._resolve(where), attr) for _, where, attr, _ in spans.LAYER_TARGETS
    ]
    before = [vars(owner)[attr] for owner, attr in targets]
    patches = spans.Patches(spans.Tracer())
    patches.install()
    assert all(vars(o)[a] is not f for (o, a), f in zip(targets, before))
    patches.uninstall()
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert patches.restored()


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
