"""Decision flight recorder, regret attribution, alerts, bench gate.

The acceptance contract of PR 4:

* recording is a pure observer — a recorded training run is bitwise-
  identical to an unrecorded one;
* every record round-trips through JSONL and the regret analyzer, and
  the per-window regret report is bit-for-bit reproducible across two
  same-seed runs;
* the anomaly detectors fire under fault injection and stay silent on
  a clean run;
* the telemetry-overhead gate passes a ratio at its budget and fails a
  ratio 20% under it, or any run whose observed statistics diverge.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.core.actions import ActionCatalog
from repro.core.optimizer import OnlineDecision, OnlineOptimizer
from repro.core.problem import Schedule
from repro.core.trainer import OfflineTrainer
from repro.errors import ReproError
from repro.insight import (
    AlertConfig,
    AlertEngine,
    DecisionRecorder,
    RegretAnalyzer,
    compare_overhead_bench,
    format_checks,
    gate_passes,
    measure_overhead_bench,
    read_decision_log,
    worst_decisions,
    write_decision_log,
    write_regret_jsonl,
)
from repro.rl.nn import DuelingQNetwork
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.jobs import Job
from repro.workloads.suite import TRAINING_SET

pytestmark = pytest.mark.insight

_OVERRIDES = {
    "hidden": (32, 32),
    "warmup_transitions": 16,
    "batch_size": 16,
    "epsilon_decay_rate": 0.98,
}


def _small_trainer(recorder=None) -> OfflineTrainer:
    return OfflineTrainer(
        window_size=6,
        c_max=3,
        n_training_queues=4,
        seed=7,
        dqn_overrides=dict(_OVERRIDES),
        recorder=recorder,
    )


@pytest.fixture(scope="module")
def recorded_training():
    """One small recorded training run shared by the read-only tests."""
    recorder = DecisionRecorder()
    result = _small_trainer(recorder).train(episodes=10)
    return recorder, result


# ----------------------------------------------------------------------
# the recorder itself
# ----------------------------------------------------------------------
class TestRecorder:
    def test_records_are_well_formed(self, recorded_training):
        recorder, _ = recorded_training
        assert len(recorder.windows) == 10  # one summary per episode
        assert recorder.decisions

        by_window = {}
        for d in recorder.decisions:
            by_window.setdefault((d.source, d.seq), []).append(d)
        for w in recorder.windows:
            recs = sorted(
                by_window.get((w.source, w.seq), []), key=lambda d: d.step
            )
            assert len(recs) == w.n_decisions
            assert [d.step for d in recs] == list(range(len(recs)))
            for d in recs:
                assert d.source == "train"
                assert d.window == w.window
                assert set(d.jobs) <= set(w.window)
                assert 1 <= d.concurrency == len(d.jobs)
                assert d.realized_corun_time > 0
                assert d.predicted_makespan > 0
                assert d.q_gap_to_greedy >= 0.0
                assert 0.0 <= d.epsilon <= 1.0
                # alternatives are sorted by Q, best first, and exclude
                # nothing better than the best
                gaps = [a.q_gap for a in d.alternatives]
                assert gaps == sorted(gaps)
                if not d.explored:
                    assert d.action == d.greedy_action

    def test_recording_does_not_perturb_training(self):
        plain = _small_trainer(recorder=None).train(episodes=10)
        recorded = _small_trainer(DecisionRecorder()).train(episodes=10)
        # bitwise: the recorder consumes no RNG and mutates nothing
        assert plain.episode_returns == recorded.episode_returns
        assert plain.episode_throughputs == recorded.episode_throughputs

    def test_online_optimizer_records(self, recorded_training):
        _, result = recorded_training
        recorder = DecisionRecorder()
        optimizer = OnlineOptimizer(
            result.agent,
            result.repository,
            ActionCatalog(c_max=3),
            6,
            recorder=recorder,
        )
        window = [
            Job.submit(name) for name in sorted(TRAINING_SET)[:6]
        ]
        decision = optimizer.optimize(window)
        assert len(recorder.windows) == 1
        w = recorder.windows[0]
        assert w.source == "online"
        assert w.total_time == pytest.approx(decision.schedule.total_time)
        assert w.n_decisions == len(recorder.decisions)
        window_names = {j.benchmark_name for j in window}
        assert set(w.window) == window_names
        for i, d in enumerate(recorder.decisions):
            assert d.source == "online" and d.step == i
            assert set(d.jobs) <= window_names
            assert d.realized_corun_time > 0
            assert d.predicted_makespan > 0

    def test_jsonl_roundtrip_is_exact(self, tmp_path, recorded_training):
        recorder, _ = recorded_training
        path = tmp_path / "decisions.jsonl"
        n = write_decision_log(recorder, path)
        assert n == len(recorder.decisions) + len(recorder.windows)
        decisions, windows = read_decision_log(path)
        assert [d.to_dict() for d in decisions] == [
            d.to_dict() for d in recorder.decisions
        ]
        assert [w.to_dict() for w in windows] == [
            w.to_dict() for w in recorder.windows
        ]

    def test_read_rejects_unknown_record_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ReproError):
            read_decision_log(path)

    def test_read_rejects_malformed_lines(self, recorded_training, tmp_path):
        recorder, _ = recorded_training
        path = tmp_path / "decisions.jsonl"
        n = write_decision_log(recorder, path)
        with open(path, "a") as fh:
            fh.write('{"type": "deci')  # a write cut short
        with pytest.raises(ReproError, match=rf"decisions\.jsonl:{n + 1}: invalid JSON"):
            read_decision_log(path)
        path.write_text("[1, 2]\n")
        with pytest.raises(ReproError, match=r"decisions\.jsonl:1: expected a JSON object"):
            read_decision_log(path)


# ----------------------------------------------------------------------
# dueling decomposition exposed for explainability
# ----------------------------------------------------------------------
class TestDecomposition:
    def test_matches_q_values_bitwise(self, recorded_training):
        _, result = recorded_training
        agent = result.agent
        rng = np.random.default_rng(3)
        for _ in range(5):
            state = rng.standard_normal(agent.online.n_inputs)
            q, v, a = agent.q_decomposition(state)
            assert np.array_equal(q, agent.q_values(state))
            # dueling identity: Q = V + A - mean(A)
            assert q == pytest.approx(v + a - a.mean(), abs=1e-12)

    def test_non_dueling_head_reports_zero_value(self):
        net = DuelingQNetwork(8, 5, hidden=(16,), seed=1, dueling=False)
        x = np.random.default_rng(0).standard_normal((3, 8))
        q, v, a = net.infer_decomposed(x)
        assert np.array_equal(q, net.infer(x))
        assert np.array_equal(q, a)
        assert not v.any()


# ----------------------------------------------------------------------
# regret attribution
# ----------------------------------------------------------------------
class TestRegret:
    def test_every_decision_is_covered_once(self, recorded_training):
        recorder, result = recorded_training
        analyses = RegretAnalyzer(result.repository).analyze_recorder(
            recorder
        )
        assert len(analyses) == len(recorder.windows)
        seen = [
            (d.source, d.seq, d.step) for w in analyses for d in w.decisions
        ]
        assert len(seen) == len(set(seen)) == len(recorder.decisions)
        for w in analyses:
            assert w.oracle_time > 0
            assert w.regret_vs_oracle == pytest.approx(
                w.total_time - w.oracle_time
            )
            # attribution is conservative: per-class shares add back up
            # to the window regret (float residue aside)
            assert sum(w.per_class.values()) == pytest.approx(
                w.regret_vs_oracle, abs=1e-6
            )
            assert w.oracle_choices  # the replayed plan is explained

    def test_regret_reproducible_bit_for_bit(self, tmp_path):
        reports = []
        for run in range(2):
            recorder = DecisionRecorder()
            result = _small_trainer(recorder).train(episodes=8)
            analyses = RegretAnalyzer(result.repository).analyze_recorder(
                recorder
            )
            path = tmp_path / f"regret{run}.jsonl"
            write_regret_jsonl(analyses, path)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_log_replay_equals_in_memory_analysis(
        self, tmp_path, recorded_training
    ):
        recorder, result = recorded_training
        path = tmp_path / "decisions.jsonl"
        write_decision_log(recorder, path)
        analyzer = RegretAnalyzer(result.repository)
        direct = analyzer.analyze_recorder(recorder)
        replayed = analyzer.analyze_log(path)
        assert [w.to_dict() for w in direct] == [
            w.to_dict() for w in replayed
        ]

    def test_orphan_decisions_raise(self, recorded_training):
        recorder, result = recorded_training
        analyzer = RegretAnalyzer(result.repository)
        with pytest.raises(ReproError):
            analyzer.analyze(recorder.decisions, recorder.windows[:-1])

    def test_count_mismatch_raises(self, recorded_training):
        recorder, result = recorded_training
        analyzer = RegretAnalyzer(result.repository)
        with pytest.raises(ReproError):
            analyzer.analyze(recorder.decisions[:-1], recorder.windows)

    def test_worst_decisions_ranked_descending(self, recorded_training):
        recorder, result = recorded_training
        analyses = RegretAnalyzer(result.repository).analyze_recorder(
            recorder
        )
        ranked = worst_decisions(analyses, n=5)
        regrets = [d.attributed_regret for d in ranked]
        assert regrets == sorted(regrets, reverse=True)


# ----------------------------------------------------------------------
# anomaly / SLO detectors
# ----------------------------------------------------------------------
def _training_stream(episodes):
    tel = Telemetry()
    for i, (q_max, loss) in enumerate(episodes):
        tel.event(
            "episode",
            "train",
            float(i),
            category="train",
            q_max=q_max,
            loss=loss,
            ep_return=0.0,
            gain=1.0,
            epsilon=0.5,
        )
    return tel


class TestAlerts:
    def test_needs_live_telemetry(self):
        with pytest.raises(ReproError):
            AlertEngine(NULL_TELEMETRY)

    def test_stable_training_stream_is_silent(self):
        tel = _training_stream([(1.0 + 0.01 * i, 0.1) for i in range(12)])
        assert AlertEngine(tel).scan() == []

    def test_q_drift_and_loss_blowup_fire_once(self):
        stream = [(1.0, 0.1)] * 8 + [(50.0, 100.0), (60.0, 200.0)]
        tel = _training_stream(stream)
        alerts = AlertEngine(tel).scan()
        kinds = [a.kind for a in alerts]
        assert sorted(kinds) == ["q_value_drift", "td_error_blowup"]
        assert all(a.severity == "critical" for a in alerts)
        assert all(a.ts == 8.0 for a in alerts)  # latched at first breach
        # the engine feeds its own findings back into telemetry
        counter = tel.registry.counter("alerts_raised_total")
        assert counter.value(kind="q_value_drift") == 1
        assert counter.value(kind="td_error_blowup") == 1
        assert len(tel.tracer.events(track="alerts")) == 2

    def test_alert_events_are_not_rescanned(self):
        stream = [(1.0, 0.1)] * 8 + [(50.0, 100.0)]
        tel = _training_stream(stream)
        engine = AlertEngine(tel)
        first = engine.scan()
        second = AlertEngine(tel).scan()  # fresh engine, same telemetry
        assert [a.to_dict() for a in first] == [a.to_dict() for a in second]

    def test_threshold_config_is_respected(self):
        stream = [(1.0, 0.1)] * 8 + [(3.0, 0.1)]
        tel = _training_stream(stream)
        assert AlertEngine(tel).scan() == []  # default q_drift=5.0
        tel2 = _training_stream(stream)
        loose = AlertEngine(tel2, AlertConfig(q_drift=1.0)).scan()
        assert [a.kind for a in loose] == ["q_value_drift"]


# ----------------------------------------------------------------------
# benchgate: the telemetry-overhead gate and its CLI
# ----------------------------------------------------------------------
def _overhead_doc(ratio: float, identical: bool = True) -> dict:
    return {"overhead": {"throughput_ratio": ratio, "identical_stats": identical}}


class TestBenchGate:
    def test_baseline_passes_against_itself(self):
        # a ratio exactly at the budget (the checks' baseline) passes
        checks = compare_overhead_bench(_overhead_doc(0.85), budget=0.85)
        assert gate_passes(checks)
        assert checks[0].baseline == 0.85
        assert checks[0].ratio == pytest.approx(1.0)

    def test_twenty_percent_drop_fails(self):
        checks = compare_overhead_bench(_overhead_doc(0.85 * 0.8), budget=0.85)
        assert not gate_passes(checks)
        bad = [c for c in checks if c.regressed]
        assert [c.key for c in bad] == ["overhead.throughput_ratio"]
        table = format_checks(checks).splitlines()
        assert table[1].startswith("overhead.throughput_ratio")
        assert table[1].endswith("REGRESSED")
        assert table[2].endswith("ok")

    def test_loose_tolerance_forgives_the_drop(self):
        # 0.8 fails the default budget but passes the looser one CI uses
        doc = _overhead_doc(0.8)
        assert not gate_passes(compare_overhead_bench(doc))
        assert gate_passes(compare_overhead_bench(doc, budget=0.75))

    def test_identity_break_fails_at_any_tolerance(self):
        doc = _overhead_doc(10.0, identical=False)
        for budget in (0.01, 0.5, 1.0):
            checks = compare_overhead_bench(doc, budget=budget)
            bad = [c.key for c in checks if c.regressed]
            assert bad == ["overhead.identical_stats"]

    def test_missing_key_raises(self):
        with pytest.raises(ReproError):
            compare_overhead_bench({})
        with pytest.raises(ReproError):
            compare_overhead_bench({"overhead": {"throughput_ratio": 0.9}})

    def test_measured_candidate_has_baseline_schema(self):
        doc = measure_overhead_bench(
            n_nodes=8, n_jobs=120, warmup_jobs=40, episodes=2, timed_runs=1
        )
        assert doc["overhead"]["identical_stats"] is True
        assert doc["overhead"]["throughput_ratio"] > 0.0
        assert doc["overhead"]["n_jobs"] == 120
        # the measured document carries every key the gate reads
        assert gate_passes(compare_overhead_bench(doc, budget=1e-6))

    def test_cli_exit_codes(self, tmp_path, capsys, monkeypatch):
        from repro.insight import benchgate

        docs = iter([_overhead_doc(0.9), _overhead_doc(0.5)])
        sizes = []

        def fake_measure(n_jobs, timed_runs):
            sizes.append((n_jobs, timed_runs))
            return next(docs)

        monkeypatch.setattr(benchgate, "measure_overhead_bench", fake_measure)
        out_path = tmp_path / "overhead.json"
        assert main(["benchgate", "--overhead-jobs", "300",
                     "--overhead-runs", "2",
                     "--overhead-out", str(out_path)]) == 0
        assert json.loads(out_path.read_text()) == _overhead_doc(0.9)
        assert main(["benchgate"]) == 1
        assert sizes == [(300, 2), (3000, 5)]
        monkeypatch.undo()
        # invalid sizes fail before any measuring starts
        assert main(["benchgate", "--overhead-jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out and "PASS" in captured.out
        assert "benchgate: error:" in captured.err


# ----------------------------------------------------------------------
# overhead_fraction guard (satellite d)
# ----------------------------------------------------------------------
class TestOverheadFraction:
    def test_zero_makespan_zero_decision_time(self):
        d = OnlineDecision(
            schedule=Schedule(), n_unprofiled=0, decision_seconds=0.0
        )
        assert d.overhead_fraction == 0.0

    def test_zero_makespan_with_decision_time_is_inf(self):
        d = OnlineDecision(
            schedule=Schedule(), n_unprofiled=0, decision_seconds=0.25
        )
        assert d.overhead_fraction == float("inf")

    def test_normal_ratio_unchanged(self):
        fake = SimpleNamespace(total_time=10.0)
        d = OnlineDecision(schedule=fake, n_unprofiled=0,
                           decision_seconds=0.5)
        assert d.overhead_fraction == pytest.approx(0.05)


# ----------------------------------------------------------------------
# CLI end-to-end (cluster scenarios; the slowest tests in this file)
# ----------------------------------------------------------------------
_CLUSTER = ["cluster", "Q1", "--episodes", "10", "--window", "4",
            "--gpus", "2", "--seed", "0"]


class TestCliInsight:
    def test_cluster_insight_artifacts_roundtrip(self, tmp_path, capsys):
        ins = tmp_path / "ins"
        assert main(_CLUSTER + ["--insight", str(ins)]) == 0
        for name in ("decisions.jsonl", "regret.jsonl",
                     "worst_decisions.txt"):
            assert (ins / name).stat().st_size > 0
        decisions, windows = read_decision_log(ins / "decisions.jsonl")
        assert decisions and windows
        assert all(d.source == "online" for d in decisions)
        for line in (ins / "regret.jsonl").read_text().splitlines():
            doc = json.loads(line)
            assert doc["type"] == "window_regret"
        assert "worst" in (ins / "worst_decisions.txt").read_text()

    def test_insight_off_output_is_bitwise_identical(self, tmp_path,
                                                     capsys):
        plain = tmp_path / "plain.json"
        recorded = tmp_path / "recorded.json"
        assert main(_CLUSTER + ["--json", str(plain)]) == 0
        assert main(_CLUSTER + ["--json", str(recorded),
                    "--insight", str(tmp_path / "ins")]) == 0
        assert plain.read_bytes() == recorded.read_bytes()

    def test_alerts_cli_fires_under_faults_only(self, tmp_path, capsys):
        args = ["alerts", "Q1", "--episodes", "12", "--window", "4",
                "--gpus", "2", "--seed", "0", "--fail-on-alert"]
        assert main(args) == 0  # clean run: detectors stay silent
        out_dir = tmp_path / "al"
        assert main(args + ["--faults", "0.12", "--fault-seed", "0",
                    "--out", str(out_dir)]) == 1
        raised = [
            json.loads(l)
            for l in (out_dir / "alerts.jsonl").read_text().splitlines()
        ]
        assert {a["kind"] for a in raised} >= {"retry_spike"}
