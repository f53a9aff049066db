"""Unit tests for the power model and power-capped scheduling."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.core.actions import ActionCatalog
from repro.core.problem import Schedule, ScheduledGroup
from repro.core.serving import DecisionCache, schedule_fingerprint
from repro.gpu.partition import parse_partition
from repro.power import PowerCappedOptimizer, PowerModel, schedule_energy
from repro.workloads.jobs import Job
from repro.workloads.suite import benchmark


class TestPowerModel:
    def test_tdp_composition(self):
        pm = PowerModel(idle_watts=55, compute_watts=130, memory_watts=65)
        assert pm.tdp_watts == pytest.approx(250.0)  # the A100 PCIe TDP

    def test_idle_floor_and_tdp_ceiling(self):
        pm = PowerModel()
        models = [benchmark("stream"), benchmark("lavaMD")]
        tree = parse_partition("[(0.3)+(0.7),1m]")
        w = pm.group_watts(models, tree)
        assert pm.idle_watts < w <= pm.tdp_watts

    def test_compute_heavy_draws_more_compute_power(self):
        pm = PowerModel()
        heavy = pm.job_dynamic_watts(benchmark("lavaMD"), 1.0)
        light = pm.job_dynamic_watts(benchmark("lavaMD"), 0.25)
        assert heavy > light

    def test_memory_bound_job_draws_memory_power(self):
        pm = PowerModel()
        stream = pm.job_dynamic_watts(benchmark("stream"), 0.5)
        kmeans = pm.job_dynamic_watts(benchmark("kmeans"), 0.5)
        assert stream > kmeans  # bandwidth term dominates for stream

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerModel(idle_watts=-1)
        pm = PowerModel()
        with pytest.raises(ConfigurationError):
            pm.job_dynamic_watts(benchmark("stream"), 0.0)
        with pytest.raises(ConfigurationError):
            pm.group_watts([benchmark("stream")], parse_partition("[(0.5)+(0.5),1m]"))


class TestScheduleEnergy:
    def _schedule(self):
        sched = Schedule(method="t")
        jobs = [Job.submit("kmeans"), Job.submit("qs_Coral_P1")]
        sched.append(
            ScheduledGroup.run(jobs, parse_partition("[(0.5)+(0.5),1m]"))
        )
        sched.append(ScheduledGroup.run_solo(Job.submit("stream")))
        return sched

    def test_accounting_fields(self):
        acct = schedule_energy(self._schedule(), PowerModel())
        assert acct["energy_joules"] > 0
        assert acct["peak_watts"] <= PowerModel().tdp_watts
        assert acct["avg_watts"] >= PowerModel().idle_watts
        assert acct["joules_per_solo_second"] > 0

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            schedule_energy(Schedule(), PowerModel())

    def test_coscheduling_is_energy_efficient(self):
        # co-running two US jobs halves the idle-energy tax vs solo runs
        pm = PowerModel()
        jobs = [Job.submit("kmeans"), Job.submit("qs_Coral_P1")]
        co = Schedule(method="co")
        co.append(ScheduledGroup.run(jobs, parse_partition("[(0.5)+(0.5),1m]")))
        solo = Schedule(method="solo")
        for j in jobs:
            solo.append(ScheduledGroup.run_solo(j))
        e_co = schedule_energy(co, pm)["energy_joules"]
        e_solo = schedule_energy(solo, pm)["energy_joules"]
        assert e_co < e_solo


class TestPowerCappedOptimizer:
    @pytest.fixture(scope="class")
    def capped_factory(self, tiny_training):
        trainer, result = tiny_training
        from repro.core.evaluation import profile_all_benchmarks

        repo = result.repository.copy()
        profile_all_benchmarks(repo)

        def make(cap, **kwargs):
            return PowerCappedOptimizer(
                result.agent,
                repo,
                ActionCatalog(c_max=trainer.c_max),
                trainer.window_size,
                power_cap_watts=cap,
                **kwargs,
            ), trainer

        return make

    def test_cap_below_idle_rejected(self, capped_factory):
        with pytest.raises(SchedulingError):
            capped_factory(10.0)

    def test_schedule_respects_cap_estimates(self, capped_factory):
        optimizer, trainer = capped_factory(180.0)
        window = self._cap_window(trainer)
        decision = optimizer.optimize(window)
        self._assert_within_cap(optimizer, decision.schedule, 180.0)

    @staticmethod
    def _cap_window(trainer):
        names = ["stream", "kmeans", "lud_B", "qs_Coral_P1", "lavaMD", "hotspot3D"]
        return [Job.submit(n) for n in names[: trainer.window_size]]

    def _assert_within_cap(self, optimizer, schedule, cap):
        for group in schedule.groups:
            if group.concurrency == 1:
                continue
            profiles = [optimizer.repository.lookup(j) for j in group.jobs]
            est = optimizer.estimate_group_watts(profiles, group.partition)
            assert est <= cap + 1e-6

    def test_batched_path_respects_cap(self, capped_factory):
        # optimize_many (the path CoSchedulingPolicy.schedule_many and
        # the fleet take) must apply the same cap as the serial optimize
        optimizer, trainer = capped_factory(180.0)
        window = self._cap_window(trainer)
        serial = optimizer.optimize(window)
        batched = optimizer.optimize_many([window])[0]
        assert schedule_fingerprint(batched.schedule) == schedule_fingerprint(
            serial.schedule
        )
        self._assert_within_cap(optimizer, batched.schedule, 180.0)

    def test_shared_cache_does_not_replay_uncapped_plans(
        self, capped_factory, tiny_training
    ):
        trainer, result = tiny_training
        from repro.core.optimizer import OnlineOptimizer

        cache = DecisionCache()
        capped, _ = capped_factory(180.0, decision_cache=cache)
        plain = OnlineOptimizer(
            result.agent, capped.repository, ActionCatalog(c_max=trainer.c_max),
            trainer.window_size, decision_cache=cache,
        )
        window = self._cap_window(trainer)
        plain.optimize_many([window])
        decision = capped.optimize_many([list(window)])[0]
        assert not decision.cached
        self._assert_within_cap(capped, decision.schedule, 180.0)

    def test_loose_cap_changes_nothing(self, capped_factory, tiny_training):
        trainer, result = tiny_training
        from repro.core.evaluation import profile_all_benchmarks
        from repro.core.optimizer import OnlineOptimizer

        repo = result.repository.copy()
        profile_all_benchmarks(repo)
        plain = OnlineOptimizer(
            result.agent, repo, ActionCatalog(c_max=trainer.c_max),
            trainer.window_size,
        )
        capped, _ = capped_factory(10_000.0)
        names = ["stream", "kmeans", "lud_B", "qs_Coral_P1"]
        window = [Job.submit(n) for n in names]
        a = plain.optimize(list(window)).schedule.total_time
        b = capped.optimize(list(window)).schedule.total_time
        assert a == pytest.approx(b)

    def test_tight_cap_costs_throughput(self, capped_factory):
        loose, trainer = capped_factory(9_999.0)
        tight, _ = capped_factory(140.0)
        names = ["stream", "lud_B", "sp_solver_B", "cfd"][: trainer.window_size]
        window = [Job.submit(n) for n in names]
        t_loose = loose.optimize(list(window)).schedule.total_time
        t_tight = tight.optimize(list(window)).schedule.total_time
        assert t_tight >= t_loose - 1e-9
