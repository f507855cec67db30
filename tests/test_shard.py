"""The sweep sharding subsystem (:mod:`repro.sweep.shard`).

The contract pinned here, in order of importance:

1. **Bit identity** — a sharded sweep (linear and RBF families, healthy
   and fault-plan-poisoned) produces waveforms, statuses and failure
   records *bit-identical* to the single-process lockstep engine;
   a linear sweep starts a pool only above the cost model's break-even
   (:func:`~repro.sweep.shard.linear_pool_pays`), so the linear cases
   run a length derived from its constants on a pinned core count (the
   ``paying_steps`` fixture), and the decision is pinned on both sides;
2. **corner groups are atomic** — the planner never splits a
   static-sharing group across shards (splitting would change the
   multi-RHS block width and therefore the bits);
3. **deterministic merge** — the merged result is in input scenario
   order regardless of the order shards complete in;
4. **edge validation** — bad worker counts fail fast everywhere they can
   enter (spec, CLI, environment, service), and the ``engine.workers`` /
   ``engine.shards`` flags route through the option-backend gate;
5. the content-addressed :class:`~repro.service.ResultStore` survives
   same-hash puts racing from multiple processes (what shard workers and
   daemon workers now do).
"""

from __future__ import annotations

import dataclasses
import io
import json
import multiprocessing
import os

import numpy as np
import pytest

import repro.sweep.shard as shard_mod
from repro.api import EngineOptions, ScenarioSpec, SimulationSpec, run
from repro.resilience import RunHealth, SolveFailure, faults
from repro.sweep.scenario import Scenario
from repro.sweep.shard import (
    default_workers,
    linear_pool_pays,
    merge_shard_results,
    plan_shards,
    resolve_worker_count,
    run_sharded,
)


def _mp_ctx():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _corner_sweep(n_groups: int = 3, per_group: int = 2, family: str = "linear",
                  duration: float = 1.5e-9, **engine_kw) -> SimulationSpec:
    scenarios = []
    for g in range(n_groups):
        for k in range(per_group):
            scenarios.append(ScenarioSpec(
                name=f"g{g}s{k}",
                bit_pattern="0110" if k % 2 else "0101",
                corner={"load_resistance": 300.0 + 50.0 * g},
            ))
    return SimulationSpec(
        kind="sweep",
        duration=duration,
        scenarios=tuple(scenarios),
        engine=EngineOptions(dt=1e-11, sweep_family=family, **engine_kw),
    )


def _with_workers(spec: SimulationSpec, workers: int) -> SimulationSpec:
    return dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, workers=workers))


def _assert_identical(base, other):
    """Result-level bit identity: names, times, waveforms, status, failures."""
    assert base.names() == other.names()
    assert np.array_equal(base.times, other.times)
    for name in base.names():
        assert np.array_equal(base.waveform(name), other.waveform(name)), name
    assert base.raw.status == other.raw.status
    assert base.raw.failures == other.raw.failures
    assert [s.name for s in base.raw.scenarios] == [s.name for s in other.raw.scenarios]


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

class TestPlanShards:
    def _scenarios(self, groups):
        """[2, 3, 1] -> 2+3+1 scenarios in interleaved input order."""
        scenarios = []
        remaining = list(groups)
        index = 0
        while any(remaining):
            for g, left in enumerate(remaining):
                if left:
                    scenarios.append(Scenario(
                        name=f"g{g}s{groups[g] - left}",
                        corner={"z": 100.0 + g},
                    ))
                    remaining[g] -= 1
                    index += 1
        return scenarios

    def test_groups_are_never_split(self):
        scenarios = self._scenarios([3, 2, 2, 1])
        for n_shards in (1, 2, 3, 4, 8):
            plan = plan_shards(scenarios, n_shards)
            for shard in plan.shards:
                keys = {scenarios[i].static_key() for i in shard}
                # every group present on a shard is present *completely*
                for key in keys:
                    owners = [i for i, sc in enumerate(scenarios)
                              if sc.static_key() == key]
                    assert set(owners) <= set(shard)

    def test_every_scenario_assigned_exactly_once(self):
        scenarios = self._scenarios([3, 2, 2, 1])
        plan = plan_shards(scenarios, 3)
        assigned = [i for shard in plan.shards for i in shard]
        assert sorted(assigned) == list(range(len(scenarios)))

    def test_shard_count_capped_by_group_count(self):
        scenarios = self._scenarios([2, 2])
        plan = plan_shards(scenarios, 8)
        assert plan.n_shards == 2
        assert plan.n_groups == 2
        # single group: one shard regardless of the worker budget
        single = plan_shards(self._scenarios([4]), 8)
        assert single.n_shards == 1

    def test_balanced_and_deterministic(self):
        scenarios = self._scenarios([4, 1, 1, 1, 1])
        plan = plan_shards(scenarios, 2)
        loads = sorted(len(s) for s in plan.shards)
        assert loads == [4, 4]  # LPT: the big group alone, the singles together
        again = plan_shards(list(scenarios), 2)
        assert again == plan

    def test_input_order_within_shards(self):
        scenarios = self._scenarios([2, 2, 2])
        plan = plan_shards(scenarios, 2)
        for shard in plan.shards:
            assert list(shard) == sorted(shard)

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            plan_shards(self._scenarios([1]), 0)


# ---------------------------------------------------------------------------
# worker-count resolution and edge validation
# ---------------------------------------------------------------------------

class TestWorkerCounts:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        assert resolve_worker_count(None) == 3
        # an explicit spec value beats the environment
        assert resolve_worker_count(2) == 2

    @pytest.mark.parametrize("raw", ["0", "-1", "two", "1.5"])
    def test_env_garbage_fails_fast(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            default_workers()

    @pytest.mark.parametrize("field", ["workers", "shards"])
    def test_spec_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=f"engine.{field} must be at least 1"):
            EngineOptions(**{field: 0})
        with pytest.raises(ValueError, match=f"engine.{field}"):
            EngineOptions(**{field: -2})

    def test_spec_round_trip_with_workers(self):
        from repro.api import spec_from_dict

        spec = _corner_sweep(workers=4, shards=2)
        assert spec_from_dict(json.loads(spec.to_json())) == spec

    def test_cli_run_rejects_zero_workers(self, tmp_path):
        from repro.api.cli import main

        job = tmp_path / "sweep.json"
        _corner_sweep().save(str(job))
        assert main(["run", str(job), "--workers", "0"]) == 2

    def test_cli_serve_rejects_zero_workers(self):
        from repro.api.cli import main

        assert main(["serve", "--workers", "0", "--port", "0"]) == 2

    def test_job_manager_rejects_zero_workers(self, tmp_path):
        from repro.service import JobManager, ResultStore

        with pytest.raises(ValueError, match="at least 1"):
            JobManager(store=ResultStore(root=str(tmp_path)), workers=0)

    def test_run_surfaces_env_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            run(_corner_sweep(n_groups=1, per_group=1, duration=2e-10))


# ---------------------------------------------------------------------------
# bit-identical equivalence: sharded == single-process lockstep
# ---------------------------------------------------------------------------

class TestShardedEquivalence:
    def test_linear_sweep_bit_identical(self, paying_steps):
        spec = _corner_sweep(n_groups=3, per_group=2, family="linear",
                             duration=paying_steps(3, 3) * 1e-11)
        base = run(spec)
        sharded = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=3)))
        _assert_identical(base, sharded)
        perf = sharded.raw.perf_stats
        assert perf["shards"] == 3
        assert perf["workers"] == 3
        assert perf["corner_groups"] == 3
        # exactly one static factorization per corner group per shard
        assert perf["shared_factorizations"] == 3
        for shard in perf["shard_stats"]:
            assert shard["shared_factorizations"] == shard["static_groups"]
        assert 0.0 < perf["parallel_efficiency"] <= 1.0

    def test_rbf_sweep_bit_identical(self):
        spec = _corner_sweep(n_groups=2, per_group=2, family="rbf", duration=1e-9)
        base = run(spec)
        sharded = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=2)))
        _assert_identical(base, sharded)
        assert sharded.raw.perf_stats["shards"] == 2

    def test_poisoned_scenario_fault_plan(self, monkeypatch, paying_steps):
        # One persistently-poisoned scenario: quarantined + failed on its
        # solo retry in both runs, everything else bit-identical.  The
        # plan travels to the workers through the environment.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "nan@5x*:scenario=g1s0")
        faults.reload_env_plan()
        try:
            spec = _corner_sweep(n_groups=3, per_group=2, family="linear",
                                 duration=paying_steps(3, 3) * 1e-11)
            base = run(spec)
            faults.reload_env_plan()  # re-arm for the sharded run
            sharded = run(dataclasses.replace(
                spec, engine=dataclasses.replace(spec.engine, workers=3)))
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            faults.reload_env_plan()
        assert base.raw.status_of("g1s0") == "failed"
        _assert_identical(base, sharded)
        assert sharded.raw.perf_stats["shards"] == 3
        assert sharded.raw.perf_stats["quarantined_scenarios"] == ["g1s0"]
        health = sharded.raw.perf_stats["health"]
        assert health["failure_counts"].get("nan_inf", 0) > 0

    def test_explicit_shard_count(self, paying_steps):
        # shards=2 with plenty of workers: exactly 2 sub-batches.
        spec = _corner_sweep(n_groups=4, per_group=1, shards=2, workers=4,
                             duration=paying_steps(4, 2) * 1e-11)
        result = run(spec)
        perf = result.raw.perf_stats
        assert perf["shards"] == 2
        assert perf["corner_groups"] == 4

    def test_single_group_runs_in_process(self):
        # One corner group cannot shard: telemetry says so, still works.
        spec = _corner_sweep(n_groups=1, per_group=3, workers=4)
        base = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=None)))
        sharded = run(spec)
        _assert_identical(base, sharded)
        assert sharded.raw.perf_stats["shards"] == 1
        assert sharded.raw.perf_stats["parallel_efficiency"] is None

    def test_cli_sharded_run(self, tmp_path):
        from repro.api.cli import main

        job = tmp_path / "sweep.json"
        out = tmp_path / "out.json"
        _corner_sweep(n_groups=2, per_group=2, family="rbf", duration=1e-9).save(str(job))
        assert main(["run", str(job), "--workers", "2",
                     "--output", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["perf_stats"]["shards"] == 2
        assert document["perf_stats"]["workers"] == 2


# ---------------------------------------------------------------------------
# the pool decision: a linear sweep pools only when its block solves pay
# ---------------------------------------------------------------------------

class TestPoolDecision:
    def test_cost_model(self, paying_steps):
        steps = paying_steps(4, 2)
        assert linear_pool_pays(4, steps, 2)
        assert linear_pool_pays(4, steps, 8)   # capped at the 4 pinned cores
        assert not linear_pool_pays(4, steps, 1)  # one shard saves nothing
        assert not linear_pool_pays(4, steps // 2, 2)

    def test_linear_sweep_below_break_even_runs_in_process(self, cores, no_pool):
        spec = _corner_sweep(n_groups=3, per_group=2, family="linear")
        base = run(spec)
        below = run(_with_workers(spec, 3))
        _assert_identical(base, below)
        perf = below.raw.perf_stats
        assert perf["shards"] == 1
        assert perf["workers"] == 3
        assert perf["corner_groups"] == 3
        assert perf["shared_factorizations"] == 3
        assert perf["parallel_efficiency"] is None

    def test_linear_sweep_above_break_even_shards(self, paying_steps):
        spec = _corner_sweep(n_groups=4, per_group=2, family="linear",
                             duration=paying_steps(4, 2) * 1e-11)
        base = run(spec)
        sharded = run(_with_workers(spec, 2))
        _assert_identical(base, sharded)
        perf = sharded.raw.perf_stats
        assert perf["shards"] == 2
        assert perf["shared_factorizations"] == 4  # one per corner group
        assert [s["shared_factorizations"] for s in perf["shard_stats"]] == [2, 2]
        assert 0.0 < perf["parallel_efficiency"] <= 1.0

    def test_one_core_never_pools_a_linear_sweep(self, paying_steps, monkeypatch, no_pool):
        duration = paying_steps(3, 3) * 1e-11
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert not linear_pool_pays(10**6, 10**6, 8)
        spec = _corner_sweep(n_groups=3, per_group=1, family="linear",
                             duration=duration, workers=3)
        assert run(spec).raw.perf_stats["shards"] == 1

    def test_rbf_sweep_below_linear_break_even_still_shards(self, cores):
        spec = _corner_sweep(n_groups=2, per_group=1, family="rbf", duration=5e-10)
        assert not linear_pool_pays(2, 50, 2)
        assert run(_with_workers(spec, 2)).raw.perf_stats["shards"] == 2


# ---------------------------------------------------------------------------
# the deterministic merge
# ---------------------------------------------------------------------------

class TestMerge:
    def test_merge_independent_of_completion_order(self, monkeypatch, paying_steps):
        """The regression the merge exists for: shards finishing in any
        order (here: forced reverse) must not disturb scenario order,
        statuses or failure records."""
        orders = []

        def reversed_pool(payloads, workers):
            results = [None] * len(payloads)
            for index in reversed(range(len(payloads))):
                orders.append(index)
                results[index] = shard_mod._solve_shard(payloads[index])
            return results

        monkeypatch.setattr(shard_mod, "_run_pool", reversed_pool)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "nan@5x*:scenario=g1s0")
        faults.reload_env_plan()
        try:
            spec = _corner_sweep(n_groups=3, per_group=2, family="linear",
                                 duration=paying_steps(3, 3) * 1e-11)
            base = run(spec)
            faults.reload_env_plan()
            sharded = run(dataclasses.replace(
                spec, engine=dataclasses.replace(spec.engine, workers=3)))
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            faults.reload_env_plan()
        assert orders == [2, 1, 0]  # the shards really completed backwards
        _assert_identical(base, sharded)
        assert [s.name for s in sharded.raw.scenarios] \
            == [sc.name for sc in spec.scenarios]
        assert sharded.raw.status_of("g1s0") == "failed"
        assert "g1s0" in sharded.raw.failures

    def test_merge_shard_results_validates_count(self):
        scenarios = [Scenario(name="a", corner={"z": 1.0}),
                     Scenario(name="b", corner={"z": 2.0})]
        plan = plan_shards(scenarios, 2)
        with pytest.raises(ValueError, match="expected 2 shard results"):
            merge_shard_results(scenarios, plan, [])

    def test_run_sharded_rejects_non_sweep_spec(self):
        with pytest.raises(ValueError, match="sweep spec"):
            run_sharded(SimulationSpec(kind="circuit"))

    def test_counters_and_health_aggregate(self, paying_steps):
        spec = _corner_sweep(n_groups=3, per_group=2, family="linear",
                             duration=paying_steps(3, 3) * 1e-11)
        base = run(spec)
        sharded = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=3)))
        b, s = base.raw.perf_stats, sharded.raw.perf_stats
        assert s["shards"] == 3
        for key in ("static_groups", "shared_factorizations",
                    "block_solves", "static_reuses"):
            assert s[key] == b[key], key
        assert sorted(s["direct_linear_scenarios"]) \
            == sorted(b["direct_linear_scenarios"])
        assert set(s["per_scenario"]) == set(b["per_scenario"])
        assert s["health"]["ok"] is True


# ---------------------------------------------------------------------------
# resilience-type round trips used by the merge
# ---------------------------------------------------------------------------

class TestHealthRoundTrip:
    def test_solve_failure_round_trip(self):
        failure = SolveFailure(kind="nan_inf", step=7, scenario="s1",
                               residual=1.5, message="boom",
                               context={"site": "solve"})
        assert SolveFailure.from_dict(failure.to_dict()) == failure

    def test_run_health_round_trip_and_merge(self):
        health = RunHealth()
        health.record(SolveFailure(kind="nan_inf", step=3, scenario="x"))
        health.retries = 2
        health.recovered_steps = 1
        health.backend_fallbacks = 4
        again = RunHealth.from_dict(health.to_dict())
        assert again.to_dict() == health.to_dict()
        merged = RunHealth().merge(again).merge(RunHealth.from_dict(health.to_dict()))
        assert merged.retries == 4
        assert merged.failure_counts == {"nan_inf": 2}


# ---------------------------------------------------------------------------
# the content-addressed store under multi-process races
# ---------------------------------------------------------------------------

def _reference_result():
    from repro.api import Result

    times = np.linspace(0.0, 1e-9, 101)
    return Result(
        times=times,
        waveforms={"far": np.sin(times * 1e9), "near": np.cos(times * 1e9)},
        engine="unit-race",
        perf_stats={"solves": 1},
        meta={"kind": "circuit", "label": "race"},
    )


def _reference_entry():
    """The summary, JSON and NPZ bytes a solver process stores for the result."""
    from repro.service.jobs import result_summary

    result = _reference_result()
    buffer = io.BytesIO()
    result.save_npz(buffer)
    summary = result_summary(result.to_dict(include_waveforms=False))
    return summary, result.to_json_bytes(), buffer.getvalue()


def _race_put(root: str, spec_hash: str, repeats: int) -> None:
    """Process target: hammer the same hash with identical results."""
    from repro.service import ResultStore

    store = ResultStore(root=root)
    entry = _reference_entry()
    for _ in range(repeats):
        store.put(spec_hash, *entry)


class TestResultStoreRace:
    def test_concurrent_same_hash_puts(self, tmp_path):
        from repro.service import ResultStore

        root = str(tmp_path / "race")
        spec_hash = "ab" + "0" * 62
        ctx = _mp_ctx()
        procs = [ctx.Process(target=_race_put, args=(root, spec_hash, 10))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = ResultStore(root=root)
        document = store.get(spec_hash)   # checksum-validated read
        assert document is not None

        # byte-identical to an uncontended single-process write
        ref_root = str(tmp_path / "ref")
        ref_store = ResultStore(root=ref_root)
        ref_store.put(spec_hash, *_reference_entry())
        raced = json.dumps(document, sort_keys=True)
        reference = json.dumps(ref_store.get(spec_hash), sort_keys=True)
        assert raced == reference

        # ...including the raw on-disk JSON entry (identical writers ->
        # identical bytes, never a torn mixture)
        rel = os.path.join(spec_hash[:2], f"{spec_hash}.json")
        raced_bytes = (tmp_path / "race" / rel).read_bytes()
        ref_bytes = (tmp_path / "ref" / rel).read_bytes()
        assert raced_bytes == ref_bytes

        # the NPZ artifact survived the race too
        npz = store.npz_path(spec_hash)
        assert npz is not None
        with np.load(npz, allow_pickle=False) as data:
            assert np.array_equal(data["times"], _reference_result().times)
