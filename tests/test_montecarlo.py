"""Monte Carlo statistical SI (:mod:`repro.sweep.montecarlo`).

The contract pinned here:

1. **Determinism** — the same ``stats`` block regenerates a bit-identical
   scenario batch (and therefore bit-identical waveforms), and the seed
   enters the spec ``content_hash``;
2. **Composition** — a sampled sweep is an ordinary sweep once expanded:
   sharded execution is bit-identical to single-process, each round
   decides on its own whether its pool pays, and corner draws are
   limited to ``corner_groups`` static-sharing groups;
3. **Aggregation** — distribution summaries, bathtub curves and the
   worst-case record are consistent with the per-scenario eye metrics,
   and adaptive refinement tightens the worst-case estimate
   monotonically;
4. **Plumbing** — spec validation, hash preservation of pre-stats jobs,
   CLI overrides, quick caps and the service status surface.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    DistributionSpec,
    EngineOptions,
    ScenarioSpec,
    SimulationSpec,
    StatsSpec,
    StimulusSpec,
    run,
    spec_from_dict,
)
from repro.sweep.montecarlo import (
    generate_scenarios,
    merge_sweep_results,
    run_montecarlo,
)
from repro.sweep.report import bathtub_curve, metric_distribution
from repro.waveforms.eye import EyeDiagram, eye_diagram


def _stats(**overrides) -> StatsSpec:
    base = dict(
        samples=10,
        seed=42,
        corner_groups=3,
        distributions={
            "corner.load_resistance": {"kind": "uniform", "low": 300.0, "high": 700.0},
            "bit_pattern": {"kind": "pattern", "bits": 5},
            "drive_strength": {
                "kind": "normal", "mean": 1.0, "std": 0.05, "low": 0.8, "high": 1.2,
            },
        },
    )
    base.update(overrides)
    return StatsSpec(**base)


def _mc_spec(stats=None, **engine_kw) -> SimulationSpec:
    return SimulationSpec(
        kind="sweep",
        duration=12e-9,
        stimulus=StimulusSpec(bit_time=2e-9),
        stats=stats if stats is not None else _stats(),
        engine=EngineOptions(dt=1e-11, sweep_family="linear", **engine_kw),
    )


# ---------------------------------------------------------------------------
# spec layer
# ---------------------------------------------------------------------------
class TestStatsSpecValidation:
    def test_round_trips_through_json(self):
        spec = _mc_spec(_stats(refine_rounds=2, refine_samples=4))
        doc = json.loads(json.dumps(spec.to_dict()))
        assert spec_from_dict(doc) == spec

    def test_stats_enters_content_hash(self):
        spec = _mc_spec()
        reseeded = dataclasses.replace(
            spec, stats=dataclasses.replace(spec.stats, seed=43))
        assert reseeded.content_hash() != spec.content_hash()

    def test_pre_stats_specs_hash_unchanged(self):
        # the stats key is absent when unset, so every pre-existing job's
        # content hash (and cached result) survives the new field
        spec = SimulationSpec(kind="circuit")
        assert "stats" not in spec.to_dict()

    def test_scenarios_and_stats_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="must be empty"):
            SimulationSpec(
                kind="sweep",
                stats=_stats(),
                scenarios=(ScenarioSpec(name="a"),),
                engine=EngineOptions(sweep_family="linear"),
            )

    def test_stats_only_for_sweeps(self):
        with pytest.raises(ValueError, match="only valid for kind='sweep'"):
            SimulationSpec(kind="circuit", stats=_stats())

    def test_rbf_family_rejects_drive_distribution(self):
        with pytest.raises(ValueError, match="drive_strength"):
            SimulationSpec(
                kind="sweep", stats=_stats(),
                engine=EngineOptions(sweep_family="rbf"),
            )

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            StatsSpec(samples=2, distributions={
                "voltage": {"kind": "uniform", "low": 0, "high": 1}})

    def test_bit_pattern_needs_pattern_kind(self):
        with pytest.raises(ValueError, match="bit_pattern"):
            StatsSpec(samples=2, distributions={
                "bit_pattern": {"kind": "uniform", "low": 0, "high": 1}})

    def test_corner_needs_numeric_kind(self):
        with pytest.raises(ValueError, match="numeric"):
            StatsSpec(samples=2, distributions={
                "corner.z0": {"kind": "pattern", "bits": 3}})

    @pytest.mark.parametrize("field, value", [
        ("samples", 0),
        ("corner_groups", 0),
        ("bins", 1),
        ("refine_shrink", 0.0),
        ("refine_shrink", 1.5),
        ("refine_samples", 0),
        ("refine_rounds", -1),
    ])
    def test_bad_scalars_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"stats.{field}"):
            _stats(**{field: value})

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="low < high"):
            DistributionSpec(kind="uniform", low=2.0, high=1.0)
        with pytest.raises(ValueError, match="std"):
            DistributionSpec(kind="normal", mean=0.0, std=0.0)
        with pytest.raises(ValueError, match="values"):
            DistributionSpec(kind="choice")
        with pytest.raises(ValueError, match="weights"):
            DistributionSpec(kind="choice", values=(1.0, 2.0), weights=(1.0,))
        with pytest.raises(ValueError, match="bits"):
            DistributionSpec(kind="pattern")

    def test_quickened_caps_sampling(self):
        spec = _mc_spec(_stats(samples=500, refine_rounds=4, refine_samples=64))
        quick = spec.quickened()
        assert quick.stats.samples == 8
        assert quick.stats.refine_rounds == 1
        assert quick.stats.refine_samples == 4

    # The eye fold of the default 5 ps grid from t_start = 2 ns needs 400
    # samples of one 2 ns bit from sample 400 on: a run of 799 steps.
    @pytest.mark.parametrize("steps", [800, 799], ids=["warm-up shape", "shortest"])
    def test_span_of_one_eye_fold_is_accepted(self, steps):
        spec = _fold_spec(steps * 5e-12)
        assert spec.quickened().duration == spec.duration
        times = 5e-12 * np.arange(steps + 1)
        eye = eye_diagram(times, np.zeros_like(times), 2e-9, t_start=2e-9)
        assert eye.n_traces == 1

    def test_span_one_step_short_of_one_eye_fold_is_rejected(self):
        with pytest.raises(ValueError, match=r"^duration: .*stats\.t_start"):
            _fold_spec(798 * 5e-12)
        times = 5e-12 * np.arange(799)
        with pytest.raises(ValueError, match="shorter than one bit period"):
            eye_diagram(times, np.zeros_like(times), 2e-9, t_start=2e-9)

    def test_quickened_keeps_four_unit_intervals_of_eye_fold(self):
        spec = dataclasses.replace(
            _mc_spec(), stats=dataclasses.replace(_stats(), t_start=3e-9)
        )
        quick = spec.quickened()
        assert quick.duration < spec.duration
        assert int(round(quick.duration / 1e-11)) == 1099  # 300 + 4 * 200 - 1
        assert run(dataclasses.replace(
            quick, stats=dataclasses.replace(quick.stats, samples=2, refine_rounds=0)
        )).meta["montecarlo"]["completed"] == 2


def _fold_spec(duration: float) -> SimulationSpec:
    """The benchmark's Monte Carlo warm-up shape at a given duration."""
    doc = {
        "format_version": 1, "kind": "sweep", "duration": duration,
        "engine": {"sweep_family": "linear"},
        "stats": {
            "samples": 4, "t_start": 2e-9,
            "distributions": {"bit_pattern": {"kind": "pattern", "bits": 3}},
        },
    }
    return spec_from_dict(doc)


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------
class TestGenerateScenarios:
    def test_same_seed_regenerates_identical_batch(self):
        stats = _stats()
        assert generate_scenarios(stats) == generate_scenarios(stats)

    def test_different_seed_differs(self):
        assert generate_scenarios(_stats()) != generate_scenarios(_stats(seed=43))

    def test_corner_draws_shared_round_robin(self):
        batch = generate_scenarios(_stats(samples=10, corner_groups=3))
        corners = [tuple(sorted(sc.corner.items())) for sc in batch]
        assert len(set(corners)) == 3
        # scenario i takes corner draw i % 3
        for i, corner in enumerate(corners):
            assert corner == corners[i % 3]

    def test_null_corner_groups_draws_per_scenario(self):
        batch = generate_scenarios(_stats(samples=8, corner_groups=None))
        corners = {tuple(sorted(sc.corner.items())) for sc in batch}
        assert len(corners) == 8

    def test_draws_respect_bounds(self):
        batch = generate_scenarios(_stats(samples=64))
        for sc in batch:
            assert 300.0 <= sc.corner["load_resistance"] <= 700.0
            assert 0.8 <= sc.drive_strength <= 1.2  # normal clip bounds
            assert len(sc.bit_pattern) == 5
            assert set(sc.bit_pattern) <= {"0", "1"}

    def test_choice_kinds(self):
        stats = StatsSpec(samples=32, seed=1, distributions={
            "drive_strength": {"kind": "choice", "values": [0.9, 1.1],
                               "weights": [3.0, 1.0]},
            "bit_pattern": {"kind": "choice", "values": ["0101", "0110"]},
        })
        batch = generate_scenarios(stats)
        assert {sc.drive_strength for sc in batch} <= {0.9, 1.1}
        assert {sc.bit_pattern for sc in batch} <= {"0101", "0110"}

    def test_names_are_prefixed_and_ordered(self):
        batch = generate_scenarios(_stats(samples=3), prefix="mc-r2-")
        assert [sc.name for sc in batch] == [
            "mc-r2-00000", "mc-r2-00001", "mc-r2-00002"]


# ---------------------------------------------------------------------------
# aggregation helpers
# ---------------------------------------------------------------------------
class TestMetricDistribution:
    def test_summary_shape(self):
        dist = metric_distribution(np.linspace(0.0, 1.0, 101), bins=10)
        assert dist["count"] == 101
        assert dist["min"] == 0.0 and dist["max"] == 1.0
        assert dist["percentiles"]["p50"] == pytest.approx(0.5)
        assert dist["percentiles"]["p1"] <= dist["percentiles"]["p99"]
        assert sum(dist["histogram"]["counts"]) == 101
        assert len(dist["histogram"]["edges"]) == 11
        json.dumps(dist)

    def test_degenerate_sample_single_bin(self):
        dist = metric_distribution([0.5, 0.5, 0.5])
        assert dist["std"] == 0.0
        assert sum(dist["histogram"]["counts"]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metric_distribution([])


class TestBathtubCurve:
    def _eye(self, traces, bit_time=1.0):
        n = traces.shape[1]
        return EyeDiagram(
            phase=(bit_time / n) * np.arange(n), traces=traces, bit_time=bit_time)

    def test_violation_rates(self):
        # two HIGH traces: one clean (1.0 everywhere), one dipping to the
        # midline at phase index 1 -> 50 % violation there, 0 elsewhere
        clean = np.ones(10)
        dipped = np.ones(10)
        dipped[1] = 0.5
        curve = bathtub_curve([self._eye(np.vstack([clean, dipped]))], 0.0, 1.0)
        assert curve["n_traces"] == 2
        assert curve["violation_rate"][1] == pytest.approx(0.5)
        assert curve["violation_rate"][2] == 0.0
        assert curve["open_fraction"] == pytest.approx(0.9)
        json.dumps(curve)

    def test_low_traces_violate_above_midline(self):
        low_trace = np.zeros(10)
        low_trace[4] = 0.6  # pops over the midline mid-UI
        curve = bathtub_curve([self._eye(low_trace[None, :])], 0.0, 1.0)
        assert curve["violation_rate"][4] == 1.0
        assert curve["violation_rate"][3] == 0.0

    def test_mismatched_phase_axis_rejected(self):
        a = self._eye(np.ones((1, 10)))
        b = self._eye(np.ones((1, 8)))
        with pytest.raises(ValueError, match="phase axis"):
            bathtub_curve([a, b], 0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bathtub_curve([], 0.0, 1.0)


# ---------------------------------------------------------------------------
# end-to-end execution
# ---------------------------------------------------------------------------
class TestRunMonteCarlo:
    def _run(self, **kw):
        spec = _mc_spec(**kw) if kw else _mc_spec()
        return run_montecarlo(spec)

    def test_summary_consistent_with_sweep(self):
        spec = _mc_spec(_stats(samples=6, corner_groups=2))
        sweep, mc = run_montecarlo(spec)
        assert sweep.n_scenarios == 6
        assert mc["generated"] == 6
        assert mc["completed"] == 6
        assert mc["eye_height"]["count"] == 6
        assert mc["corner_groups"] == 2
        assert sweep.perf_stats["static_groups"] == 2
        json.dumps(mc)

    def test_factorizations_limited_to_corner_groups(self):
        # the whole point of corner_groups: 12 scenarios, 3 factorizations
        spec = _mc_spec(_stats(samples=12, corner_groups=3))
        sweep, _ = run_montecarlo(spec)
        assert sweep.perf_stats["static_groups"] == 3
        assert sweep.perf_stats["shared_factorizations"] == 3

    def test_same_seed_bit_identical_rerun(self):
        spec = _mc_spec(_stats(samples=4, corner_groups=2))
        a, mc_a = run_montecarlo(spec)
        b, mc_b = run_montecarlo(spec)
        assert mc_a == mc_b
        for sc in a.scenarios:
            assert np.array_equal(a.voltage(sc.name, "far"), b.voltage(sc.name, "far"))

    def test_sharded_bit_identical_to_single_process(self, paying_steps):
        spec = dataclasses.replace(_mc_spec(_stats(samples=6, corner_groups=3)),
                                   duration=paying_steps(3, 3) * 1e-11)
        single = run(spec)
        sharded = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=3)))
        assert single.names() == sharded.names()
        for name in single.names():
            assert np.array_equal(single.waveform(name), sharded.waveform(name)), name
        assert sharded.raw.perf_stats["shards"] == 3
        assert single.meta["montecarlo"] == sharded.meta["montecarlo"]

    def test_below_break_even_runs_in_process(self, cores, no_pool):
        spec = _mc_spec(_stats(samples=6, corner_groups=3,
                               refine_rounds=1, refine_samples=3))
        single = run(spec)
        below = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=3)))
        assert single.names() == below.names()
        for name in single.names():
            assert np.array_equal(single.waveform(name), below.waveform(name)), name
        assert below.raw.perf_stats["shards"] == 1
        assert below.raw.perf_stats["parallel_efficiency"] is None
        assert single.meta["montecarlo"] == below.meta["montecarlo"]

    def test_each_round_decides_on_its_own(self, paying_steps, monkeypatch):
        # The base round's 4 corner groups pay for a pool; each refinement
        # round draws 2 groups over the same steps and runs in process.
        import repro.sweep.shard as shard_mod

        steps = paying_steps(4, 2)
        assert not shard_mod.linear_pool_pays(2, steps, 2)
        pools = []
        real_pool = shard_mod._run_pool

        def counted_pool(payloads, workers):
            pools.append(len(payloads))
            return real_pool(payloads, workers)

        monkeypatch.setattr(shard_mod, "_run_pool", counted_pool)
        spec = dataclasses.replace(
            _mc_spec(_stats(samples=8, corner_groups=4,
                            refine_rounds=2, refine_samples=2)),
            duration=steps * 1e-11)
        single = run(spec)
        assert pools == []
        sharded = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=2)))
        assert pools == [2]  # the base round only
        stats = sharded.raw.perf_stats
        assert stats["shards"] == 2  # the largest round's
        assert [(r["scenarios"], r["shards"]) for r in stats["rounds"]] == [
            (8, 2), (2, 1), (2, 1)]
        assert stats["rounds"][0]["parallel_efficiency"] is not None
        assert [r["parallel_efficiency"] for r in stats["rounds"][1:]] == [None, None]
        assert stats["parallel_efficiency"] is None  # not every round pooled
        assert [r["shards"] for r in single.raw.perf_stats["rounds"]] == [1, 1, 1]
        assert "shards" not in single.raw.perf_stats  # never reached the shard layer
        assert single.names() == sharded.names()
        for name in single.names():
            assert np.array_equal(single.waveform(name), sharded.waveform(name)), name
        assert single.meta["montecarlo"] == sharded.meta["montecarlo"]
        assert len(sharded.meta["montecarlo"]["refinement"]) == 2

    def test_refinement_tightens_worst_case_monotonically(self):
        spec = _mc_spec(_stats(samples=8, corner_groups=4,
                               refine_rounds=2, refine_samples=3))
        sweep, mc = run_montecarlo(spec)
        assert sweep.n_scenarios == 8 + 2 * 3
        trace = [mc["base_worst_height"]] + [
            r["worst_height"] for r in mc["refinement"]]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert mc["worst"]["eye_height"] == trace[-1]
        assert len(mc["refinement"]) == 2
        names = {sc.name for sc in sweep.scenarios}
        assert any(name.startswith("mc-r2-") for name in names)

    def test_run_routes_stats_specs_and_carries_summary(self):
        spec = _mc_spec(_stats(samples=4, corner_groups=2))
        result = run(spec)
        assert result.engine == "sweep-linear"
        mc = result.meta["montecarlo"]
        assert mc["samples"] == 4
        assert set(mc) >= {"eye_height", "eye_width", "bathtub", "worst"}

    def test_build_sweep_rejects_unexpanded_stats(self):
        from repro.api.engines import build_sweep

        with pytest.raises(ValueError, match="expanded"):
            build_sweep(_mc_spec())

    def test_merge_requires_parts(self):
        with pytest.raises(ValueError):
            merge_sweep_results([])

    def test_merge_reports_efficiency_only_when_every_round_pooled(self):
        from repro.sweep.result import SweepResult
        from repro.sweep.scenario import Scenario

        def part(prefix, n, shards, efficiency, wall):
            stats = {"shards": shards, "parallel_efficiency": efficiency}
            return SweepResult(
                times=None, results={}, perf_stats=stats, wall_time=wall,
                scenarios=[Scenario(name=f"{prefix}{i}") for i in range(n)],
            )

        pooled = merge_sweep_results([
            merge_sweep_results([part("a", 4, 2, 0.9, 1.0), part("b", 2, 2, 0.6, 2.0)]),
            part("c", 2, 3, 0.3, 1.0),
        ])
        stats = pooled.perf_stats
        assert [(r["scenarios"], r["shards"]) for r in stats["rounds"]] == [
            (4, 2), (2, 2), (2, 3)]
        assert stats["shards"] == 3
        assert stats["parallel_efficiency"] == pytest.approx((0.9 + 1.2 + 0.3) / 4)
        mixed = merge_sweep_results([part("a", 4, 2, 0.9, 1.0), part("b", 2, 1, None, 1.0)])
        assert mixed.perf_stats["shards"] == 2
        assert mixed.perf_stats["parallel_efficiency"] is None


# ---------------------------------------------------------------------------
# plumbing: CLI and service surfaces
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_cli_overrides_stats(self, tmp_path, capsys):
        from repro.api.cli import main

        job = tmp_path / "mc.json"
        out = tmp_path / "out.json"
        _mc_spec(_stats(samples=6, corner_groups=2)).save(str(job))
        assert main(["run", str(job), "--samples", "3", "--stat-seed", "9",
                     "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "montecarlo: 3/3 scenarios (seed 9" in text
        document = json.loads(out.read_text())
        assert document["meta"]["montecarlo"]["seed"] == 9

    def test_cli_stat_flags_need_stats_block(self, tmp_path, capsys):
        from repro.api.cli import main

        job = tmp_path / "plain.json"
        SimulationSpec(kind="circuit").save(str(job))
        assert main(["run", str(job), "--samples", "3"]) == 2
        assert "stats block" in capsys.readouterr().err

    def test_cli_describe_shows_sampling(self, tmp_path, capsys):
        from repro.api.cli import main

        job = tmp_path / "mc.json"
        _mc_spec().save(str(job))
        assert main(["describe", str(job)]) == 0
        assert "sampled from 3 distributions, seed 42" in capsys.readouterr().out

    def test_service_status_surfaces_montecarlo(self):
        from repro.service.jobs import Job, result_summary

        spec = _mc_spec(_stats(samples=4, corner_groups=2))
        result = run(spec)
        job = Job(job_id="j1", spec=spec, spec_hash=spec.content_hash(),
                  state="done", summary=result_summary(result.to_dict()))
        doc = job.status_dict()
        assert doc["montecarlo"]["samples"] == 4
        assert doc["montecarlo"]["completed"] == 4
        assert doc["montecarlo"]["worst"]["scenario"].startswith("mc")
