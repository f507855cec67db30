"""Unified job API: spec round-trips, hashing, engines, Result, CLI."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    DeviceSpec,
    DistributionSpec,
    EngineOptions,
    LinkSpec,
    Result,
    ScenarioSpec,
    SimulationSpec,
    StatsSpec,
    StimulusSpec,
    StructureSpec,
    load_spec,
    run,
    spec_from_dict,
)
from repro.api.engines import ENGINES
from repro.api.spec import ENGINE_KINDS
from repro.experiments.devices import ReferenceMacromodels
from repro.macromodel.serialization import macromodel_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS_DIR = os.path.join(REPO_ROOT, "examples", "jobs")

#: ``content_hash()`` of every job fixture.  A result store is keyed by
#: these, so a change to the spec codec that moves one orphans every
#: stored result of that job: such a change must be deliberate.
PINNED_FIXTURE_HASHES = {
    "fdtd1d_link.json": "17291fece53d7925c5bc24d5d77dca27c392de072c3cc613b112867e379deb6f",
    "linear_link.json": "4313589ab528202b2fa0401e4c06137c917f0179404a9b17b6f05de3a71066e6",
    "montecarlo_sweep.json": "af63e08089aeceb2ffa69a8b3a49710904fe95fd540e03f7f662c4529ed1b6f6",
    "pattern_corner_sweep.json":
        "aaffca82042d1c65af1b76653967699adb500f150dea949c8446c59ba80c95bf",
    "rbf_link.json": "a354f6aae605bd5e741d1df67041b527e7de4aa8d562d4cee3994d29df471e27",
    "sparse_ladder.json": "2cf472dcaa5575180db45f21816c71ee3e87a9ef1d980959483cfeaca88172cb",
    "validation_line_3d.json": "ef02852b48e2f284aecbe6afc5da6670cbc5e266e8fd49ed8472fa184e759185",
}


#: A small literal stand-in for an embedded macromodel: the spec layer only
#: requires a JSON object, and a fitted model would vary with the BLAS
#: thread count.
_LITERAL_MODEL = {
    "kind": "driver",
    "vdd": 1.8,
    "order": 2,
    "centers": [[0.0, 0.5], [1.25, -3e-3]],
    "note": None,
    "linear": {"a": [1, 2.5], "tag": "literal"},
}


def _all_field_specs() -> dict:
    """Hand-built specs that together set every multi-valued spec field.

    Each field takes a non-default value in at least one spec: the sources,
    variants, families and policies, the embedded models, an int
    ``dynamic_order`` beside float device parameters, int values where the
    canonical form is a float (``z0: 131`` hashes as ``131.0``), and every
    distribution kind (a weighted numeric ``choice``, a 0/1-string
    ``choice``, a clipped ``normal``).
    """
    stimulus = StimulusSpec(bit_pattern="0110", bit_time=1.5e-9, edge_time=2e-10)
    return {
        "circuit_inline": SimulationSpec(
            kind="circuit",
            label="all fields: inline circuit",
            duration=3e-9,
            stimulus=stimulus,
            devices=DeviceSpec(
                source="inline", driver=_LITERAL_MODEL,
                receiver={**_LITERAL_MODEL, "kind": "receiver"},
            ),
            link=LinkSpec(z0=131, delay=0.3e-9, load="receiver", load_resistance=350,
                          load_capacitance=0, source_resistance=40, segments=3),
            engine=EngineOptions(dt=1e-11, fast=True, max_retries=2,
                                 on_nonconvergence="warn"),
        ),
        "circuit_transistor": SimulationSpec(
            kind="circuit",
            devices=DeviceSpec(source="identified", n_centers=40, seed=5,
                               params={"vdd": 2, "dynamic_order": 3, "kn": 0.07}),
            engine=EngineOptions(variant="transistor", fast=False,
                                 on_nonconvergence="ignore"),
        ),
        "fdtd3d_scaled": SimulationSpec(
            kind="fdtd3d",
            duration=1e-9,
            structure=StructureSpec(name="validation_line", scale=0.5),
            engine=EngineOptions(n_cells=32),
        ),
        "sweep_scenarios": SimulationSpec(
            kind="sweep",
            stimulus=stimulus,
            link=LinkSpec(z0=95),
            scenarios=(
                ScenarioSpec(name="a", bit_pattern="011", drive_strength=1.2,
                             corner={"z0": 100, "load_resistance": 350.0}),
                ScenarioSpec(name="b"),
            ),
            engine=EngineOptions(sweep_family="linear", workers=2, shards=2),
        ),
        "stats_pattern": SimulationSpec(
            kind="sweep",
            duration=8e-9,
            stats=StatsSpec(
                samples=12, seed=7, corner_groups=3, node="near", low=0.2, high=1.6,
                t_start=1e-9, bins=10, refine_rounds=2, refine_samples=4,
                refine_shrink=0.25,
                distributions={
                    "bit_pattern": DistributionSpec(kind="pattern", bits=5),
                    "drive_strength": DistributionSpec(kind="uniform", low=0.8, high=1.2),
                    "corner.z0": DistributionSpec(kind="normal", mean=131, std=5,
                                                  low=120, high=140),
                },
            ),
            engine=EngineOptions(sweep_family="linear"),
        ),
        "stats_choice": SimulationSpec(
            kind="sweep",
            stats=StatsSpec(
                samples=4,
                distributions={
                    "bit_pattern": {"kind": "choice", "values": ["0110", "1001"]},
                    "corner.load_resistance": {"kind": "choice", "values": [300, 450.5],
                                               "weights": [1, 3]},
                    "corner.delay": {"kind": "normal", "mean": 4e-10, "std": 2e-11},
                },
            ),
        ),
    }


#: ``content_hash()`` of every :func:`_all_field_specs` spec, pinned so a
#: codec change that moves the canonical form of any field is caught.
PINNED_ALL_FIELD_HASHES = {
    "circuit_inline": "00af6bdac8b36d4dbb51e8e3843228946e687f6cb0337b985610a2fc5bb7c5d4",
    "circuit_transistor": "13d93eefb9ab20d46eb56859c0bd66fffbd46c819eb3782ed4402917d2062fc5",
    "fdtd3d_scaled": "548e2a20e248ca05ffdf81353c2dcc494a355e18d7db7fc2e60dc4f7ce372ff7",
    "sweep_scenarios": "a9b54f03660badf61e7cac6d96a5d8203248db6741dedd369c01193472b7ae16",
    "stats_pattern": "08cda611e0f826b524d9dbf71c0c213b932245551c1bd71a775802c51afba51f",
    "stats_choice": "337f34d65d0a40a748172e5b7925b1798f3b2a6619191141217f0e4133670117",
}


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _make_spec(kind: str, driver_model=None) -> SimulationSpec:
    """A representative non-default spec of each kind."""
    common = dict(
        duration=3e-9,
        stimulus=StimulusSpec(bit_pattern="0110", bit_time=1.5e-9, edge_time=2e-10),
        link=LinkSpec(z0=120.0, delay=0.3e-9, load="rc",
                      load_resistance=350.0, load_capacitance=2e-12),
        label=f"round-trip fixture ({kind})",
    )
    if kind == "circuit":
        return SimulationSpec(
            kind="circuit",
            devices=DeviceSpec(source="library", seed=3, params={"vdd": 2.5}),
            engine=EngineOptions(dt=1e-11, variant="rbf"),
            **common,
        )
    if kind == "fdtd1d":
        devices = DeviceSpec(source="library")
        if driver_model is not None:
            devices = DeviceSpec(
                source="inline", driver=macromodel_to_dict(driver_model)
            )
        return SimulationSpec(
            kind="fdtd1d", devices=devices, engine=EngineOptions(n_cells=64), **common
        )
    if kind == "fdtd3d":
        return SimulationSpec(
            kind="fdtd3d", structure=StructureSpec(scale=0.25), **common
        )
    if kind == "sweep":
        return SimulationSpec(
            kind="sweep",
            scenarios=(
                ScenarioSpec(name="a", bit_pattern="010", drive_strength=1.1),
                ScenarioSpec(name="b", bit_pattern="011",
                             corner={"z0": 100.0, "load_resistance": 400.0}),
                ScenarioSpec(name="c"),
            ),
            engine=EngineOptions(dt=1e-11, sweep_family="linear"),
            **common,
        )
    raise AssertionError(kind)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("kind", ["circuit", "fdtd1d", "fdtd3d", "sweep"])
    def test_dict_round_trip_is_identity(self, kind):
        spec = _make_spec(kind)
        assert spec_from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind", ["circuit", "fdtd1d", "fdtd3d", "sweep"])
    def test_json_round_trip_is_identity(self, kind):
        spec = _make_spec(kind)
        rebuilt = spec_from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_inline_device_round_trip(self, driver_model):
        spec = _make_spec("fdtd1d", driver_model=driver_model)
        rebuilt = spec_from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        assert rebuilt.devices.driver["kind"] == "driver"

    def test_unknown_top_level_key_rejected(self):
        data = _make_spec("circuit").to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            spec_from_dict(data)

    def test_unknown_block_key_rejected(self):
        data = _make_spec("circuit").to_dict()
        data["link"]["impedance"] = 50.0
        with pytest.raises(ValueError, match="impedance"):
            spec_from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SimulationSpec(kind="spectre")

    def test_wrong_format_version_rejected(self):
        data = _make_spec("circuit").to_dict()
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            spec_from_dict(data)

    def test_sweep_requires_scenarios(self):
        with pytest.raises(ValueError, match="scenario"):
            SimulationSpec(kind="sweep")

    def test_scenarios_only_for_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            SimulationSpec(kind="circuit", scenarios=(ScenarioSpec(name="a"),))

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SimulationSpec(
                kind="sweep",
                scenarios=(ScenarioSpec(name="a"), ScenarioSpec(name="a")),
            )

    def test_linear_sweep_rejects_receiver_load(self):
        with pytest.raises(ValueError, match="linear sweep family"):
            SimulationSpec(
                kind="sweep",
                link=LinkSpec(load="receiver"),
                scenarios=(ScenarioSpec(name="a"),),
                engine=EngineOptions(sweep_family="linear"),
            )

    def test_nonpositive_link_values_rejected(self):
        with pytest.raises(ValueError, match="load_resistance"):
            LinkSpec(load_resistance=0.0)
        with pytest.raises(ValueError, match="load_capacitance"):
            LinkSpec(load_capacitance=-1e-12)

    def test_rbf_sweep_rejects_drive_strength(self):
        with pytest.raises(ValueError, match="drive_strength"):
            SimulationSpec(
                kind="sweep",
                scenarios=(ScenarioSpec(name="a", drive_strength=1.2),),
                engine=EngineOptions(sweep_family="rbf"),
            )

    def test_unknown_device_param_rejected(self):
        with pytest.raises(ValueError, match="unknown device parameter"):
            DeviceSpec(params={"not_a_param": 1.0})

    def test_bad_stimulus_pattern_rejected(self):
        with pytest.raises(ValueError, match="bit_pattern"):
            StimulusSpec(bit_pattern="01x")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"stimulus": {"bit_pattern": 5}},
            {"stimulus": {"bit_time": "fast"}},
            {"duration": None},
            {"link": {"z0": [131.0]}},
            {"engine": {"n_cells": 50.5}},
            {"devices": {"seed": "zero"}},
        ],
    )
    def test_malformed_values_raise_value_error_not_type_error(self, mutation):
        # the CLI's error handler catches ValueError; a TypeError would crash
        data = _make_spec("circuit").to_dict()
        for key, value in mutation.items():
            if isinstance(value, dict):
                data[key] = {**data[key], **value}
            else:
                data[key] = value
        with pytest.raises(ValueError):
            spec_from_dict(data)

    def test_malformed_scenario_corner_raises_value_error(self):
        data = _make_spec("sweep").to_dict()
        data["scenarios"][0]["corner"] = {"z0": "high"}
        with pytest.raises(ValueError, match="corner"):
            spec_from_dict(data)

    @pytest.mark.parametrize("field", ["name"])
    def test_scenario_labels_must_be_strings(self, field):
        # shard workers re-read scenarios from JSON, so the constructor must
        # reject what the JSON decoder rejects
        with pytest.raises(ValueError, match=rf"scenario\.{field}"):
            ScenarioSpec(**{"name": "a", field: 7})

    @pytest.mark.parametrize("path, value, where", [
        (("engine", "batch_prepare"), True, "engine"),
        (("engine", "sparse_mna"), True, "engine"),
        (("scenarios", 0, "device"), "fast_corner", r"scenarios\[0\]"),
        (("scenarios", 0, "static_group"), "g1", r"scenarios\[0\]"),
    ], ids=["engine.batch_prepare", "engine.sparse_mna", "scenarios.device",
            "scenarios.static_group"])
    def test_removed_keys_are_rejected(self, path, value, where):
        # These keys left the spec; a job file still carrying one names the
        # key and its path instead of running.
        data = _make_spec("sweep").to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=rf"{where}: unknown key\(s\) \['{path[-1]}'\]"):
            spec_from_dict(data)

    def test_block_fields_accept_their_json_form(self):
        spec = SimulationSpec(kind="circuit", stimulus={"bit_pattern": "0110"},
                              link={"z0": 120})
        assert spec.stimulus == StimulusSpec(bit_pattern="0110")
        assert spec.link == LinkSpec(z0=120.0)
        assert spec_from_dict(spec.to_dict()) == spec

    def test_scenarios_accept_their_json_form(self):
        spec = SimulationSpec(kind="sweep", scenarios=[{"name": "a", "corner": {"z0": 90}}])
        assert spec.scenarios == (ScenarioSpec(name="a", corner={"z0": 90.0}),)
        with pytest.raises(ValueError, match=r"scenarios\[1\]: unknown key"):
            SimulationSpec(kind="sweep", scenarios=[{"name": "a"}, {"nmae": "b"}])

    @pytest.mark.parametrize("path, value, where", [
        (("duration",), math.inf, "duration"),
        (("link", "z0"), math.nan, r"link\.z0"),
        (("devices", "params", "vdd"), math.nan, r"devices\.params\['vdd'\]"),
        (("scenarios", 1, "corner", "z0"), -math.inf, r"scenarios\[1\]\.corner\['z0'\]"),
    ], ids=["top-level", "nested", "device-param", "scenario-corner"])
    def test_non_finite_numbers_rejected(self, path, value, where):
        # json.loads reads NaN and Infinity, so the codec must refuse them
        data = _make_spec("sweep").to_dict()
        data["devices"]["params"] = {"vdd": 1.8}
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=where + ": expected a finite number"):
            spec_from_dict(data)

    def test_unknown_corner_names_are_rejected(self):
        # a misspelt corner would be hashed and then run as the nominal link
        data = _make_spec("sweep").to_dict()
        data["scenarios"][1]["corner"] = {"z_0": 100.0}
        with pytest.raises(ValueError, match=r"scenarios\[1\]\.corner may only set "
                                             r"\['z0', 'delay', 'load_resistance', "
                                             r"'load_capacitance', 'source_resistance'\]"):
            spec_from_dict(data)

    def test_unknown_stats_corner_targets_are_rejected(self):
        with pytest.raises(ValueError, match=r"stats\.distributions\['corner\.z_0'\]: "
                                             r"unknown corner value; allowed: \['z0', "):
            StatsSpec(samples=2, distributions={
                "corner.z_0": DistributionSpec(kind="uniform", low=90.0, high=110.0),
            })

    def test_int_corner_values_normalised_to_float(self):
        a = ScenarioSpec(name="a", corner={"z0": 100})
        b = ScenarioSpec(name="a", corner={"z0": 100.0})
        assert a == b


def _change_id(change: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in change.items())


class TestContentHash:
    def test_hash_ignores_dict_ordering(self):
        spec = _make_spec("sweep")
        data = spec.to_dict()
        reordered = json.loads(
            json.dumps({k: data[k] for k in reversed(list(data))})
        )
        assert spec_from_dict(reordered).content_hash() == spec.content_hash()

    def test_hash_differs_on_content(self):
        a = _make_spec("circuit")
        b = spec_from_dict({**a.to_dict(), "duration": 4e-9})
        assert a.content_hash() != b.content_hash()

    def test_hash_stable_across_processes(self, tmp_path):
        spec = _make_spec("sweep")
        path = tmp_path / "job.json"
        spec.save(str(path))
        script = (
            "from repro.api import load_spec; "
            f"print(load_spec({str(path)!r}).content_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == spec.content_hash()

    def test_every_fixture_is_pinned(self):
        fixtures = sorted(name for name in os.listdir(JOBS_DIR) if name.endswith(".json"))
        assert fixtures == sorted(PINNED_FIXTURE_HASHES)

    @pytest.mark.parametrize("name", sorted(PINNED_FIXTURE_HASHES))
    def test_fixture_hash_is_pinned(self, name):
        spec = load_spec(os.path.join(JOBS_DIR, name))
        assert spec.content_hash() == PINNED_FIXTURE_HASHES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_ALL_FIELD_HASHES))
    def test_all_field_hash_is_pinned(self, name):
        spec = _all_field_specs()[name]
        assert spec.content_hash() == PINNED_ALL_FIELD_HASHES[name]
        rebuilt = spec_from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        assert rebuilt.content_hash() == PINNED_ALL_FIELD_HASHES[name]

    def test_all_field_pins_cover_every_field(self):
        seen: set = set()

        def visit(block):
            for field in dataclasses.fields(block):
                value = getattr(block, field.name)
                default = (
                    field.default_factory()
                    if field.default_factory is not dataclasses.MISSING
                    else field.default
                )
                if value != default:
                    seen.add(f"{type(block).__name__}.{field.name}")
                items = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, tuple) else (value,))
                for item in items:
                    if dataclasses.is_dataclass(item):
                        visit(item)

        for spec in _all_field_specs().values():
            visit(spec)
        every = {
            f"{cls.__name__}.{field.name}"
            for cls in (SimulationSpec, StimulusSpec, DeviceSpec, LinkSpec, StructureSpec,
                        ScenarioSpec, StatsSpec, DistributionSpec, EngineOptions)
            for field in dataclasses.fields(cls)
        }
        # the only structure family there is
        assert every - seen == {"StructureSpec.name"}

    @pytest.mark.parametrize("change", [
        {"workers": 2}, {"workers": 1}, {"shards": 3}, {"workers": 4, "shards": 2},
    ], ids=_change_id)
    def test_scheduling_knobs_do_not_split_the_hash(self, change):
        spec = _make_spec("sweep")
        variant = dataclasses.replace(spec, engine=dataclasses.replace(spec.engine, **change))
        assert variant != spec
        assert variant.content_hash() == spec.content_hash()

    @pytest.mark.parametrize("change", [
        {"dt": 2e-11}, {"fast": False}, {"max_retries": 2},
    ], ids=_change_id)
    def test_result_options_split_the_hash(self, change):
        spec = _make_spec("sweep")
        variant = dataclasses.replace(spec, engine=dataclasses.replace(spec.engine, **change))
        assert variant.content_hash() != spec.content_hash()


class TestRegistry:
    def test_all_four_kinds_registered(self):
        assert tuple(ENGINES) == ENGINE_KINDS == ("circuit", "fdtd1d", "fdtd3d", "sweep")


class TestResultContainer:
    def _result(self):
        times = np.linspace(0.0, 1e-9, 11)
        return Result(
            times=times,
            waveforms={"near": np.sin(times * 1e9), "far": np.cos(times * 1e9)},
            engine="unit-test",
            perf_stats={"solves": 3},
            meta={"kind": "circuit", "numpy_scalar": np.float64(1.5)},
        )

    def test_names_and_waveform(self):
        result = self._result()
        assert result.names() == ["far", "near"]
        assert result.waveform("near").shape == result.times.shape
        with pytest.raises(KeyError, match="available"):
            result.waveform("nope")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Result(times=np.zeros(3), waveforms={"w": np.zeros(4)})

    def test_json_export_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        result.save_json(str(path))
        with open(path) as handle:
            data = json.load(handle)
        assert set(data["waveforms"]) == {"near", "far"}
        np.testing.assert_allclose(data["waveforms"]["near"], result.waveform("near"))
        assert data["meta"]["numpy_scalar"] == 1.5

    def test_npz_export(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.npz"
        result.save_npz(str(path))
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["times"], result.times)
            np.testing.assert_array_equal(archive["w:far"], result.waveform("far"))
            meta = json.loads(str(archive["meta_json"]))
        assert meta["engine"] == "unit-test"


class TestUniformInterfaceOnNativeContainers:
    def test_simulation_result_names_and_waveform(self):
        from repro.core.cosim import SimulationResult

        times = np.linspace(0.0, 1e-9, 5)
        result = SimulationResult(
            times=times,
            voltages={"near_end": np.ones(5)},
            currents={"near_end": np.zeros(5)},
        )
        assert result.names() == ["i:near_end", "near_end"]  # sorted, like api.Result
        np.testing.assert_array_equal(result.waveform("near_end"), np.ones(5))
        np.testing.assert_array_equal(result.waveform("i:near_end"), np.zeros(5))
        with pytest.raises(KeyError, match="available"):
            result.waveform("i:far_end")


def _models(params, driver_model, receiver_model) -> ReferenceMacromodels:
    return ReferenceMacromodels(
        driver=driver_model, receiver=receiver_model, params=params, source="library"
    )


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


class TestEngineEquivalence:
    """spec -> run() must reproduce the direct engine calls bit-for-bit."""

    def test_circuit_matches_run_link_rbf(self, params, driver_model, receiver_model):
        from repro.circuits.testbenches import run_link_rbf
        from repro.core.cosim import LinkDescription

        spec = SimulationSpec(
            kind="circuit", duration=2e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            link=LinkSpec(z0=110.0, delay=0.2e-9, load="receiver"),
            engine=EngineOptions(dt=1e-11),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = run_link_rbf(
            LinkDescription(z0=110.0, delay=0.2e-9, bit_pattern="010", bit_time=1e-9,
                            duration=2e-9, load="receiver"),
            driver_model, receiver_model, dt=1e-11, params=params,
        )
        assert via_api.engine == "spice-rbf"
        for probe in ("near_end", "far_end"):
            assert _rel_diff(direct.voltage(probe), via_api.waveform(probe)) <= 1e-12

    def test_fdtd1d_matches_run_fdtd1d_link(self, params, driver_model, receiver_model):
        from repro.core.cosim import LinkDescription
        from repro.experiments.fig4_rc_load import run_fdtd1d_link

        spec = SimulationSpec(
            kind="fdtd1d", duration=2e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            link=LinkSpec(z0=131.0, delay=0.4e-9),
            engine=EngineOptions(n_cells=50),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = run_fdtd1d_link(
            models,
            LinkDescription(bit_pattern="010", bit_time=1e-9, duration=2e-9, load="rc"),
            n_cells=50,
        )
        for probe in ("near_end", "far_end"):
            assert _rel_diff(direct.voltage(probe), via_api.waveform(probe)) <= 1e-12

    def test_sweep_linear_matches_direct_sweep(self):
        from repro.core.cosim import LinkDescription
        from repro.sweep import Scenario, linear_link_sweep

        scenarios_spec = (
            ScenarioSpec(name="nom", bit_pattern="010"),
            ScenarioSpec(name="z100", bit_pattern="011", corner={"z0": 100.0}),
        )
        spec = SimulationSpec(
            kind="sweep", duration=3e-9, scenarios=scenarios_spec,
            engine=EngineOptions(dt=1e-11, sweep_family="linear"),
        )
        via_api = run(spec)
        direct = linear_link_sweep(
            [Scenario(name="nom", bit_pattern="010"),
             Scenario(name="z100", bit_pattern="011", corner={"z0": 100.0})],
            LinkDescription(duration=3e-9), dt=1e-11,
        ).run()
        assert via_api.meta["n_scenarios"] == 2
        for name in ("nom", "z100"):
            for node in ("near", "far"):
                assert _rel_diff(
                    direct.voltage(name, node), via_api.waveform(f"{name}/{node}")
                ) <= 1e-12

    def test_sweep_rbf_matches_direct_sweep(self, params, driver_model, receiver_model):
        from repro.core.cosim import LinkDescription
        from repro.sweep import Scenario, rbf_link_sweep

        spec = SimulationSpec(
            kind="sweep", duration=2e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            link=LinkSpec(load="receiver"),
            scenarios=(
                ScenarioSpec(name="nom", bit_pattern="010"),
                ScenarioSpec(name="z100", bit_pattern="010", corner={"z0": 100.0}),
            ),
            engine=EngineOptions(dt=2e-11, sweep_family="rbf"),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = rbf_link_sweep(
            [Scenario(name="nom", bit_pattern="010"),
             Scenario(name="z100", bit_pattern="010", corner={"z0": 100.0})],
            LinkDescription(bit_time=1e-9, duration=2e-9, load="receiver"),
            models, dt=2e-11,
        ).run()
        for name in ("nom", "z100"):
            for node in ("near", "far"):
                assert _rel_diff(
                    direct.voltage(name, node), via_api.waveform(f"{name}/{node}")
                ) <= 1e-12

    def test_sweep_scenarios_inherit_stimulus_bit_pattern(self):
        # a scenario with a null bit_pattern runs the spec's stimulus
        # pattern, not a hard-coded fallback
        base = dict(
            kind="sweep", duration=3e-9,
            engine=EngineOptions(dt=1e-11, sweep_family="linear"),
        )
        inherited = run(SimulationSpec(
            stimulus=StimulusSpec(bit_pattern="0110", bit_time=1e-9),
            scenarios=(ScenarioSpec(name="s"),), **base,
        ))
        explicit = run(SimulationSpec(
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            scenarios=(ScenarioSpec(name="s", bit_pattern="0110"),), **base,
        ))
        np.testing.assert_array_equal(
            inherited.waveform("s/far"), explicit.waveform("s/far")
        )

    def test_fdtd3d_matches_run_fdtd3d_link(self, params, driver_model, receiver_model):
        from repro.core.cosim import LinkDescription
        from repro.experiments.fig4_rc_load import run_fdtd3d_link
        from repro.structures.validation_line import ValidationLineStructure

        # bit_time well inside the window so the driver actually switches
        spec = SimulationSpec(
            kind="fdtd3d", duration=0.5e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=0.2e-9),
            structure=StructureSpec(scale=0.1),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = run_fdtd3d_link(
            ValidationLineStructure.scaled(0.1),
            models,
            LinkDescription(bit_pattern="010", bit_time=0.2e-9, duration=0.5e-9, load="rc"),
        )
        assert via_api.engine == "fdtd3d-rbf"
        assert np.max(np.abs(via_api.waveform("near_end"))) > 0.1  # real switching
        for probe in ("near_end", "far_end"):
            assert _rel_diff(direct.voltage(probe), via_api.waveform(probe)) <= 1e-12


class TestGoldenJobs:
    def test_all_job_files_validate(self):
        paths = sorted(
            os.path.join(JOBS_DIR, name)
            for name in os.listdir(JOBS_DIR) if name.endswith(".json")
        )
        assert len(paths) >= 4
        kinds = set()
        for path in paths:
            spec = load_spec(path)
            kinds.add(spec.kind)
            # every stored job is in normalised form already, key order too
            with open(path) as handle:
                assert handle.read() == spec.to_json() + "\n"
        assert kinds == {"circuit", "fdtd1d", "fdtd3d", "sweep"}

    def test_rbf_sweep_ends_in_the_load_its_link_asks_for(self):
        # The fixture asks for the RC load: each scenario runs the circuit
        # engine's link with its corner applied (a load corner sets the RC
        # load's value), and the receiver load gives other waveforms.
        from repro.api.engines import _link_description, resolve_models
        from repro.circuits.testbenches import run_link_rbf
        from repro.sweep.links import scenario_link

        spec = load_spec(os.path.join(JOBS_DIR, "pattern_corner_sweep.json")).quickened()
        assert spec.link.load == "rc"
        spec = dataclasses.replace(spec, scenarios=spec.scenarios + (
            ScenarioSpec(name="r300", bit_pattern="0110",
                         corner={"load_resistance": 300.0, "load_capacitance": 2e-12}),
        ))
        rc = run(spec)
        receiver = run(dataclasses.replace(
            spec, link=dataclasses.replace(spec.link, load="receiver")
        ))
        models = resolve_models(spec)
        link = _link_description(spec)
        for scenario in spec.scenarios:
            far = f"{scenario.name}/far"
            assert np.max(np.abs(rc.waveform(far) - receiver.waveform(far))) > 1e-2, far
            direct = run_link_rbf(
                scenario_link(link, scenario.to_scenario()), models.driver,
                models.receiver, dt=spec.resolved_dt(), params=models.params,
            )
            for node in ("near", "far"):
                assert _rel_diff(
                    direct.voltage(f"{node}_end"), rc.waveform(f"{scenario.name}/{node}")
                ) <= 1e-12, (scenario.name, node)

    def test_linear_link_job_end_to_end(self):
        from repro.core.cosim import LinkDescription
        from repro.sweep import linear_link_sweep

        spec = load_spec(os.path.join(JOBS_DIR, "linear_link.json"))
        result = run(spec)
        direct = linear_link_sweep(
            [sc.to_scenario() for sc in spec.scenarios],
            LinkDescription(duration=spec.duration), dt=spec.engine.dt,
        ).run()
        name = spec.scenarios[0].name
        assert _rel_diff(
            direct.voltage(name, "far"), result.waveform(f"{name}/far")
        ) <= 1e-12
        # the job is cache-addressable: the hash is stable across loads
        assert spec.content_hash() == load_spec(
            os.path.join(JOBS_DIR, "linear_link.json")
        ).content_hash()


class TestCLI:
    def _invoke(self, *args: str):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )

    def test_list_engines(self):
        out = self._invoke("list-engines")
        assert out.returncode == 0, out.stderr
        for kind in ("circuit", "fdtd1d", "fdtd3d", "sweep"):
            assert kind in out.stdout

    def test_version_flag(self):
        import repro

        out = self._invoke("--version")
        assert out.returncode == 0
        assert repro.__version__ in out.stdout

    def test_describe(self):
        out = self._invoke("describe", os.path.join("examples", "jobs", "linear_link.json"))
        assert out.returncode == 0, out.stderr
        assert "content hash:" in out.stdout
        assert '"kind": "sweep"' in out.stdout

    def test_run_quick_writes_artifact(self, tmp_path):
        artifact = tmp_path / "out.json"
        out = self._invoke(
            "run", os.path.join("examples", "jobs", "linear_link.json"),
            "--quick", "--output", str(artifact),
        )
        assert out.returncode == 0, out.stderr
        with open(artifact) as handle:
            data = json.load(handle)
        assert data["waveforms"]
        assert all(len(wave) > 0 for wave in data["waveforms"].values())
        assert data["meta"]["spec_hash"]

    def test_invalid_job_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "kind": "warp"}')
        out = self._invoke("run", str(bad))
        assert out.returncode == 2
        assert "error:" in out.stderr


class TestVersionSingleSourcing:
    def test_package_version_matches_pyproject(self):
        import repro

        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        assert repro.__version__ == pyproject["project"]["version"]

    def test_lazy_api_attribute(self):
        import repro

        assert repro.api.SimulationSpec is SimulationSpec
        with pytest.raises(AttributeError):
            repro.nonexistent_attribute


class TestPydocSurface:
    """``help()`` output is part of the public API surface (docs satellite)."""

    def test_pydoc_renders_top_level_package(self):
        out = subprocess.run(
            [sys.executable, "-m", "pydoc", "repro"],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        # the package docstring's subsystem map must survive into help()
        for subsystem in ("repro.api", "repro.sweep", "repro.resilience",
                          "repro.service", "docs/"):
            assert subsystem in out.stdout, f"{subsystem!r} missing from pydoc output"

    @pytest.mark.parametrize("module", ["repro.api", "repro.service"])
    def test_pydoc_renders_subpackages(self, module):
        out = subprocess.run(
            [sys.executable, "-m", "pydoc", module],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        assert "SimulationSpec" in out.stdout or "JobServer" in out.stdout


def _run_python(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
    )


class TestImports:
    def test_every_module_imports_on_its_own(self):
        # Each module first in a fresh set of repro modules: an import
        # cycle between two packages fails only when one side comes first.
        out = _run_python(
            "import importlib, json, pkgutil, sys\n"
            "import repro\n"
            "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
            "failed = {}\n"
            "for name in names:\n"
            "    for key in [k for k in sys.modules if k.split('.')[0] == 'repro']:\n"
            "        del sys.modules[key]\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except Exception as exc:\n"
            "        failed[name] = repr(exc)\n"
            "print(json.dumps([len(names), failed]))\n"
        )
        assert out.returncode == 0, out.stderr
        count, failed = json.loads(out.stdout.splitlines()[-1])
        assert count > 50
        assert failed == {}

    def test_model_fitting_imports_scipy_cluster_on_first_use(self):
        # scipy.cluster pulls in scipy.spatial; only k-means centre
        # selection needs it.  The daemon imports it before it forks its
        # solver processes, so they share those pages.
        out = _run_python(
            "import importlib, json, sys\n"
            "import repro.api\n"
            "api = [m for m in ('scipy.cluster', 'scipy.spatial') if m in sys.modules]\n"
            "from repro.service.jobs import _ENGINE_MODULES\n"
            "for name in _ENGINE_MODULES:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps([api, 'scipy.cluster.vq' in sys.modules]))\n"
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == [[], True]
