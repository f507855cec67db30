"""The process-wide device-model memo of ``repro.experiments.devices``.

A job's devices block is resolved to built macromodels once per process:
later jobs with an equal block reuse the same read-only models, make no
RBF fits, and produce waveforms identical to a cold run.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from repro.api import load_spec, run, spec_from_dict
from repro.api.engines import resolve_models
from repro.experiments import devices as dev
from repro.macromodel import library
from repro.macromodel.serialization import macromodel_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a cheap devices block: small centre counts keep each cold fit short
DEVICES = {"source": "library", "n_centers": 8, "seed": 0}


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty process-wide memo for one test."""
    fresh = dev.ModelMemo()
    monkeypatch.setattr(dev, "_MEMO", fresh)
    return fresh


@pytest.fixture
def fit_calls(monkeypatch):
    """Count the RBF fits of the library model constructors."""
    calls = []
    real = library.fit_rbf_submodel

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(library, "fit_rbf_submodel", counting)
    return calls


def _spec(kind="circuit", devices=None, **blocks):
    doc = {
        "format_version": 1,
        "kind": kind,
        "duration": 1e-9,
        "devices": dict(DEVICES if devices is None else devices),
    }
    doc.update(blocks)
    return spec_from_dict(doc)


def _waves(result) -> dict:
    return {name: result.waveform(name) for name in result.names()}


def _assert_identical(a, b) -> None:
    assert np.array_equal(a.times, b.times)
    wa, wb = _waves(a), _waves(b)
    assert wa.keys() == wb.keys()
    for name in wa:
        assert wa[name].tobytes() == wb[name].tobytes(), name


class TestMemoReuse:
    def test_second_job_with_equal_block_makes_no_fits(self, memo, fit_calls):
        first = run(_spec(stimulus={"bit_pattern": "01"}))
        assert len(fit_calls) == 4  # two driver and two receiver submodels
        assert first.perf_stats["models"]["cached"] is False
        # a different job, same devices block
        second = run(_spec(stimulus={"bit_pattern": "0110"}, link={"load": "rc"}))
        assert len(fit_calls) == 4
        models = second.perf_stats["models"]
        assert set(models) == {"source", "cached", "resolve_s"}
        assert models["source"] == "library" and models["cached"] is True
        assert models["resolve_s"] >= 0.0

    def test_equal_blocks_spelled_differently_share_an_entry(self, memo, fit_calls):
        stats_a, stats_b = {}, {}
        a = resolve_models(_spec(), stats_a)
        b = resolve_models(
            _spec(devices=dict(DEVICES, params={"vdd": 1.8})), stats_b
        )
        assert a is b
        assert (stats_a["models"]["cached"], stats_b["models"]["cached"]) == (False, True)
        assert len(memo) == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"n_centers": 10},
            {"seed": 1},
            {"params": {"c_out": 2.5e-12}},
            "inline",
        ],
        ids=["n_centers", "seed", "params", "source"],
    )
    def test_changed_block_is_a_miss(self, memo, change, driver_model, receiver_model):
        base = resolve_models(_spec())
        if change == "inline":
            block = {
                "source": "inline",
                "driver": macromodel_to_dict(driver_model),
                "receiver": macromodel_to_dict(receiver_model),
            }
        else:
            block = dict(DEVICES, **change)
        stats = {}
        other = resolve_models(_spec(devices=block), stats)
        assert other is not base
        assert stats["models"]["cached"] is False
        assert len(memo) == 2

    def test_library_and_identified_helpers_share_the_memo(self, memo):
        a = dev.identified_reference_macromodels(use_identification=False)
        stats = {}
        b = resolve_models(_spec(devices={"source": "library"}), stats)
        assert a is b and stats["models"]["cached"] is True


class TestMemoBitIdentity:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "circuit", "link": {"load": "receiver"}},
            {"kind": "fdtd1d", "duration": 2e-9},
            {
                "kind": "sweep",
                "scenarios": [{"name": "a"}, {"name": "b", "bit_pattern": "011"}],
                "engine": {"sweep_family": "rbf", "dt": 1e-11},
            },
            "validation_line_3d",
        ],
        ids=["circuit", "fdtd1d", "rbf_sweep", "fdtd3d_quick"],
    )
    def test_memo_hit_matches_a_cold_run(self, monkeypatch, doc):
        if doc == "validation_line_3d":
            path = os.path.join(REPO_ROOT, "examples", "jobs", "validation_line_3d.json")
            spec = load_spec(path).quickened()
            spec = dataclasses.replace(
                spec, devices=dataclasses.replace(spec.devices, n_centers=8)
            )
        else:
            spec = _spec(**doc)
        monkeypatch.setattr(dev, "_MEMO", dev.ModelMemo())
        cold = run(spec)
        hit = run(spec)
        monkeypatch.setattr(dev, "_MEMO", dev.ModelMemo())
        cold_again = run(spec)
        assert cold.perf_stats["models"]["cached"] is False
        assert hit.perf_stats["models"]["cached"] is True
        assert cold_again.perf_stats["models"]["cached"] is False
        _assert_identical(hit, cold)
        _assert_identical(hit, cold_again)


class TestMemoBound:
    def test_memo_keeps_cap_entries_and_evicted_identified_reloads_from_disk(
        self, memo, tmp_path, monkeypatch, params, driver_model, receiver_model
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        calls = {"driver": 0, "receiver": 0}

        def fake_driver(p, n_centers, seed):
            calls["driver"] += 1
            return copy.deepcopy(driver_model)

        def fake_receiver(p, n_centers, seed):
            calls["receiver"] += 1
            return copy.deepcopy(receiver_model)

        monkeypatch.setattr(dev, "_identify_driver", fake_driver)
        monkeypatch.setattr(dev, "_identify_receiver", fake_receiver)

        blocks = dev.MODEL_MEMO_SIZE + 3
        for seed in range(blocks):
            dev.identified_reference_macromodels(params, n_centers=10, seed=seed)
        assert len(memo) == dev.MODEL_MEMO_SIZE
        assert calls == {"driver": blocks, "receiver": blocks}

        # seed 0 was evicted first; it comes back from the disk tier
        again = dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        assert again.source == "identified (disk cache)"
        assert calls == {"driver": blocks, "receiver": blocks}
        assert len(memo) == dev.MODEL_MEMO_SIZE
        # and is a memo hit from now on
        assert dev.identified_reference_macromodels(params, n_centers=10, seed=0) is again

    def test_two_threads_asking_for_one_key_fit_once(self, memo, fit_calls):
        barrier = threading.Barrier(2)
        out = [None, None]

        def ask(slot):
            barrier.wait()
            out[slot] = dev.reference_macromodels("library", n_centers=8, seed=3)

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(fit_calls) == 4  # one build: four submodel fits
        (models_a, cached_a), (models_b, cached_b) = out
        assert models_a is models_b
        assert sorted([cached_a, cached_b]) == [False, True]

    def test_memo_stress_builds_each_key_once(self):
        # More threads than cores, a short switch interval, and a memo
        # larger than the key set: a lost update would build a key twice
        # or hand two callers different objects.
        memo = dev.ModelMemo()
        keys = ("a", "b", "c")
        builds = {key: 0 for key in keys}
        seen = {key: set() for key in keys}
        guard = threading.Lock()

        def make_build(key):
            def build():
                with guard:
                    builds[key] += 1
                return dev.ReferenceMacromodels(
                    driver=None, receiver=None, params=None, source=key
                )
            return build

        def worker(offset):
            for k in range(60):
                key = keys[(k + offset) % len(keys)]
                models, _ = memo.get(key, make_build(key))
                with guard:
                    seen[key].add(id(models))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert builds == {key: 1 for key in keys}
        assert all(len(ids) == 1 for ids in seen.values())
        assert len(memo) == len(keys)


class TestMemoImmutability:
    def test_cached_model_arrays_are_read_only(self, memo):
        models, _ = dev.reference_macromodels("library", n_centers=8)
        arrays = [
            models.driver.submodel_up.expansion.centers,
            models.driver.submodel_down.expansion.weights,
            models.driver.weights.up_wu,
            models.receiver.protection_up.expansion.centers,
            models.receiver.linear.b_past,
        ]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            models.driver = None

    def test_unknown_source_and_stray_embedded_models_are_rejected(self, memo):
        with pytest.raises(ValueError, match="unknown device-model source"):
            dev.reference_macromodels("spice")
        with pytest.raises(ValueError, match="source='inline'"):
            dev.reference_macromodels("library", driver={"type": "driver"})


def test_transient_perf_stats_record_memo_and_unknowns(memo):
    result = run(_spec(link={"segments": 60}))
    stats = result.perf_stats
    assert stats["backend"] == "sparse"
    assert stats["n_unknowns"] == 121
    assert stats["models"]["source"] == "library"
