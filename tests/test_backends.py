"""Linear-solver backend equivalence and routing (PR 4).

Pins the contracts of :mod:`repro.perf.backends`:

* sparse-vs-dense waveforms agree to <= 1e-12 relative on linear ladders,
  2-D meshes and nonlinear (macromodel / transistor) circuits;
* a purely linear sparse transient performs exactly one symbolic and one
  numeric factorization; nonlinear transients reuse the cached sparsity
  pattern;
* backend auto-selection (``REPRO_SPARSE_THRESHOLD`` override included)
  and the ``engine.sparse_mna`` / ``engine.batch_prepare`` job routing;
* cross-scenario ``BatchedPrepare`` folding matches sequential runs;
* the scipy-less degradation path (import-hook monkeypatch) still matches
  the reference solver.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys

import numpy as np
import pytest

from repro.circuits.elements import Capacitor, Resistor, VoltageSource
from repro.circuits.ladder import (
    CapacitorBank,
    add_lc_ladder,
    rc_grid_circuit,
    rc_ladder_circuit,
)
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.perf import backends as backends_mod
from repro.perf.backends import resolve_backend_name, sparse_threshold
from repro.waveforms.signals import BitPattern

REL_TOL = 1e-12


def _stimulus():
    return BitPattern(pattern="0110", bit_time=1e-9, low=0.0, high=1.8, edge_time=1e-10)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-30)


def _run(circuit_factory, probe, backend=None, fast=None, duration=2.5e-9, dt=1e-11):
    solver = TransientSolver(
        circuit_factory(), dt, options=TransientOptions(fast=fast, backend=backend)
    )
    result = solver.run(duration, record_nodes=[probe], record_branches=[])
    return result.voltage(probe), solver.perf_stats


class TestLinearEquivalence:
    def test_ladder_sparse_matches_dense_and_reference(self):
        factory = lambda: rc_ladder_circuit(60, waveform=_stimulus())[0]  # noqa: E731
        ref, _ = _run(factory, "n20", fast=False)
        dense, dense_stats = _run(factory, "n20", backend="dense")
        sparse, sparse_stats = _run(factory, "n20", backend="sparse")
        assert np.max(np.abs(ref)) > 0.5  # the probe actually sees the signal
        assert _rel_err(dense, ref) <= REL_TOL
        assert _rel_err(sparse, ref) <= REL_TOL
        assert dense_stats["backend"] == "dense"
        assert sparse_stats["backend"] == "sparse"

    def test_mesh_sparse_matches_dense(self):
        factory = lambda: rc_grid_circuit(8, 8, waveform=_stimulus())[0]  # noqa: E731
        dense, _ = _run(factory, "g1_1", backend="dense")
        sparse, _ = _run(factory, "g1_1", backend="sparse")
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL

    def test_linear_sparse_factors_exactly_once(self):
        factory = lambda: rc_ladder_circuit(40, waveform=_stimulus())[0]  # noqa: E731
        _, stats = _run(factory, "n20", backend="sparse")
        assert stats["linear_only"] is True
        assert stats["symbolic_factorizations"] == 1
        assert stats["sparse_factorizations"] == 1
        assert stats["factorizations"] == 1
        assert stats["cached_solves"] > 0
        assert stats["dense_solves"] == 0

    def test_capacitor_bank_matches_individual_capacitors(self):
        def individual():
            circuit = Circuit("individual")
            circuit.add(VoltageSource("vin", "in", GROUND, _stimulus()))
            prev = "in"
            for k in range(30):
                node = f"n{k + 1}"
                circuit.add(Resistor(f"r{k}", prev, node, 1.0))
                circuit.add(Capacitor(f"c{k}", node, GROUND, 10e-15))
                prev = node
            circuit.add(Resistor("rload", prev, GROUND, 500.0))
            return circuit

        def banked():
            circuit = Circuit("banked")
            circuit.add(VoltageSource("vin", "in", GROUND, _stimulus()))
            prev = "in"
            nodes = []
            for k in range(30):
                node = f"n{k + 1}"
                circuit.add(Resistor(f"r{k}", prev, node, 1.0))
                nodes.append(node)
                prev = node
            circuit.add(CapacitorBank("cbank", nodes, 10e-15))
            circuit.add(Resistor("rload", prev, GROUND, 500.0))
            return circuit

        ref, _ = _run(individual, "n15", fast=False)
        for backend in (None, "dense", "sparse"):
            wave, _ = _run(banked, "n15", backend=backend)
            assert _rel_err(wave, ref) <= REL_TOL


class TestNonlinearEquivalence:
    def test_rbf_ladder_link_sparse_matches_dense(self, params, driver_model, receiver_model):
        from repro.circuits.rbf_element import MacromodelElement
        from repro.macromodel.driver import LogicStimulus

        dt = 1e-11

        def factory():
            stimulus = LogicStimulus.from_pattern("010", 2e-9)
            circuit = Circuit("rbf-ladder")
            circuit.add(
                MacromodelElement("drv", "near", GROUND, driver_model.bound(stimulus), dt)
            )
            add_lc_ladder(circuit, "tl", "near", "far", 131.0, 0.4e-9, 40)
            circuit.add(Resistor("rload", "far", GROUND, 500.0))
            circuit.add(Capacitor("cload", "far", GROUND, 1e-12))
            circuit.add(MacromodelElement("rx", "far", GROUND, receiver_model, dt))
            return circuit

        dense, dense_stats = _run(factory, "far", backend="dense", duration=3e-9, dt=dt)
        sparse, sparse_stats = _run(factory, "far", backend="sparse", duration=3e-9, dt=dt)
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        assert dense_stats["linear_only"] is False
        # the union pattern is built once and then reused every iteration
        assert sparse_stats["symbolic_factorizations"] == 1
        assert sparse_stats["pattern_reuses"] > 100
        assert sparse_stats["sparse_factorizations"] == sparse_stats["factorizations"]

    def test_transistor_driver_pattern_growth(self, params):
        # CMOS inverter stages switch between cutoff and conduction; a
        # MOSFET in cutoff skips its stamps entirely, so the sparse union
        # pattern grows when it first conducts — waveforms must still match.
        from repro.circuits.devices import add_cmos_driver
        from repro.waveforms.signals import PiecewiseLinearWaveform

        def factory():
            stimulus = PiecewiseLinearWaveform(
                [0.0, 0.5e-9, 0.6e-9, 2e-9], [0.0, 0.0, params.vdd, params.vdd]
            )
            circuit = Circuit("inverter")
            add_cmos_driver(circuit, "drv", "pad", stimulus, params)
            circuit.add(Resistor("rload", "pad", GROUND, 500.0))
            return circuit

        dense, _ = _run(factory, "pad", backend="dense", duration=2e-9, dt=1e-11)
        sparse, stats = _run(factory, "pad", backend="sparse", duration=2e-9, dt=1e-11)
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        assert stats["symbolic_factorizations"] >= 1
        assert stats["pattern_reuses"] > 0


class TestBackendResolution:
    def test_auto_threshold(self):
        assert resolve_backend_name(None, 8) == "dense"
        assert resolve_backend_name("auto", sparse_threshold()) == "dense"
        assert resolve_backend_name(None, sparse_threshold() + 1) == "sparse"
        assert resolve_backend_name("dense", 100000) == "dense"
        assert resolve_backend_name("sparse", 4) == "sparse"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown linear-solver backend"):
            resolve_backend_name("cholesky", 10)
        with pytest.raises(ValueError, match="backend must be one of"):
            TransientOptions(backend="cholesky")

    def test_env_threshold_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "10")
        assert sparse_threshold() == 10
        assert resolve_backend_name(None, 11) == "sparse"
        monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "not-a-number")
        assert sparse_threshold() == backends_mod.SPARSE_THRESHOLD

    def test_auto_selects_sparse_above_env_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "16")
        factory = lambda: rc_ladder_circuit(40, waveform=_stimulus())[0]  # noqa: E731
        _, stats = _run(factory, "n20", duration=0.5e-9)
        assert stats["backend"] == "sparse"


class TestSweepBackends:
    def _scenarios(self):
        from repro.sweep.scenario import Scenario

        return [
            Scenario(name="a", bit_pattern="010"),
            Scenario(name="b", bit_pattern="011"),
            Scenario(name="c", bit_pattern="010", corner={"z0": 100.0}),
        ]

    def test_linear_sweep_sparse_backend_matches_sequential(self):
        from repro.sweep.links import linear_link_sweep

        options = TransientOptions(backend="sparse")
        sweep = linear_link_sweep(
            self._scenarios(), dt=1e-11, duration=3e-9, options=options
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()
        for name in ("a", "b", "c"):
            for node in ("near", "far"):
                err = _rel_err(
                    batched.results[name].voltage(node),
                    sequential.results[name].voltage(node),
                )
                assert err <= REL_TOL
        # two static groups (nominal corner shared by a+b, c alone), each
        # factored exactly once for the whole batch
        assert batched.perf_stats["static_groups"] == 2
        assert batched.perf_stats["shared_factorizations"] == 2
        assert batched.perf_stats["block_solves"] > 0


class TestBatchedPrepare:
    def test_rbf_sweep_batch_prepare_matches_sequential(self, driver_model, receiver_model):
        from repro.sweep.links import rbf_link_sweep
        from repro.sweep.scenario import Scenario

        scenarios = [
            Scenario(name=f"s{k}", bit_pattern=pattern)
            for k, pattern in enumerate(["010", "011", "0110"])
        ]
        devices = {None: (driver_model, receiver_model)}
        batched = rbf_link_sweep(
            scenarios, devices, dt=1e-11, duration=3e-9, batch_prepare=True
        ).run()
        sequential = rbf_link_sweep(
            scenarios, devices, dt=1e-11, duration=3e-9
        ).run_sequential()
        for scenario in scenarios:
            for node in ("near", "far"):
                err = _rel_err(
                    batched.results[scenario.name].voltage(node),
                    sequential.results[scenario.name].voltage(node),
                )
                assert err <= REL_TOL
        assert batched.perf_stats["batched_prepare_folds"] > 0
        assert batched.perf_stats["batched_prepare_scenarios"] >= (
            3 * batched.perf_stats["batched_prepare_folds"] // 2
        )

    def test_flag_off_keeps_scalar_prepare(self, driver_model, receiver_model):
        from repro.sweep.links import rbf_link_sweep
        from repro.sweep.scenario import Scenario

        scenarios = [Scenario(name="x", bit_pattern="010"), Scenario(name="y", bit_pattern="011")]
        result = rbf_link_sweep(
            scenarios, {None: (driver_model, receiver_model)}, dt=1e-11, duration=1e-9
        ).run()
        assert result.perf_stats["batched_prepare_folds"] == 0


class TestJobRouting:
    def _sparse_spec(self, segments=40):
        # 81 unknowns: small enough that the sparse_mna=False comparison
        # job auto-resolves to the dense backend.
        from repro.api import SimulationSpec
        from repro.api.spec import DeviceSpec, EngineOptions, LinkSpec

        return SimulationSpec(
            kind="circuit",
            duration=1.5e-9,
            devices=DeviceSpec(source="library", n_centers=20),
            link=LinkSpec(segments=segments),
            engine=EngineOptions(dt=1e-11, sparse_mna=True),
        )

    def test_sparse_mna_job_runs_on_sparse_backend(self):
        from repro.api import run

        spec = self._sparse_spec()
        result = run(spec)
        assert result.perf_stats["backend"] == "sparse"
        assert result.perf_stats["symbolic_factorizations"] == 1
        dense = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, sparse_mna=False)
        ))
        assert dense.perf_stats["backend"] == "dense"
        err = _rel_err(result.waveform("far_end"), dense.waveform("far_end"))
        assert err <= REL_TOL

    def test_batch_prepare_job_runs_and_folds(self, driver_model, receiver_model):
        from repro.api import SimulationSpec, run
        from repro.api.spec import EngineOptions, ScenarioSpec
        from repro.experiments.devices import ReferenceMacromodels
        from repro.macromodel.library import ReferenceDeviceParameters

        spec = SimulationSpec(
            kind="sweep",
            duration=1.5e-9,
            scenarios=(
                ScenarioSpec(name="a", bit_pattern="010"),
                ScenarioSpec(name="b", bit_pattern="011"),
            ),
            engine=EngineOptions(dt=1e-11, sweep_family="rbf", batch_prepare=True),
        )
        models = ReferenceMacromodels(
            driver=driver_model, receiver=receiver_model,
            params=ReferenceDeviceParameters(), source="library",
        )
        result = run(spec, models=models)
        assert result.perf_stats["batched_prepare_folds"] > 0

    def test_golden_sparse_ladder_fixture_is_valid(self):
        import os

        from repro.api import load_spec

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "jobs", "sparse_ladder.json",
        )
        spec = load_spec(path)
        assert spec.kind == "circuit"
        assert spec.engine.sparse_mna is True
        assert spec.link.segments >= 200  # well past the sparse threshold

    def test_golden_batched_sweep_fixture_is_valid(self):
        import os

        from repro.api import load_spec

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "jobs", "pattern_corner_sweep_batched.json",
        )
        spec = load_spec(path)
        assert spec.kind == "sweep"
        assert spec.engine.batch_prepare is True


class TestSingularRobustness:
    def _singular_circuit(self):
        # Two voltage sources across the same node pair: duplicate branch
        # rows make the MNA matrix exactly singular.
        circuit = Circuit("singular")
        circuit.add(VoltageSource("v1", "a", GROUND, 1.0))
        circuit.add(VoltageSource("v2", "a", GROUND, 1.0))
        circuit.add(Resistor("r1", "a", GROUND, 100.0))
        return circuit

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_sparse_linear_singular_falls_back_like_dense(self):
        dense, dense_stats = _run(self._singular_circuit, "a", backend="dense",
                                  duration=2e-10)
        sparse, sparse_stats = _run(self._singular_circuit, "a", backend="sparse",
                                    duration=2e-10)
        assert np.all(np.isfinite(dense)) and np.all(np.isfinite(sparse))
        assert _rel_err(sparse, dense) <= REL_TOL
        # both backends end on the robust dense lstsq path, never a cache
        assert dense_stats["dense_solves"] > 0
        assert sparse_stats["dense_solves"] > 0

    def test_shared_context_sparse_singular_block_solve(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        from repro.perf.mna import SharedStaticContext

        context = SharedStaticContext()
        singular = scipy_sparse.csc_matrix(np.ones((2, 2)))
        context.sparse_state = (None, None, None, singular)
        context.ensure_factorized()  # must not raise
        assert context.sparse_lu is None
        x = context.solve_block(np.ones((2, 2)))
        assert np.all(np.isfinite(x))


class TestSweepSegments:
    def _spec(self, family):
        from repro.api import SimulationSpec
        from repro.api.spec import EngineOptions, LinkSpec, ScenarioSpec

        return SimulationSpec(
            kind="sweep",
            duration=1e-9,
            link=LinkSpec(segments=30),
            scenarios=(
                ScenarioSpec(name="a", bit_pattern="010"),
                ScenarioSpec(name="b", bit_pattern="011"),
            ),
            engine=EngineOptions(dt=1e-11, sweep_family=family),
        )

    def test_link_segments_reach_the_sweep_builders(self):
        # A sweep job asking for an LC-ladder interconnect must actually
        # get one (regression: the builders used to ignore link.segments).
        from repro.sweep.links import LinearLinkSpec, RBFLinkSpec
        from repro.sweep.scenario import Scenario

        spec = self._spec("linear")
        link_spec = LinearLinkSpec.from_job_spec(spec)
        assert link_spec.segments == 30
        circuit = link_spec.build(Scenario(name="a", bit_pattern="010"))
        names = {element.name for element in circuit.elements}
        # ladder banks, not a MoC line (PR 5 banked the ladder generators)
        assert "tl_l" in names and "tl_c" in names
        assert len(circuit.element("tl_l")) == 30
        assert RBFLinkSpec.from_job_spec(self._spec("rbf")).segments == 30

    def test_linear_ladder_sweep_runs_through_the_api(self):
        from repro.api import run

        result = run(self._spec("linear"))
        assert result.perf_stats["shared_factorizations"] >= 1
        for name in result.names():
            assert np.all(np.isfinite(result.waveform(name)))


class _ScipyBlocker:
    """Meta-path finder that refuses every scipy import."""

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} blocked by test")
        return None


class TestScipylessDegradation:
    @pytest.fixture()
    def no_scipy(self):
        """Reload the backend layer with scipy imports blocked."""
        import repro.perf.mna as mna_mod

        blocker = _ScipyBlocker()
        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "scipy" or name.startswith("scipy.")
        }
        sys.meta_path.insert(0, blocker)
        try:
            importlib.reload(backends_mod)
            importlib.reload(mna_mod)
            assert backends_mod._lu_factor is None
            assert backends_mod._splu is None
            yield
        finally:
            sys.meta_path.remove(blocker)
            sys.modules.update(saved)
            importlib.reload(backends_mod)
            importlib.reload(mna_mod)
            assert backends_mod._lu_factor is not None

    def test_dense_fallback_matches_reference(self, no_scipy):
        factory = lambda: rc_ladder_circuit(25, waveform=_stimulus())[0]  # noqa: E731
        ref, _ = _run(factory, "n15", fast=False)
        wave, stats = _run(factory, "n15")
        assert np.max(np.abs(ref)) > 0.5
        assert _rel_err(wave, ref) <= REL_TOL
        # no scipy: no cached LU, a dense numpy solve per iteration instead
        assert stats["backend"] == "dense"
        assert stats["dense_solves"] > 0
        assert stats["cached_solves"] == 0
        assert stats["factorizations"] == 0

    def test_sparse_request_degrades_to_dense_with_warning(self, no_scipy):
        assert backends_mod.sparse_available() is False
        # auto selection degrades silently; an explicit request warns
        assert backends_mod.resolve_backend_name("auto", 10000) == "dense"
        with pytest.warns(RuntimeWarning, match="scipy is unavailable"):
            assert backends_mod.resolve_backend_name("sparse", 10000) == "dense"
        factory = lambda: rc_ladder_circuit(25, waveform=_stimulus())[0]  # noqa: E731
        ref, _ = _run(factory, "n15", fast=False)
        with pytest.warns(RuntimeWarning, match="falling back to the dense"):
            wave, stats = _run(factory, "n15", backend="sparse", duration=1e-9)
        assert stats["backend"] == "dense"
        assert _rel_err(wave, ref[: wave.size]) <= REL_TOL
