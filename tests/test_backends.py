"""Linear-solver backend equivalence and routing (PR 4).

Pins the contracts of :mod:`repro.perf.backends`:

* sparse-vs-dense waveforms agree to <= 1e-12 relative on linear ladders,
  2-D meshes and nonlinear (macromodel / transistor) circuits;
* a purely linear sparse transient performs exactly one symbolic and one
  numeric factorization; nonlinear transients reuse the cached sparsity
  pattern, factor their static network once and solve each Newton
  iteration as a port-rank update, or, when its guard rejects the update
  or the static network cannot be factored, by factoring the whole
  system;
* each half of the guard catches the loss of digits the other half
  misses: the port rows' residual an ill-conditioned port system, the
  a-priori bound off the ports a cancelling ``x = y - t``;
* backend auto-selection at ``SPARSE_THRESHOLD`` unknowns, including a
  job just past it.
"""

from __future__ import annotations

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.circuits.diode import Diode
from repro.circuits.elements import Capacitor, CurrentSource, Resistor, VoltageSource
from repro.circuits.ladder import (
    CapacitorBank,
    add_lc_ladder,
    rc_grid_circuit,
    rc_ladder_circuit,
)
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.perf import backends
from repro.perf.backends import SPARSE_THRESHOLD, resolve_backend_name
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


def _rbf_ladder_factory(driver_model, receiver_model, sections=40):
    """The RBF link over an LC ladder: two ports, ``near`` and ``far``."""
    from repro.circuits.rbf_element import MacromodelElement
    from repro.macromodel.driver import LogicStimulus

    dt = 1e-11

    def factory():
        stimulus = LogicStimulus.from_pattern("010", 2e-9)
        circuit = Circuit("rbf-ladder")
        circuit.add(
            MacromodelElement("drv", "near", GROUND, driver_model.bound(stimulus), dt)
        )
        add_lc_ladder(circuit, "tl", "near", "far", 131.0, 0.4e-9, sections)
        circuit.add(Resistor("rload", "far", GROUND, 500.0))
        circuit.add(Capacitor("cload", "far", GROUND, 1e-12))
        circuit.add(MacromodelElement("rx", "far", GROUND, receiver_model, dt))
        return circuit

    return factory


def _stacked_diodes():
    # Node "m" meets the rest of the network only through the two diodes,
    # so the static matrix holds it by gmin alone.
    circuit = Circuit("stacked-diodes")
    circuit.add(VoltageSource("vin", "in", GROUND, _stimulus()))
    circuit.add(Resistor("rs", "in", "a", 200.0))
    circuit.add(Capacitor("ca", "a", GROUND, 1e-12))
    circuit.add(Diode("d1", "a", "m"))
    circuit.add(Diode("d2", "m", GROUND))
    return circuit


def _iterations(stats) -> int:
    """Newton iterations of a sparse run: each one assembles a pattern."""
    return stats["pattern_reuses"] + stats["symbolic_factorizations"]


class TestNonlinearEquivalence:
    def test_rbf_ladder_link_sparse_matches_dense(self, driver_model, receiver_model):
        factory = _rbf_ladder_factory(driver_model, receiver_model)
        dense, dense_stats = _run(factory, "far", backend="dense", duration=3e-9)
        sparse, sparse_stats = _run(factory, "far", backend="sparse", duration=3e-9)
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        assert dense_stats["linear_only"] is False
        # the union pattern is built once and then reused every iteration
        assert sparse_stats["symbolic_factorizations"] == 1
        assert sparse_stats["pattern_reuses"] > 100
        # the static network is factored once; every iteration is a
        # port-rank update of those factors
        assert sparse_stats["sparse_factorizations"] == sparse_stats["factorizations"] == 1
        assert sparse_stats["port_solves"] == _iterations(sparse_stats)
        assert sparse_stats["dense_solves"] == 0
        assert sparse_stats["health"]["backend_fallbacks"] == 0

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


class TestPortRankSolve:
    def test_gmin_held_port_node_matches_dense(self, monkeypatch):
        dense, _ = _run(_stacked_diodes, "m", backend="dense", duration=4e-9)
        calls = []

        def port_solve(backend, rhs):
            calls.append(1)
            return None

        monkeypatch.setattr(backends.SparseBackend, "_port_solve", port_solve)
        sparse, stats = _run(_stacked_diodes, "m", backend="sparse", duration=4e-9)
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        # the port "m" is held by gmin alone, so no iteration tried the
        # update: each one factored the whole system, and the static
        # network was never factored on its own
        assert calls == []
        assert stats["port_solves"] == 0
        assert stats["sparse_factorizations"] == _iterations(stats)
        assert stats["health"]["backend_fallbacks"] == 0

    def test_port_rows_catch_an_ill_conditioned_port_solve(self):
        # 1 GΩ holds "m" in the static network, so the update is tried.
        # With both diodes conducting, I + W D is ill-conditioned (~1e7):
        # the p x p solve loses digits that only the residual of the port
        # rows shows, since x = y - t cancels little there.
        def factory():
            circuit = _stacked_diodes()
            circuit.add(Resistor("rm", "m", GROUND, 1e9))
            return circuit

        dense, _ = _run(factory, "m", backend="dense", duration=4e-9)
        sparse, stats = _run(factory, "m", backend="sparse", duration=4e-9)
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        assert stats["port_solves"] > 0
        assert stats["sparse_factorizations"] > 1
        assert stats["health"]["backend_fallbacks"] == 0

    def test_network_rows_catch_a_cancelling_update(self):
        # "b" reaches ground through 1 GΩ alone, so the static solution y
        # reads ~1e6 V where the conducting diode at the port "a" holds
        # below 1 V: x = y - t cancels six digits off the port, while the
        # port row's own residual stays small.
        def factory():
            circuit = Circuit("island")
            source = BitPattern(pattern="0110", bit_time=1e-9, low=0.0, high=1e-3,
                                edge_time=1e-10)
            circuit.add(CurrentSource("iin", GROUND, "b", source))
            circuit.add(Resistor("r1", "a", "b", 0.1))
            circuit.add(Resistor("rw", "b", GROUND, 1e9))
            circuit.add(Diode("d", "a", GROUND))
            return circuit

        dense, _ = _run(factory, "a", backend="dense", duration=4e-9)
        sparse, stats = _run(factory, "a", backend="sparse", duration=4e-9)
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        assert stats["port_solves"] > 0
        assert stats["sparse_factorizations"] > 1
        assert stats["health"]["backend_fallbacks"] == 0

    def test_guard_rejection_factors_the_whole_system(
        self, driver_model, receiver_model, monkeypatch
    ):
        # No residual passes a negative bound (an exactly zero one with a
        # zero scale aside), so every such iteration takes splu(A).
        monkeypatch.setattr(backends, "PORT_SOLVE_RTOL", -1.0)
        factory = _rbf_ladder_factory(driver_model, receiver_model)
        dense, _ = _run(factory, "far", backend="dense", duration=3e-9)
        sparse, stats = _run(factory, "far", backend="sparse", duration=3e-9)
        assert _rel_err(sparse, dense) <= REL_TOL
        rejected = _iterations(stats) - stats["port_solves"]
        assert rejected > 0.9 * _iterations(stats)
        assert stats["sparse_factorizations"] == 1 + rejected
        assert stats["health"]["backend_fallbacks"] == 0

    def test_failed_static_factorization_factors_every_iteration(self, monkeypatch):
        # Without GMIN the static matrix has an empty row at "m": splu
        # cannot factor it, so every iteration factors the whole system.
        monkeypatch.setattr(backends, "GMIN", 0.0)

        def run(backend):
            solver = TransientSolver(
                _stacked_diodes(), 1e-11, options=TransientOptions(backend=backend),
            )
            result = solver.run(4e-9, record_nodes=["m"], record_branches=[])
            return result.voltage("m"), solver.perf_stats

        dense, _ = run("dense")
        sparse, stats = run("sparse")
        assert np.max(np.abs(dense)) > 0.5
        assert _rel_err(sparse, dense) <= REL_TOL
        assert stats["port_solves"] == 0
        assert stats["sparse_factorizations"] == _iterations(stats)
        assert stats["health"]["backend_fallbacks"] == 0

    def test_finished_run_frees_its_factors_without_the_collector(
        self, driver_model, receiver_model
    ):
        factory = _rbf_ladder_factory(driver_model, receiver_model, sections=10)
        solver = TransientSolver(factory(), 1e-11, TransientOptions(backend="sparse"))
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            run = solver.begin(2e-10, record_nodes=["far"], record_branches=[])
            for _ in range(run.n_steps):
                solver.step_once(run)
            solver.finish(run)
            backend = weakref.ref(run.assembler.backend)
            lu = run.assembler.static.lu
            assert lu is not None and backend()._Z is not None
            baseline = sys.getrefcount(lu)
            del run
            assert backend() is None
            assert sys.getrefcount(lu) == baseline - 1  # only ours is left
        finally:
            if gc_was_enabled:
                gc.enable()


class TestBackendResolution:
    def test_auto_threshold(self):
        assert resolve_backend_name(None, 8) == "dense"
        assert resolve_backend_name("auto", SPARSE_THRESHOLD) == "dense"
        assert resolve_backend_name(None, SPARSE_THRESHOLD + 1) == "sparse"
        assert resolve_backend_name("dense", 100000) == "dense"
        assert resolve_backend_name("sparse", 4) == "sparse"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown linear-solver backend"):
            resolve_backend_name("cholesky", 10)
        with pytest.raises(ValueError, match="backend must be one of"):
            TransientOptions(backend="cholesky")

    def test_auto_selects_sparse_above_threshold(self):
        # 120 sections: 122 unknowns, past the threshold with no option set
        factory = lambda: rc_ladder_circuit(120, waveform=_stimulus())[0]  # noqa: E731
        _, stats = _run(factory, "n20", duration=0.5e-9)
        assert stats["n_unknowns"] > SPARSE_THRESHOLD
        assert stats["backend"] == "sparse"


def _sweep_scenarios():
    """Two corner groups: the nominal one shared by a and b, and c alone."""
    from repro.sweep.scenario import Scenario

    return [
        Scenario(name="a", bit_pattern="010"),
        Scenario(name="b", bit_pattern="011"),
        Scenario(name="c", bit_pattern="010", corner={"z0": 100.0}),
    ]


class TestSweepBackends:
    def test_linear_sweep_sparse_backend_matches_sequential(self):
        from repro.sweep.links import linear_link_sweep

        options = TransientOptions(backend="sparse")
        sweep = linear_link_sweep(
            _sweep_scenarios(), dt=1e-11, duration=3e-9, options=options
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

    def test_rbf_ladder_sweep_shares_its_static_factors(self, driver_model, receiver_model):
        # Newton scenarios above the threshold factor their corner group's
        # static network once and stay bit-identical to standalone runs.
        from repro.sweep.links import RBFLinkSpec, rbf_link_sweep

        sweep = rbf_link_sweep(
            _sweep_scenarios(), {None: (driver_model, receiver_model)}, dt=1e-11,
            duration=1.5e-9, spec=RBFLinkSpec(segments=60),
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()
        for name in ("a", "b", "c"):
            for node in ("near", "far"):
                assert batched.voltage(name, node).tobytes() == \
                    sequential.voltage(name, node).tobytes(), (name, node)
        stats = batched.perf_stats
        assert stats["per_scenario"]["a"]["n_unknowns"] > SPARSE_THRESHOLD
        assert stats["per_scenario"]["a"]["backend"] == "sparse"
        assert stats["static_groups"] == 2
        assert stats["shared_factorizations"] == stats["static_groups"]
        assert all(per["port_solves"] > 0 for per in stats["per_scenario"].values())


class TestJobRouting:
    def test_sparse_mna_job_runs_on_sparse_backend(self):
        # 60 sections: 121 MNA unknowns, just past the threshold, so the
        # job runs sparse with no option asking for it.
        from repro.api import SimulationSpec, run
        from repro.api.engines import _link_description, resolve_models
        from repro.api.spec import DeviceSpec, EngineOptions, LinkSpec
        from repro.circuits.testbenches import run_link_rbf

        spec = SimulationSpec(
            kind="circuit",
            duration=1.5e-9,
            devices=DeviceSpec(source="library", n_centers=20),
            link=LinkSpec(segments=60),
            engine=EngineOptions(dt=1e-11),
        )
        result = run(spec)
        assert result.perf_stats["n_unknowns"] == 121
        assert result.perf_stats["backend"] == "sparse"
        assert result.perf_stats["symbolic_factorizations"] == 1
        models = resolve_models(spec)
        dense = run_link_rbf(
            _link_description(spec), models.driver, models.receiver, dt=1e-11,
            params=models.params, options=TransientOptions(backend="dense"),
        )
        assert dense.metadata["solver_stats"]["backend"] == "dense"
        err = _rel_err(result.waveform("far_end"), dense.voltage("far_end"))
        assert err <= REL_TOL

    def test_golden_sparse_ladder_fixture_is_valid(self):
        import os

        from repro.api import load_spec

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "jobs", "sparse_ladder.json",
        )
        spec = load_spec(path)
        assert spec.kind == "circuit"
        assert spec.link.segments >= 200  # well past the sparse threshold


class TestSingularRobustness:
    def _singular_circuit(self):
        # Two voltage sources across the same node pair: duplicate branch
        # rows make the MNA matrix exactly singular.
        circuit = Circuit("singular")
        circuit.add(VoltageSource("v1", "a", GROUND, 1.0))
        circuit.add(VoltageSource("v2", "a", GROUND, 1.0))
        circuit.add(Resistor("r1", "a", GROUND, 100.0))
        return circuit

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

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_dense_singular_static_network_is_factored_once(self, monkeypatch):
        from repro.perf import mna

        calls = []
        getrf = mna._dgetrf
        monkeypatch.setattr(
            mna, "_dgetrf", lambda *args: calls.append(args) or getrf(*args)
        )
        solver = TransientSolver(self._singular_circuit(), 1e-11,
                                 options=TransientOptions(backend="dense"))
        result = solver.run(5e-11, record_nodes=["a"], record_branches=[])
        assert np.all(np.isfinite(result.voltage("a")))
        assert len(calls) == 1
        # each of the run's six solves falls back once, with the message the
        # failed factorization stored
        stats = solver.perf_stats
        health = stats["health"]
        assert health["backend_fallbacks"] == stats["dense_solves"] == 6
        [message] = {event["message"] for event in health["events"]}
        assert "singular" in message

    def test_shared_context_sparse_singular_block_solve(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        from repro.perf.mna import SharedStaticContext

        context = SharedStaticContext()
        singular = scipy_sparse.csc_matrix(np.ones((2, 2)))
        context.sparse_state = (None, None, None, singular)
        context.ensure_factorized()  # must not raise
        assert context.lu is None
        x = context.solve_block(np.ones((2, 2)))
        assert np.all(np.isfinite(x))


class TestUnfactorableStaticNetwork:
    """A static network ``splu`` cannot factor is tried once per context:
    once per standalone run, or once per sweep corner group."""

    @pytest.fixture
    def attempts(self, monkeypatch):
        """``splu`` raises for every static CSC; returns the attempts list."""
        from repro.perf import mna

        contexts, attempts = [], []
        init, real_splu = mna.SharedStaticContext.__init__, backends._splu

        def record(context):
            init(context)
            contexts.append(context)

        def splu(matrix):
            if any(ctx.sparse_state is not None and matrix is ctx.sparse_state[3]
                   for ctx in contexts):
                attempts.append(matrix)
                raise RuntimeError("Factor is exactly singular")
            return real_splu(matrix)

        monkeypatch.setattr(mna.SharedStaticContext, "__init__", record)
        monkeypatch.setattr(mna, "_splu", splu)
        monkeypatch.setattr(backends, "_splu", splu)
        return attempts

    def test_linear_run_tries_once(self, attempts):
        factory = lambda: rc_ladder_circuit(40, waveform=_stimulus())[0]  # noqa: E731
        dense, _ = _run(factory, "n20", backend="dense")
        sparse, stats = _run(factory, "n20", backend="sparse")
        assert len(attempts) == 1
        assert _rel_err(sparse, dense) <= REL_TOL
        # every step solves densely and says so
        assert stats["sparse_factorizations"] == stats["cached_solves"] == 0
        assert stats["dense_solves"] == stats["health"]["backend_fallbacks"] > 200

    def test_newton_run_tries_once(self, attempts, driver_model, receiver_model):
        factory = _rbf_ladder_factory(driver_model, receiver_model)
        dense, _ = _run(factory, "far", backend="dense", duration=3e-9)
        sparse, stats = _run(factory, "far", backend="sparse", duration=3e-9)
        assert len(attempts) == 1
        assert _rel_err(sparse, dense) <= REL_TOL
        assert stats["port_solves"] == 0
        assert stats["sparse_factorizations"] == _iterations(stats)

    def test_newton_sweep_tries_once_per_corner_group(
        self, attempts, driver_model, receiver_model
    ):
        from repro.sweep.links import RBFLinkSpec, rbf_link_sweep

        result = rbf_link_sweep(
            _sweep_scenarios(), {None: (driver_model, receiver_model)}, dt=1e-11,
            duration=0.5e-9, spec=RBFLinkSpec(segments=60),
        ).run()
        stats = result.perf_stats
        assert stats["static_groups"] == len(attempts) == 2
        assert set(result.status.values()) == {"ok"}
        assert all(per["port_solves"] == 0 for per in stats["per_scenario"].values())

    def test_linear_sweep_tries_once_per_corner_group(self, attempts):
        from repro.sweep.links import linear_link_sweep

        result = linear_link_sweep(
            _sweep_scenarios(), dt=1e-11, duration=0.5e-9,
            options=TransientOptions(backend="sparse"),
        ).run()
        stats = result.perf_stats
        assert stats["static_groups"] == len(attempts) == 2
        assert stats["lane_sets"] == 1
        assert stats["shared_factorizations"] == 0
        assert stats["health"]["backend_fallbacks"] == 2


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

