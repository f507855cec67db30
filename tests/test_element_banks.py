"""Element-bank layer: banked-vs-scalar equivalence, one element list.

Pins the contracts of the vectorised element banks
(:mod:`repro.circuits.elements`) and of the fast MNA path
(:mod:`repro.perf.mna`), which stamps a netlist as written:

* banked and scalar netlists produce waveforms within 1e-12 relative on
  RC / RLC / ladder / mesh circuits, across both solver backends, for
  linear and nonlinear (RBF receiver) cases;
* scalar netlists with instance-customised elements and recorded branch
  currents match the reference path, and both paths accept exactly the
  circuit's own stateful elements, counted in ``perf_stats``;
* the per-step accept list is built from the explicit ``needs_accept``
  flag (regression: the old bound-method comparison silently skipped
  accepts not defined directly on the leaf class);
* ladder-generator edge cases: ``segments=1``, zero-valued elements
  rejected with a clear error, and the golden ``sparse_ladder.json`` job
  reporting ``banked_elements > 0`` in its CLI artifact.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.circuits.elements import (
    Capacitor,
    CapacitorBank,
    CurrentSource,
    Element,
    Inductor,
    InductorBank,
    Resistor,
    ResistorBank,
    VoltageSource,
)
from repro.circuits.ladder import (
    add_lc_ladder,
    rc_grid_circuit,
    rc_ladder_circuit,
)
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.perf.mna import FastPathAssembler
from repro.waveforms.signals import BitPattern

REL_TOL = 1e-12

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_JOB = os.path.join(REPO_ROOT, "examples", "jobs", "sparse_ladder.json")


def _stimulus():
    return BitPattern(pattern="0110", bit_time=1e-9, low=0.0, high=1.8, edge_time=1e-10)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-30)


def _run(circuit_factory, probe, backend=None, fast=None,
         duration=1.2e-9, dt=1e-11, record_branches=[]):
    solver = TransientSolver(
        circuit_factory(), dt,
        options=TransientOptions(fast=fast, backend=backend),
    )
    result = solver.run(duration, record_nodes=[probe] if probe else None,
                        record_branches=record_branches)
    return result, solver.perf_stats


# -- circuit families --------------------------------------------------------

def _rc_ladder(banked):
    return lambda: rc_ladder_circuit(40, waveform=_stimulus(), banked=banked)[0]


def _mesh(banked):
    return lambda: rc_grid_circuit(6, 6, waveform=_stimulus(), banked=banked)[0]


def _rlc_link(banked):
    """A driven LC-ladder link: series R source, 25-section line, RC load."""

    def build():
        circuit = Circuit("rlc-link")
        circuit.add(VoltageSource("vin", "in", GROUND, _stimulus()))
        circuit.add(Resistor("rs", "in", "near", 50.0))
        add_lc_ladder(circuit, "tl", "near", "far", 131.0, 0.4e-9, 25,
                      banked=banked)
        circuit.add(Resistor("rload", "far", GROUND, 500.0))
        circuit.add(Capacitor("cload", "far", GROUND, 1e-12))
        return circuit

    return build


#: builder, probe node, duration long enough for the probe to see the edge
FAMILIES = {
    "rc-ladder": (_rc_ladder, "n20", 1.2e-9),
    "mesh": (_mesh, "g1_1", 1.2e-9),
    "rlc-link": (_rlc_link, "far", 2.5e-9),
}


class TestBankedVsScalarWaveforms:
    """Differential suite: banked == scalar to <= 1e-12 everywhere."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_linear_families(self, family, backend):
        builders, probe, duration = FAMILIES[family]
        ref, _ = _run(builders(False), probe, fast=False, duration=duration)
        ref = ref.voltage(probe)
        assert np.max(np.abs(ref)) > 0.1  # the probe actually sees the signal
        banked, banked_stats = _run(builders(True), probe, backend=backend,
                                    duration=duration)
        scalar, scalar_stats = _run(builders(False), probe, backend=backend,
                                    duration=duration)
        assert _rel_err(banked.voltage(probe), ref) <= REL_TOL
        assert _rel_err(scalar.voltage(probe), ref) <= REL_TOL
        assert banked_stats["backend"] == backend
        assert banked_stats["banked_elements"] > 0
        assert scalar_stats["banked_elements"] == 0  # stamped as written

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_nonlinear_rbf_receiver(self, backend, driver_model, receiver_model):
        from repro.circuits.rbf_element import MacromodelElement
        from repro.macromodel.driver import LogicStimulus

        dt = 1e-11

        def build(banked):
            def factory():
                stimulus = LogicStimulus.from_pattern("010", 2e-9)
                circuit = Circuit("rbf-ladder")
                circuit.add(MacromodelElement(
                    "drv", "near", GROUND, driver_model.bound(stimulus), dt
                ))
                add_lc_ladder(circuit, "tl", "near", "far", 131.0, 0.4e-9, 20,
                              banked=banked)
                circuit.add(Resistor("rload", "far", GROUND, 500.0))
                circuit.add(Capacitor("cload", "far", GROUND, 1e-12))
                circuit.add(MacromodelElement("rx", "far", GROUND, receiver_model, dt))
                return circuit
            return factory

        ref, _ = _run(build(False), "far", fast=False, duration=3e-9, dt=dt)
        ref = ref.voltage("far")
        banked, stats = _run(build(True), "far", backend=backend,
                             duration=3e-9, dt=dt)
        assert np.max(np.abs(ref)) > 0.5
        assert _rel_err(banked.voltage("far"), ref) <= REL_TOL
        assert stats["linear_only"] is False
        assert stats["banked_elements"] >= 40  # 20 L + 20 C in banks


class TestBankStamps:
    """Unit-level bank contracts: matrices, branch currents, validation."""

    def _assemble(self, circuit, backend="dense", dt=1e-11):
        compiled = circuit.compile()
        asm = FastPathAssembler(circuit, compiled, dt, backend=backend)
        asm.begin_run()
        ctx = asm.begin_step(dt)
        A, rhs = asm.iterate(np.zeros(compiled.n_unknowns), ctx)
        A = A if isinstance(A, np.ndarray) else A.toarray()
        return np.asarray(A), np.asarray(rhs)

    def test_resistor_bank_assembles_identical_matrix(self):
        def build(banked):
            circuit = Circuit("rdiv")
            circuit.add(VoltageSource("vin", "in", GROUND, 1.0))
            if banked:
                circuit.add(ResistorBank(
                    "rbank", ["in", "mid", "mid"], ["mid", "out", GROUND],
                    [100.0, 200.0, 300.0],
                ))
            else:
                circuit.add(Resistor("r0", "in", "mid", 100.0))
                circuit.add(Resistor("r1", "mid", "out", 200.0))
                circuit.add(Resistor("r2", "mid", GROUND, 300.0))
            circuit.add(Resistor("rload", "out", GROUND, 500.0))
            return circuit

        A_scalar, rhs_scalar = self._assemble(build(False))
        A_banked, rhs_banked = self._assemble(build(True))
        np.testing.assert_allclose(A_banked, A_scalar, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rhs_banked, rhs_scalar, rtol=0, atol=1e-15)

    def test_sparse_bank_matrix_matches_dense(self):
        circuit, _ = rc_ladder_circuit(12, waveform=_stimulus())
        A_dense, rhs_dense = self._assemble(circuit, backend="dense")
        circuit, _ = rc_ladder_circuit(12, waveform=_stimulus())
        A_sparse, rhs_sparse = self._assemble(circuit, backend="sparse")
        np.testing.assert_allclose(A_sparse, A_dense, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rhs_sparse, rhs_dense, rtol=0, atol=1e-15)

    def test_inductor_bank_branch_currents_match_scalar(self):
        def build(banked):
            def factory():
                circuit = Circuit("ll")
                circuit.add(VoltageSource("vin", "in", GROUND, _stimulus()))
                circuit.add(Resistor("rs", "in", "a", 50.0))
                if banked:
                    circuit.add(InductorBank("lbank", ["a", "b"], ["b", "out"],
                                             [1e-9, 2e-9]))
                else:
                    circuit.add(Inductor("l0", "a", "b", 1e-9))
                    circuit.add(Inductor("l1", "b", "out", 2e-9))
                circuit.add(Resistor("rload", "out", GROUND, 75.0))
                return circuit
            return factory

        scalar, _ = _run(build(False), "out",
                         record_branches=[("l0", 0), ("l1", 0)])
        banked, _ = _run(build(True), "out",
                         record_branches=[("lbank", 0), ("lbank", 1)])
        assert np.max(np.abs(scalar.branch_current("l0"))) > 0
        for scalar_key, bank_k in (("l0", 0), ("l1", 1)):
            err = _rel_err(banked.branch_current("lbank", bank_k),
                           scalar.branch_current(scalar_key))
            assert err <= REL_TOL

    def test_inductor_bank_claims_one_branch_unknown_per_member(self):
        bank = InductorBank("lb", ["a", "b", "c"], ["b", "c", GROUND], 1e-9)
        assert bank.n_branch_currents == 3
        circuit = Circuit("lbank")
        circuit.add(bank)
        assert circuit.compile().n_unknowns == 3 + 3  # nodes a, b, c + branches

    def test_bank_validation_errors(self):
        with pytest.raises(ValueError, match="same length"):
            ResistorBank("r", ["a", "b"], ["c"], 1.0)
        with pytest.raises(ValueError, match="at least one"):
            ResistorBank("r", [], [], 1.0)
        with pytest.raises(ValueError, match="resistance must be positive"):
            ResistorBank("r", ["a"], [GROUND], 0.0)
        with pytest.raises(ValueError, match="inductance must be positive"):
            InductorBank("l", ["a"], [GROUND], [0.0])
        with pytest.raises(ValueError, match="capacitance must be non-negative"):
            CapacitorBank("c", ["a"], -1e-12)
        with pytest.raises(ValueError, match="one value per bank member"):
            CapacitorBank("c", ["a", "b"], [1e-12, 2e-12, 3e-12])


class TestScalarNetlistsOnFastPath:
    """The fast path stamps scalar netlists as written: it matches the reference."""

    def test_instance_accept_hook_runs_on_both_paths(self):
        # A stock element with an instance-installed accept hook keeps it on
        # the fast path, as on the reference path.
        def factory(calls):
            def build():
                probe = Resistor("rp", "a", GROUND, 100.0)
                probe.needs_accept = True
                probe.accept = lambda x, ctx: calls.append(float(ctx.t))
                circuit = Circuit("probe-hook")
                circuit.add(VoltageSource("vin", "a", GROUND, _stimulus()))
                circuit.add(probe)
                circuit.add(Resistor("r1", "a", "b", 50.0))
                circuit.add(Resistor("r2", "b", GROUND, 50.0))
                return circuit
            return build

        ref_calls, fast_calls = [], []
        ref, _ = _run(factory(ref_calls), "b", fast=False, duration=1e-10)
        fast, _ = _run(factory(fast_calls), "b", backend="dense", duration=1e-10)
        assert len(fast_calls) == len(ref_calls) == 10
        assert _rel_err(fast.voltage("b"), ref.voltage("b")) <= REL_TOL

    def test_instance_value_override_matches_reference(self):
        # ``value`` is the hook the source stamps call per step; an
        # instance override must reach the fast path's stamps.
        def factory():
            circuit = Circuit("value-override")
            custom = VoltageSource("v0", "a", GROUND, 1.0)
            custom.value = lambda t: 2.0
            circuit.add(custom)
            circuit.add(VoltageSource("v1", "b", GROUND, 1.0))
            circuit.add(Resistor("ra", "a", "c", 100.0))
            circuit.add(Resistor("rb", "b", "c", 100.0))
            circuit.add(Resistor("rc", "c", GROUND, 100.0))
            return circuit

        ref, _ = _run(factory, "c", fast=False, duration=1e-10)
        fast, _ = _run(factory, "c", backend="dense", duration=1e-10)
        assert _rel_err(fast.voltage("c"), ref.voltage("c")) <= REL_TOL

    def test_voltage_source_branch_currents_match_reference(self):
        def factory():
            circuit = Circuit("two-sources")
            circuit.add(VoltageSource("v0", "a", GROUND, _stimulus()))
            circuit.add(VoltageSource("v1", "b", GROUND, 0.9))
            circuit.add(Resistor("ra", "a", GROUND, 100.0))
            circuit.add(Resistor("rb", "b", GROUND, 200.0))
            return circuit

        ref, _ = _run(factory, None, fast=False,
                      record_branches=[("v0", 0), ("v1", 0)])
        fast, _ = _run(factory, None, backend="dense",
                       record_branches=[("v0", 0), ("v1", 0)])
        for name in ("v0", "v1"):
            assert _rel_err(fast.branch_current(name),
                            ref.branch_current(name)) <= REL_TOL

    @pytest.mark.parametrize("fast", [True, False])
    def test_both_paths_accept_the_circuits_own_stateful_elements(
        self, fast, monkeypatch
    ):
        # The transistor-level link with an RC load holds scalar sources,
        # resistors and capacitors and an ideal line: each path calls
        # accept on exactly the circuit's own stateful elements, in order,
        # once per step.
        from repro.circuits.testbenches import run_link_transistor
        from repro.core.cosim import LinkDescription

        solvers, accepted = [], []
        begin = TransientSolver.begin

        def recording_begin(self, *args, **kwargs):
            solvers.append(self)
            return begin(self, *args, **kwargs)

        monkeypatch.setattr(TransientSolver, "begin", recording_begin)

        def record(accept):
            def wrapper(self, x, ctx):
                accepted.append(self)
                return accept(self, x, ctx)
            return wrapper

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in {Element, *subclasses(Element)}:
            if "accept" in cls.__dict__:
                monkeypatch.setattr(cls, "accept", record(cls.__dict__["accept"]))

        dt, duration, settle = 5e-12, 3e-10, 1e-10
        link = LinkDescription(load="rc", duration=duration)
        result = run_link_transistor(link, dt=dt, settle=settle,
                                     options=TransientOptions(fast=fast))
        [solver] = solvers
        stateful = [el for el in solver.circuit.elements if el.needs_accept]
        n_steps = int(round((duration + settle) / dt))
        assert len(stateful) >= 4  # device capacitors, the line, the load
        assert [id(el) for el in accepted] == [id(el) for el in stateful] * n_steps
        assert result.metadata["solver_stats"]["accept_calls"] == len(stateful) * n_steps


class TestNeedsAcceptFlag:
    """Regression: the accept list is flag-built, not bound-method-compared."""

    def test_instance_assigned_accept_is_not_skipped(self):
        # The old detection (``type(el).accept is not Element.accept``)
        # missed accepts installed on the *instance* — the class attribute
        # is still the base hook, so the element was silently skipped.
        calls = []

        class Probe(Resistor):
            pass

        probe = Probe("rp", "a", GROUND, 100.0)
        probe.needs_accept = True
        probe.accept = lambda x, ctx: calls.append(float(ctx.t))

        circuit = Circuit("probe")
        circuit.add(VoltageSource("vin", "a", GROUND, 1.0))
        circuit.add(probe)
        solver = TransientSolver(circuit, 1e-11)
        solver.run(1e-10, record_branches=[])
        assert len(calls) == 10
        # the fast path reports its accept bookkeeping
        assert solver.perf_stats["accept_calls"] >= 10

    def test_intermediate_class_accept_runs(self):
        class Intermediate(Element):
            stamp_kind = "static"
            needs_accept = True

            def __init__(self, name):
                super().__init__(name, ("a",))
                self.accepted = 0

            def stamp_static(self, A, ctx):
                pass

            def stamp_rhs(self, rhs, ctx):
                pass

            def stamp(self, A, rhs, x, ctx):
                pass

            def accept(self, x, ctx):
                self.accepted += 1

        class Leaf(Intermediate):
            """Inherits accept from the intermediate class untouched."""

        leaf = Leaf("leaf")
        circuit = Circuit("inherit")
        circuit.add(VoltageSource("vin", "a", GROUND, 1.0))
        circuit.add(Resistor("r", "a", GROUND, 100.0))
        circuit.add(leaf)
        for fast in (False, True):
            leaf.accepted = 0
            TransientSolver(
                circuit, 1e-11, TransientOptions(fast=fast)
            ).run(1e-10, record_branches=[])
            assert leaf.accepted == 10

    def test_stateless_elements_take_no_accept_call(self):
        circuit = Circuit("stateless")
        circuit.add(VoltageSource("vin", "a", GROUND, 1.0))
        circuit.add(Resistor("r", "a", GROUND, 100.0))
        solver = TransientSolver(circuit, 1e-11)
        run = solver.begin(1e-10, record_branches=[])
        assert run.stateful == []

    def test_future_subclass_accept_is_auto_flagged(self):
        # Safety net: overriding accept() without declaring needs_accept
        # must not reintroduce a silent skip (Element.__init_subclass__
        # infers the flag; an explicit declaration still wins).
        class Memristor(Element):
            def accept(self, x, ctx):
                pass

        assert Memristor.needs_accept is True

        class ExplicitlyStateless(Element):
            needs_accept = False

            def accept(self, x, ctx):
                pass

        assert ExplicitlyStateless.needs_accept is False

        class StatefulMixin:
            def accept(self, x, ctx):
                pass

        class MixedIn(StatefulMixin, Element):
            """accept() arrives through a non-Element mixin."""

        assert MixedIn.needs_accept is True

        # an inherited explicit opt-out governs plain subclasses...
        class StatelessChild(ExplicitlyStateless):
            pass

        assert StatelessChild.needs_accept is False

        # ...until a subclass introduces a fresh accept of its own
        class Reinstated(ExplicitlyStateless):
            def accept(self, x, ctx):
                pass

        assert Reinstated.needs_accept is True

    def test_stock_element_flags(self):
        assert Resistor("r", "a", "b", 1.0).needs_accept is False
        assert VoltageSource("v", "a", "b", 1.0).needs_accept is False
        assert CurrentSource("i", "a", "b", 1.0).needs_accept is False
        assert Capacitor("c", "a", "b", 1e-12).needs_accept is True
        assert Inductor("l", "a", "b", 1e-9).needs_accept is True
        assert CapacitorBank("cb", ["a"], 1e-12).needs_accept is True
        assert InductorBank("lb", ["a"], ["b"], 1e-9).needs_accept is True
        assert ResistorBank("rb", ["a"], ["b"], 1.0).needs_accept is False


class TestLadderGeneratorEdgeCases:
    def test_single_segment_ladder(self):
        circuit = Circuit("one-segment")
        circuit.add(VoltageSource("vin", "in", GROUND, _stimulus()))
        circuit.add(Resistor("rs", "in", "near", 50.0))
        add_lc_ladder(circuit, "tl", "near", "far", 131.0, 0.4e-9, 1)
        circuit.add(Resistor("rload", "far", GROUND, 500.0))
        assert len(circuit.element("tl_l")) == 1
        assert len(circuit.element("tl_c")) == 1
        result = TransientSolver(circuit, 1e-11).run(1e-9, record_branches=[])
        assert np.all(np.isfinite(result.voltage("far")))

    def test_zero_valued_elements_rejected(self):
        with pytest.raises(ValueError, match="z0 and delay must be positive"):
            add_lc_ladder(Circuit("x"), "tl", "a", "b", 0.0, 1e-9, 4)
        with pytest.raises(ValueError, match="segments must be at least 1"):
            add_lc_ladder(Circuit("x"), "tl", "a", "b", 50.0, 1e-9, 0)
        with pytest.raises(ValueError, match="r_section and r_load"):
            rc_ladder_circuit(4, r_section=0.0)
        with pytest.raises(ValueError, match="c_section must be positive"):
            rc_ladder_circuit(4, c_section=0.0)
        with pytest.raises(ValueError, match="n_sections must be at least 1"):
            rc_ladder_circuit(0)
        with pytest.raises(ValueError, match="r_link and r_load"):
            rc_grid_circuit(3, 3, r_link=-1.0)
        with pytest.raises(ValueError, match="c_node must be positive"):
            rc_grid_circuit(3, 3, c_node=0.0)
        with pytest.raises(ValueError, match="at least 2x2"):
            rc_grid_circuit(1, 5)

    def test_golden_sparse_ladder_job_reports_banks(self, tmp_path):
        from repro.api.cli import main

        out = tmp_path / "sparse_ladder.result.json"
        assert main(["run", GOLDEN_JOB, "--quick", "--output", str(out)]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
        stats = artifact["perf_stats"]
        assert stats["backend"] == "sparse"
        assert stats["banked_elements"] > 0  # the 240-section LC ladder banks
        assert stats["accept_calls"] > 0
        # banked accepts: per step one L bank + one C bank + load cap +
        # two macromodels — far fewer calls than elements x steps
        n_steps = artifact["n_samples"] - 1
        assert stats["accept_calls"] <= 6 * n_steps
