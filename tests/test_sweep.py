"""Equivalence and bookkeeping tests of the batched scenario-sweep subsystem.

The contract of :mod:`repro.sweep` is that batching changes *where* the
arithmetic happens, never *what* is computed: batched sweeps must match
independent per-scenario transients to 1e-12 relative (they are in fact
bit-identical on this machine), while sharing one static assembly — and,
for linear circuits, exactly one LU factorization — across the batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.elements import Capacitor
from repro.circuits.transient import TransientOptions
from repro.core.cosim import LinkDescription
from repro.sweep import (
    Scenario,
    eye_report,
    linear_link_sweep,
    rbf_link_sweep,
)

REL_TOL = 1e-12


def _assert_sweeps_match(batched, sequential, nodes=("near", "far")):
    for scenario in batched.scenarios:
        for node in nodes:
            a = batched.voltage(scenario.name, node)
            b = sequential.voltage(scenario.name, node)
            scale = max(np.max(np.abs(b)), 1e-30)
            err = np.max(np.abs(a - b)) / scale
            assert err <= REL_TOL, f"{scenario.name}/{node}: rel err {err:.3e}"


def _assert_bit_identical(batched, sequential, name, nodes=("near", "far")):
    # A one-scenario corner group solves one column, as a standalone run
    # does, so there a lane must hold exactly the scalar element code's bits.
    for node in nodes:
        got = batched.voltage(name, node)
        assert got.tobytes() == sequential.voltage(name, node).tobytes(), f"{name}/{node}"


def _pattern_scenarios(n=8):
    return [
        Scenario(
            name=f"p{k}",
            bit_pattern=format(k, "03b"),
            drive_strength=1.0 + 0.05 * k,
        )
        for k in range(n)
    ]


class TestLinearSweep:
    def test_matches_sequential_with_one_factorization(self):
        sweep = linear_link_sweep(_pattern_scenarios(8), LinkDescription(duration=4e-9), dt=1e-11)
        batched = sweep.run()
        sequential = sweep.run_sequential()

        _assert_sweeps_match(batched, sequential)
        stats = batched.perf_stats
        # One static group, factored exactly once for the whole batch.
        assert stats["static_groups"] == 1
        assert stats["shared_factorizations"] == 1
        assert stats["static_reuses"] == 7
        # Every scenario is linear, so every step is one block solve.
        assert len(stats["direct_linear_scenarios"]) == 8
        assert stats["block_solves"] == batched.times.size - 1

    def test_corner_scenarios_split_static_groups(self):
        scenarios = [
            Scenario(name="nom", bit_pattern="010"),
            Scenario(name="nom2", bit_pattern="011"),
            Scenario(name="weak", bit_pattern="010", corner={"load_resistance": 150.0}),
            Scenario(name="weak2", bit_pattern="011", corner={"load_resistance": 150.0}),
        ]
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=3e-9), dt=1e-11)
        batched = sweep.run()
        sequential = sweep.run_sequential()

        _assert_sweeps_match(batched, sequential)
        stats = batched.perf_stats
        assert stats["static_groups"] == 2
        assert stats["shared_factorizations"] == 2
        assert stats["static_reuses"] == 2
        # The corner actually changes the answer.
        nom = batched.voltage("nom", "far")
        weak = batched.voltage("weak", "far")
        assert np.max(np.abs(nom - weak)) > 1e-3

    def test_reference_path_lockstep_matches_sequential(self):
        options = TransientOptions(fast=False)
        sweep = linear_link_sweep(
            _pattern_scenarios(3), LinkDescription(duration=2e-9), dt=2e-11, options=options
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)
        assert batched.perf_stats["mode"] == "reference"


class TestRBFSweep:
    def test_matches_sequential(self, library_models):
        scenarios = [
            Scenario(name=f"r{k}", bit_pattern=pattern)
            for k, pattern in enumerate(["010", "0110", "0101", "0011"])
        ]
        sweep = rbf_link_sweep(
            scenarios, LinkDescription(duration=3e-9, load="receiver"), library_models,
            dt=1e-11,
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()

        for scenario in scenarios:
            _assert_bit_identical(batched, sequential, scenario.name)
        assert batched.perf_stats["static_reuses"] == 3


class TestMixedStaticGroup:
    def test_linear_members_of_mixed_group_share_one_factorization(self):
        """Linear scenarios sharing statics with a nonlinear one still share the LU."""
        from repro.circuits.diode import Diode
        from repro.sweep.engine import CircuitSweep
        from repro.sweep.links import linear_link_circuit, scenario_link

        link = LinkDescription()

        def build(scenario):
            circuit = linear_link_circuit(scenario_link(link, scenario), 1.8)
            if scenario.name == "clamp":
                # A diode is a dynamic element: same static stamps, nonlinear run.
                circuit.add(Diode("dclamp", "far", "0"))
            return circuit

        scenarios = [
            Scenario(name="lin0", bit_pattern="010"),
            Scenario(name="lin1", bit_pattern="011"),
            Scenario(name="clamp", bit_pattern="010"),
        ]
        sweep = CircuitSweep(
            build, scenarios, dt=1e-11, duration=2e-9,
            record_nodes=["near", "far"], record_branches=[],
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)

        stats = batched.perf_stats
        # Mixed group: no direct block-solve path, but still one shared
        # static assembly and exactly one LU factorization across the two
        # linear members (the second picks the factors up lazily).
        assert stats["static_groups"] == 1
        assert stats["direct_linear_scenarios"] == []
        assert stats["shared_factorizations"] == 1
        per_scenario = stats["per_scenario"]
        linear_factorizations = sum(
            per_scenario[name]["factorizations"] for name in ("lin0", "lin1")
        )
        assert linear_factorizations == 1
        assert per_scenario["lin0"]["linear_only"] is True
        assert per_scenario["clamp"]["linear_only"] is False


class _TaggedCapacitor(Capacitor):
    """A capacitor subclass: no lane form, so it steps through its own hooks."""

    accepts = 0

    def accept(self, x, ctx):
        type(self).accepts += 1
        super().accept(x, ctx)


class TestLaneSets:
    """Direct scenarios step as lanes of one array state per topology."""

    def test_one_lane_set_spans_uneven_corner_groups(self):
        corners = [
            {},
            {"z0": 100.0},
            {"delay": 0.3e-9},
            {"load_resistance": 300.0, "load_capacitance": 2e-12},
        ]
        widths = [3, 1, 2, 4]
        scenarios = [
            Scenario(
                name=f"g{g}s{k}", bit_pattern=format((g + k) % 8, "03b"),
                drive_strength=1.0 + 0.04 * k, corner=corner,
            )
            for g, (corner, width) in enumerate(zip(corners, widths))
            for k in range(width)
        ]
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=3e-9), dt=1e-11)
        batched = sweep.run()
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)
        _assert_bit_identical(batched, sequential, "g1s0")
        stats = batched.perf_stats
        assert stats["lane_sets"] == 1
        assert stats["static_groups"] == 4
        assert len(stats["direct_linear_scenarios"]) == sum(widths)
        assert stats["block_solves"] == 4 * (batched.times.size - 1)
        # Lane scenarios make no per-element accept calls of their own.
        assert all(s["accept_calls"] == 0 for s in stats["per_scenario"].values())

    def test_nan_fault_leaves_the_other_group_bit_identical(self):
        from repro.resilience import faults

        scenarios = [
            Scenario(name="a0", bit_pattern="010"),
            Scenario(name="a1", bit_pattern="011"),
            Scenario(name="a2", bit_pattern="001"),
            Scenario(name="b0", bit_pattern="010", corner={"z0": 90.0}),
            Scenario(name="b1", bit_pattern="110", corner={"z0": 90.0}),
        ]
        clean = linear_link_sweep(scenarios, LinkDescription(duration=2e-9), dt=1e-11).run()
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=2e-9), dt=1e-11)
        with faults.injected(faults.Fault("nan", step=5, scenario="a1")):
            result = sweep.run()
        assert result.status_of("a1") == "recovered"
        assert result.perf_stats["quarantined_scenarios"] == ["a1"]
        assert result.perf_stats["solo_retries"] == 1
        [event] = result.perf_stats["health"]["events"]
        assert (event["kind"], event["step"], event["scenario"]) == ("nan_inf", 5, "a1")
        _assert_sweeps_match(result, clean)
        for name in ("b0", "b1"):
            for node in ("near", "far"):
                got = result.voltage(name, node)
                assert got.tobytes() == clean.voltage(name, node).tobytes()

    def test_ladder_above_sparse_threshold_steps_bank_lanes(self):
        from repro.perf.backends import SPARSE_THRESHOLD

        scenarios = _pattern_scenarios(3) + [
            Scenario(name="slow", bit_pattern="011", corner={"delay": 0.5e-9}),
        ]
        sweep = linear_link_sweep(
            scenarios, LinkDescription(duration=2e-9, segments=60), dt=1e-11
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)
        _assert_bit_identical(batched, sequential, "slow")
        stats = batched.perf_stats
        assert stats["lane_sets"] == 1
        per_scenario = stats["per_scenario"]["p0"]
        assert per_scenario["backend"] == "sparse"
        assert per_scenario["n_unknowns"] > SPARSE_THRESHOLD
        assert per_scenario["banked_elements"] > 0
        assert stats["block_solves"] == 2 * (batched.times.size - 1)

    def test_pinned_dense_ladder_above_sparse_threshold_factors_dense(self):
        # A pinned dense backend LU-factors at any size, in the shared block
        # solve as in a standalone run.
        from repro.perf.backends import SPARSE_THRESHOLD

        scenarios = _pattern_scenarios(3) + [
            Scenario(name="slow", bit_pattern="011", corner={"delay": 0.5e-9}),
        ]
        sweep = linear_link_sweep(
            scenarios, LinkDescription(duration=2e-9, segments=60), dt=1e-11,
            options=TransientOptions(backend="dense"),
        )
        batched = sweep.run()
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)
        _assert_bit_identical(batched, sequential, "slow")
        per_scenario = batched.perf_stats["per_scenario"]["slow"]
        assert per_scenario["backend"] == "dense"
        assert per_scenario["n_unknowns"] > SPARSE_THRESHOLD
        assert batched.perf_stats["lane_sets"] == 1

    def test_custom_static_element_steps_through_its_hooks(self):
        from repro.circuits.elements import CurrentSource
        from repro.sweep.engine import CircuitSweep
        from repro.sweep.links import linear_link_circuit, scenario_link
        from repro.waveforms.signals import BitPattern

        link = LinkDescription()

        def build(scenario):
            circuit = linear_link_circuit(
                scenario_link(link, scenario), 1.8 * scenario.drive_strength
            )
            circuit.add(_TaggedCapacitor("ctag", "near", "0", 0.3e-12))
            circuit.add(CurrentSource(
                "iinj", "far", "0",
                BitPattern(pattern="01", bit_time=1e-9, low=0.0, high=1e-3),
            ))
            return circuit

        scenarios = _pattern_scenarios(3) + [
            Scenario(name="heavy", bit_pattern="010", corner={"load_resistance": 200.0}),
        ]
        sweep = CircuitSweep(build, scenarios, dt=1e-11, duration=2e-9,
                             record_nodes=["near", "far"], record_branches=[])
        _TaggedCapacitor.accepts = 0
        batched = sweep.run()
        n_steps = batched.times.size - 1
        assert _TaggedCapacitor.accepts == len(scenarios) * n_steps
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)
        _assert_bit_identical(batched, sequential, "heavy")
        assert batched.perf_stats["lane_sets"] == 1
        assert len(batched.perf_stats["direct_linear_scenarios"]) == 4


def _block_sweep(dt, steps, delays, segments=0):
    """The linear link with one corner group per line delay, plus a z0 corner.

    ``delays[0]`` is the nominal delay; group ``a`` has two lanes, every
    other group one.  Bits of ``25 dt`` keep every run switching.
    """
    link = LinkDescription(delay=delays[0], segments=segments, bit_time=25 * dt,
                           edge_time=5 * dt, duration=steps * dt)
    scenarios = [
        Scenario(name="a0", bit_pattern="0110"),
        Scenario(name="a1", bit_pattern="1011", drive_strength=0.9),
        Scenario(name="z", bit_pattern="1101", corner={"z0": 100.0}),
    ] + [
        Scenario(name=f"d{k}", bit_pattern=format(5 + k, "04b"), corner={"delay": delay})
        for k, delay in enumerate(delays[1:])
    ]
    return linear_link_sweep(scenarios, link, dt=dt)


#: line delays as multiples of dt: shorter than one step (one-step
#: blocks), whole multiples (``t - Td`` on a sample when dt is a power of
#: two) and generic
_delay_factors = st.one_of(
    st.floats(min_value=0.2, max_value=0.95),
    st.integers(min_value=1, max_value=30).map(float),
    st.floats(min_value=1.05, max_value=40.0),
)


class TestBlockStepping:
    """Lane sets step in blocks bounded by the shortest line delay."""

    @given(
        dt=st.sampled_from([2.0 ** -36, 2.0 ** -37, 1e-11, 7.3e-12]),
        steps=st.integers(min_value=30, max_value=160),
        factors=st.lists(_delay_factors, min_size=1, max_size=3),
        segments=st.sampled_from([0, 0, 0, 6]),
    )
    @settings(max_examples=16, deadline=None)
    def test_blocks_match_standalone_runs(self, dt, steps, factors, segments):
        delays = list(dict.fromkeys(f * dt for f in factors))
        sweep = _block_sweep(dt, steps, delays, segments)
        batched = sweep.run()
        sequential = sweep.run_sequential()
        _assert_sweeps_match(batched, sequential)
        for scenario in batched.scenarios:
            if scenario.name != "a0" and scenario.name != "a1":
                _assert_bit_identical(batched, sequential, scenario.name)
        stats = batched.perf_stats
        assert stats["lane_sets"] == 1
        assert stats["static_groups"] == len(delays) + 1
        assert stats["block_solves"] == stats["static_groups"] * steps
        assert 0.0 < batched.wall_time < 60.0

    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_nan_fault_inside_a_block(self, monkeypatch, where):
        from repro.resilience import faults
        from repro.sweep.lanes import LaneSet

        blocks = []
        begin_block = LaneSet.begin_block

        def spy(self, start, stop):
            blocks.append((start, stop))
            begin_block(self, start, stop)

        monkeypatch.setattr(LaneSet, "begin_block", spy)
        sweep = _block_sweep(1e-11, 120, [0.4e-9, 0.3e-9])
        clean = sweep.run()
        start, stop = blocks[1]  # the first block of line history reads
        assert stop - start >= 8
        step = start if where == "first" else (start + stop) // 2
        with faults.injected(faults.Fault("nan", step=step, scenario="a1")):
            result = sweep.run()
        assert result.status_of("a1") == "recovered"
        assert result.perf_stats["quarantined_scenarios"] == ["a1"]
        assert result.perf_stats["solo_retries"] == 1
        [event] = result.perf_stats["health"]["events"]
        assert (event["kind"], event["step"], event["scenario"]) == ("nan_inf", step, "a1")
        _assert_sweeps_match(result, clean)
        for name in ("z", "d0"):
            _assert_bit_identical(result, clean, name)


class TestSweepResultAndReport:
    def test_eye_report_identifies_worst_corner(self):
        scenarios = [
            Scenario(name="strong", bit_pattern="0101101", drive_strength=1.0),
            Scenario(name="weak", bit_pattern="0101101", drive_strength=0.45),
        ]
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=16e-9), dt=1e-11)
        result = sweep.run()

        report = eye_report(result, "far", 2e-9, low=0.0, high=1.8, t_start=2e-9)
        assert {row.scenario for row in report.rows} == {"strong", "weak"}
        assert report.worst_height.scenario == "weak"
        strong = next(r for r in report.rows if r.scenario == "strong")
        weak = next(r for r in report.rows if r.scenario == "weak")
        assert strong.eye_height > weak.eye_height >= 0.0

        payload = report.to_dict()
        assert payload["worst_height_scenario"] == "weak"
        text = report.format()
        assert "worst eye height" in text and "weak" in text

    def test_eye_report_pinned_non_integer_ratio(self):
        # Pins eye_report numbers at a non-integer bit_time/dt ratio
        # (2e-9 / 3e-11 = 66.67) after the PR-10 eye.py folding fixes.
        # Before them the same sweep folded at the silently rounded
        # period 2.01e-9 and dropped a trace (6 of 7), reading
        # strong: height 1.997797, width 1470 ps
        # weak:   height 0.138226, width  630 ps
        # — the weak width under-read by ~40 % because the boundary-
        # centred part of the clear arc was split off, and heights were
        # measured against drifted traces.
        scenarios = [
            Scenario(name="strong", bit_pattern="0101101", drive_strength=1.0),
            Scenario(name="weak", bit_pattern="0101101", drive_strength=0.45),
        ]
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=16e-9), dt=3e-11)
        result = sweep.run()
        report = eye_report(result, "far", 2e-9, low=0.0, high=1.8, t_start=2e-9)

        strong = next(r for r in report.rows if r.scenario == "strong")
        weak = next(r for r in report.rows if r.scenario == "weak")
        eye = result.eye("strong", "far", 2e-9, t_start=2e-9)
        assert eye.bit_time == 2e-9  # exactly as requested, not 67 * dt
        assert eye.n_traces == 7
        assert strong.eye_height == pytest.approx(1.997797, abs=1e-5)
        assert strong.eye_width == pytest.approx(1910e-12, abs=1e-14)
        assert weak.eye_height == pytest.approx(0.136825, abs=1e-5)
        assert weak.eye_width == pytest.approx(1070e-12, abs=1e-14)

    def test_result_accessors_and_errors(self):
        scenarios = [Scenario(name="only", bit_pattern="010")]
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=2e-9), dt=1e-11)
        result = sweep.run()
        assert result.n_scenarios == 1
        assert result.scenario("only").bit_pattern == "010"
        assert result.voltage("only", "far").shape == result.times.shape
        assert result.amortised_wall_time() <= result.wall_time + 1e-12
        with pytest.raises(KeyError):
            result.result("missing")
        with pytest.raises(KeyError):
            result.scenario("missing")

    def test_duplicate_scenario_names_rejected(self):
        scenarios = [Scenario(name="x"), Scenario(name="x")]
        with pytest.raises(ValueError, match="unique"):
            linear_link_sweep(scenarios)

    def test_eye_feeds_waveforms_eye(self):
        scenarios = [Scenario(name="s", bit_pattern="01010101")]
        sweep = linear_link_sweep(scenarios, LinkDescription(duration=16e-9), dt=1e-11)
        result = sweep.run()
        eye = result.eye("s", "far", 2e-9, t_start=2e-9)
        assert eye.n_traces >= 6
        assert eye.bit_time == pytest.approx(2e-9, rel=1e-9)


class TestFDTD3DMultiPort:
    """Four lumped ports on one 3-D grid, fast path against the reference.

    Two receiver ports share one model and one of them is flipped, so the
    fast evaluator's sign handling behind ``FlippedTermination`` is
    checked against the naive evaluation.
    """

    @staticmethod
    def _run(fast, driver_model, receiver_model):
        from repro import perf
        from repro.core.ports import ResistiveSourceTermination
        from repro.core.resampling import ResampledPortModel
        from repro.fdtd.grid import YeeGrid
        from repro.fdtd.lumped import LumpedElementSite
        from repro.fdtd.solver3d import FDTD3DSolver
        from repro.macromodel.driver import LogicStimulus
        from repro.waveforms.signals import TrapezoidalPulse

        with perf.use_fastpath(fast):
            grid = YeeGrid(nx=10, ny=10, nz=8, dx=1e-3, dy=1e-3, dz=1e-3)
            solver = FDTD3DSolver(grid, fast=fast)
            dt = solver.dt
            bound = driver_model.bound(LogicStimulus.from_pattern("01", 1e-9))
            source = TrapezoidalPulse(
                low=0.0, high=1.5, t_start=50 * dt, rise_time=100 * dt,
                width=300 * dt, fall_time=100 * dt,
            )

            def port(model):
                return ResampledPortModel(model, dt, fast=fast)

            solver.add_lumped_element(
                LumpedElementSite("src", "z", (3, 3, 3), ResistiveSourceTermination(50.0, source))
            )
            solver.add_lumped_element(LumpedElementSite("rx1", "z", (6, 3, 3), port(receiver_model)))
            solver.add_lumped_element(
                LumpedElementSite("rx2", "z", (6, 6, 3), port(receiver_model), flip=True)
            )
            solver.add_lumped_element(LumpedElementSite("drv", "z", (3, 6, 3), port(bound)))
            solver.run(n_steps=200)
        return solver

    def test_fast_ports_match_reference(self, driver_model, receiver_model):
        fast = self._run(True, driver_model, receiver_model)
        reference = self._run(False, driver_model, receiver_model)

        # The fast-path oracle bound of tests/test_perf_fastpath.py: 1e-12
        # of max(1, |reference|), since the fast Yee kernels fold the cell
        # divisions into their coefficients and so differ at ulp level.
        for site_f, site_r in zip(fast.sites, reference.sites):
            for label in ("voltages", "currents"):
                got, want = getattr(site_f, label), getattr(site_r, label)
                err = np.max(np.abs(got - want))
                bound = REL_TOL * max(1.0, np.max(np.abs(want)))
                assert err <= bound, f"site {site_f.name} {label}: |diff| {err:.3e}"
        assert (
            fast.newton_stats.total_iterations == reference.newton_stats.total_iterations
        )
