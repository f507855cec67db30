"""Fault-injection tests of the solver resilience layer.

Every recovery path is dead code until a test can make it run: the
:mod:`repro.resilience.faults` harness plants singular factorizations,
NaN-poisoned solves, forced non-convergence and backend errors at exact
steps/scenarios, and this suite drives each branch of the taxonomy /
retry / quarantine machinery through the circuit, linear-sweep and
RBF-sweep paths — asserting both the recovery *counters* and that a
recovered run reproduces a fault-free one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro import cache
from repro.circuits import (
    Capacitor,
    Circuit,
    Diode,
    GROUND,
    Resistor,
    TransientOptions,
    TransientSolver,
    VoltageSource,
)
from repro.core.newton import NewtonStats, newton_solve_scalar_fused
from repro.resilience import (
    BACKEND_ERROR,
    BackendError,
    FAILURE_KINDS,
    NAN_INF,
    NON_CONVERGENCE,
    NanInfError,
    NonConvergenceError,
    RunHealth,
    SINGULAR_MATRIX,
    SingularMatrixError,
    SolveFailure,
    error_for,
    faults,
)
from repro.sweep import Scenario, eye_report, linear_link_sweep, rbf_link_sweep
from repro.waveforms.signals import StepWaveform

REL_TOL = 1e-12


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """No test may leak an installed fault plan into the next one."""
    faults.clear_plan()
    yield
    faults.clear_plan()


def _raise_nan_inf(step):
    """Pool-worker entry point that fails with a typed error."""
    raise NanInfError(SolveFailure(NAN_INF, step=step))


def _rc_circuit():
    ckt = Circuit()
    ckt.add(VoltageSource("v1", "in", GROUND, StepWaveform(high=1.0, t_start=0.0)))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", GROUND, 1e-12))
    return ckt


def _diode_circuit():
    ckt = Circuit()
    ckt.add(VoltageSource("v1", "in", GROUND, StepWaveform(high=1.5, t_start=0.0)))
    ckt.add(Resistor("r1", "in", "out", 200.0))
    ckt.add(Diode("d1", "out", GROUND))
    ckt.add(Capacitor("c1", "out", GROUND, 1e-13))
    return ckt


def _run(circuit_factory, options=None, duration=2e-10, dt=2e-12):
    solver = TransientSolver(circuit_factory(), dt, options=options)
    result = solver.run(duration)
    return solver, result


def _rbf_link_spec(**engine):
    """``rbf_link.json --quick`` with the given engine-block fields."""
    from repro.api import load_spec

    spec = load_spec(os.path.join(
        os.path.dirname(__file__), "..", "examples", "jobs", "rbf_link.json",
    )).quickened()
    return dataclasses.replace(spec, engine=dataclasses.replace(spec.engine, **engine))


def _scenarios(n=3):
    return [
        Scenario(name=f"s{k}", bit_pattern=format(k % 8, "03b"),
                 drive_strength=1.0 + 0.05 * k)
        for k in range(n)
    ]


def _assert_sweep_matches(result, clean, nodes=("near", "far"), tol=REL_TOL):
    for scenario in clean.scenarios:
        for node in nodes:
            a = result.voltage(scenario.name, node)
            b = clean.voltage(scenario.name, node)
            scale = max(np.max(np.abs(b)), 1e-30)
            err = np.max(np.abs(a - b)) / scale
            assert err <= tol, f"{scenario.name}/{node}: rel err {err:.3e}"


# ---------------------------------------------------------------------------
# taxonomy, policy and plan-grammar units
# ---------------------------------------------------------------------------

class TestTaxonomy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            SolveFailure("meltdown")

    def test_to_dict_and_describe(self):
        failure = SolveFailure(
            NAN_INF, step=7, scenario="s3", residual=0.25,
            message="poisoned", context={"site": "test"},
        )
        record = failure.to_dict()
        assert record["kind"] == NAN_INF
        assert record["step"] == 7 and record["scenario"] == "s3"
        assert record["context"] == {"site": "test"}
        line = failure.describe()
        assert "[nan_inf]" in line and "scenario=s3" in line and "step=7" in line

    def test_error_for_maps_every_kind(self):
        expected = {
            NON_CONVERGENCE: NonConvergenceError,
            SINGULAR_MATRIX: SingularMatrixError,
            NAN_INF: NanInfError,
            BACKEND_ERROR: BackendError,
        }
        for kind in FAILURE_KINDS:
            err = error_for(SolveFailure(kind))
            assert isinstance(err, expected[kind])
            assert err.failure.kind == kind

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_typed_errors_survive_pickling(self, kind):
        failure = SolveFailure(kind, step=3, scenario="s1", residual=0.5,
                               message="lost", context={"site": "test"})
        err = pickle.loads(pickle.dumps(error_for(failure)))
        assert type(err) is type(error_for(failure))
        assert err.failure == failure
        assert str(err) == failure.describe()

    def test_typed_error_crosses_a_process_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.sweep.shard import _mp_context

        with ProcessPoolExecutor(max_workers=1, mp_context=_mp_context()) as pool:
            future = pool.submit(_raise_nan_inf, 3)
            with pytest.raises(NanInfError) as excinfo:
                future.result(timeout=60)
        assert excinfo.value.failure == SolveFailure(NAN_INF, step=3)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            TransientOptions(max_retries=-1)
        with pytest.raises(ValueError):
            TransientOptions(max_retries=1.5)
        assert TransientOptions().max_retries == 0

    def test_run_health_counts_and_merge(self):
        a = RunHealth()
        assert a.ok
        a.record(SolveFailure(NAN_INF, step=1))
        a.nonconverged_commits += 1
        assert not a.ok and a.total_failures == 1
        b = RunHealth()
        b.record(SolveFailure(NAN_INF, step=2))
        b.retries = 3
        a.merge(b)
        assert a.failure_counts == {NAN_INF: 2}
        assert a.retries == 3 and len(a.events) == 2

    def test_backend_fallback_keeps_run_ok(self):
        health = RunHealth()
        health.note_backend_fallback(SolveFailure(SINGULAR_MATRIX, message="degraded"))
        assert health.ok  # degraded, not failed
        assert health.backend_fallbacks == 1
        assert len(health.events) == 1
        assert "backend_fallbacks=1" in health.summary()


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = faults.parse_plan(
            "singular@1; nan@3:scenario=s07, nonconvergence@*x2; backend_error@5x*"
        )
        assert [f.kind for f in plan] == [
            "singular", "nan", "nonconvergence", "backend_error"
        ]
        assert plan[0].step == 1 and plan[0].count == 1
        assert plan[1].scenario == "s07" and plan[1].step == 3
        assert plan[2].step is None and plan[2].count == 2
        assert plan[3].count is None  # persistent

    @pytest.mark.parametrize("bad", ["nan", "warp@3", "nan@3:foo=bar"])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            faults.parse_plan(bad)

    def test_take_consumes_and_logs(self):
        with faults.injected(faults.Fault("nan", step=2)) as plan:
            assert not faults.take("nan", step=1)
            assert faults.take("nan", step=2)
            assert not faults.take("nan", step=2)  # burnt out
            assert plan.fired == [{"kind": "nan", "step": 2, "scenario": None}]
        assert faults.PLAN is None

    def test_env_plan_reload(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "nan@4")
        plan = faults.reload_env_plan()
        assert plan is faults.PLAN and plan.faults[0].step == 4
        monkeypatch.setenv("REPRO_FAULT_PLAN", "")
        assert faults.reload_env_plan() is None
        assert faults.PLAN is None


# ---------------------------------------------------------------------------
# circuit path: strict policy, typed errors, retry ladder
# ---------------------------------------------------------------------------

class TestCircuitStrictPolicy:
    def test_clean_run_health_is_ok(self):
        solver, _ = _run(_diode_circuit)
        health = solver.perf_stats["health"]
        assert health["ok"]
        assert health["failure_counts"] == {}
        assert health["nonconverged_commits"] == 0

    @pytest.mark.parametrize("fast", [True, False])
    def test_nan_raises_typed_error(self, fast):
        solver = TransientSolver(
            _rc_circuit(), 2e-12, options=TransientOptions(fast=fast)
        )
        with faults.injected(faults.Fault("nan", step=3)):
            with pytest.raises(NanInfError) as excinfo:
                solver.run(2e-10)
        assert excinfo.value.failure.step == 3
        health = solver.perf_stats["health"]
        assert health["failure_counts"] == {NAN_INF: 1}
        assert not health["ok"]

    def test_backend_error_raises_typed_error(self):
        solver = TransientSolver(_rc_circuit(), 2e-12)
        with faults.injected(faults.Fault("backend_error", step=2)):
            with pytest.raises(BackendError) as excinfo:
                solver.run(2e-10)
        assert excinfo.value.failure.kind == BACKEND_ERROR
        assert solver.perf_stats["health"]["failure_counts"] == {BACKEND_ERROR: 1}

    def test_forced_nonconvergence_raises_by_default(self):
        # Zero silent commits: the default policy surfaces the failure as a
        # typed error and the health telemetry records it.
        solver = TransientSolver(_diode_circuit(), 2e-12)
        with faults.injected(faults.Fault("nonconvergence", step=5)):
            with pytest.raises(NonConvergenceError) as excinfo:
                solver.run(2e-10)
        assert excinfo.value.failure.step == 5
        health = solver.perf_stats["health"]
        assert health["failure_counts"] == {NON_CONVERGENCE: 1}
        assert health["nonconverged_commits"] == 0

    def test_warn_policy_commits_with_telemetry(self):
        options = TransientOptions(on_nonconvergence="warn")
        solver = TransientSolver(_diode_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault("nonconvergence", step=5)):
            with pytest.warns(RuntimeWarning, match="without convergence"):
                result = solver.run(2e-10)
        assert np.all(np.isfinite(result.voltage("out")))
        health = solver.perf_stats["health"]
        assert health["nonconverged_commits"] == 1
        assert not health["ok"]

    def test_ignore_policy_commits_silently_but_counts(self, recwarn):
        options = TransientOptions(on_nonconvergence="ignore")
        solver = TransientSolver(_diode_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault("nonconvergence", step=5)):
            solver.run(2e-10)
        assert not any(isinstance(w.message, RuntimeWarning) for w in recwarn.list)
        assert solver.perf_stats["health"]["nonconverged_commits"] == 1

    def test_nonconvergence_faults_only_affect_nonconvergence_policy(self):
        # A NaN failure must raise even under on_nonconvergence="ignore".
        options = TransientOptions(on_nonconvergence="ignore")
        solver = TransientSolver(_rc_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault("nan", step=3)):
            with pytest.raises(NanInfError):
                solver.run(2e-10)

    def test_reference_singular_degrades_with_telemetry(self):
        # The reference dense path recovers a singular solve via lstsq and
        # notes the degradation without failing the run.
        options = TransientOptions(fast=False)
        solver = TransientSolver(_rc_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault("singular", step=4)):
            result = solver.run(2e-10)
        assert np.all(np.isfinite(result.voltage("out")))
        health = solver.perf_stats["health"]
        assert health["ok"]
        assert health["backend_fallbacks"] == 1

    def test_singular_run_fallbacks_name_their_steps_without_a_plan(self):
        # Two ideal sources in parallel make every step's system singular.
        # With no fault plan installed the backend still reads each
        # fallback's step from the context the solver publishes per step.
        circuit = Circuit()
        circuit.add(VoltageSource("v1", "a", GROUND, 1.0))
        circuit.add(VoltageSource("v2", "a", GROUND, 1.0))
        circuit.add(Resistor("r", "a", GROUND, 10.0))
        solver = TransientSolver(circuit, 1e-11)
        solver.run(5e-11)
        health = solver.perf_stats["health"]
        assert health["ok"]
        assert health["backend_fallbacks"] == len(health["events"]) >= 5
        steps = [event["step"] for event in health["events"]]
        assert set(steps) == {1, 2, 3, 4, 5}
        assert steps == sorted(steps)


class TestCircuitRetryLadder:
    @pytest.mark.parametrize("kind", ["nan", "nonconvergence", "backend_error"])
    def test_transient_fault_recovers_bit_identically(self, kind):
        _, clean = _run(_diode_circuit)
        options = TransientOptions(max_retries=2)
        solver = TransientSolver(_diode_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault(kind, step=5)):
            result = solver.run(2e-10)
        # Retry 1 rewinds and re-runs the step after the injected fault
        # burnt out, so the arithmetic is exactly the fault-free run's.
        assert np.array_equal(result.voltage("out"), clean.voltage("out"))
        health = solver.perf_stats["health"]
        assert health["retried_steps"] == 1
        assert health["recovered_steps"] == 1
        assert health["retries"] == 1
        assert health["dt_halvings"] == 0

    def test_singular_fast_path_recovers_bit_identically(self):
        # Acceptance: a transient singular factorization on the dense
        # linear-only fast path completes through the backend fallback
        # (cached LU dropped, fresh dgesv) with a bit-identical waveform —
        # no step is even retried.
        _, clean = _run(_rc_circuit)
        solver = TransientSolver(_rc_circuit(), 2e-12)
        with faults.injected(faults.Fault("singular", step=6)):
            result = solver.run(2e-10)
        assert np.array_equal(result.voltage("out"), clean.voltage("out"))
        health = solver.perf_stats["health"]
        assert health["ok"]
        assert health["backend_fallbacks"] >= 1
        assert health["retried_steps"] == 0

    def test_persistent_fault_exhausts_retries_and_raises(self):
        # One retry is the plain re-run, which meets the fault again.
        options = TransientOptions(max_retries=1)
        solver = TransientSolver(_rc_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault("nan", step=3, count=None)):
            with pytest.raises(NanInfError):
                solver.run(2e-10)
        health = solver.perf_stats["health"]
        assert health["retries"] == 1
        assert health["recovered_steps"] == 0
        assert health["dt_halvings"] == 0
        assert health["failure_counts"][NAN_INF] == 2  # initial + 1 retry

    def test_dt_halving_rung_recovers_repeated_nonconvergence(self):
        # The fault survives the plain re-run (count=2), so recovery needs
        # the second rung: boosted damping + the dt/2 sub-step excursion,
        # which does not consult the injector.
        _, clean = _run(_rc_circuit)
        options = TransientOptions(max_retries=3)
        solver = TransientSolver(_rc_circuit(), 2e-12, options=options)
        with faults.injected(faults.Fault("nonconvergence", step=4, count=2)):
            result = solver.run(2e-10)
        health = solver.perf_stats["health"]
        assert health["recovered_steps"] == 1
        assert health["retries"] == 2
        assert health["dt_halvings"] == 1
        assert health["damping_boosts"] == 1
        # One step integrated at dt/2 instead of dt: not bit-identical, but
        # at least as accurate — the waveforms agree to integration order.
        assert np.allclose(
            result.voltage("out"), clean.voltage("out"), rtol=1e-3, atol=1e-6
        )

    @pytest.mark.parametrize("variant, dt_halvings", [("rbf", 0), ("transistor", 1)])
    def test_job_max_retries_drives_the_ladder(self, monkeypatch, variant, dt_halvings):
        # A job's engine.max_retries is the ladder's retry budget.  The
        # macromodels bind their step, so the RBF link's second retry
        # re-runs the step; the transistor link halves it.
        from repro.api import run

        monkeypatch.setenv("REPRO_FAULT_PLAN", "nonconvergence@4x2")
        faults.reload_env_plan()
        result = run(_rbf_link_spec(variant=variant, max_retries=3))
        health = result.perf_stats["health"]
        assert health["retries"] == 2
        assert health["retried_steps"] == 1
        assert health["recovered_steps"] == 1
        assert health["damping_boosts"] == 1
        assert health["dt_halvings"] == dt_halvings

    def test_job_max_retries_below_the_fault_raises(self, monkeypatch):
        from repro.api import run

        monkeypatch.setenv("REPRO_FAULT_PLAN", "nonconvergence@4x2")
        faults.reload_env_plan()
        with pytest.raises(NonConvergenceError) as excinfo:
            run(_rbf_link_spec(max_retries=1))
        assert excinfo.value.failure.step == 4

    def test_singular_sparse_newton_step_solves_the_filled_system(self, monkeypatch):
        # CI's resilience smoke: the injected iteration solves its whole
        # system densely from the matrix iterate() filled, and the next one
        # factors the static network again for its port-rank update.
        from repro.api import load_spec, run
        from repro.perf.backends import SparseBackend

        solutions = []
        solve = SparseBackend.solve

        def recording_solve(backend, A, rhs):
            x = solve(backend, A, rhs)
            solutions.append(x.copy())
            return x

        monkeypatch.setattr(SparseBackend, "solve", recording_solve)
        spec = load_spec(os.path.join(
            os.path.dirname(__file__), "..", "examples", "jobs", "sparse_ladder.json",
        )).quickened()
        with faults.injected(faults.Fault("singular", step=3)):
            result = run(spec)
        faulted = solutions[:]
        del solutions[:]
        clean = run(spec)
        stats = result.perf_stats
        assert stats["backend"] == "sparse"
        assert stats["health"]["backend_fallbacks"] == 1
        assert stats["sparse_factorizations"] == 2
        for name in clean.names():
            a, b = result.waveform(name), clean.waveform(name)
            assert np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b)), name
        # Up to the injected iteration the runs agree bit for bit; its dense
        # solve matches the port-rank update it stands in for.  (Newton can
        # absorb one bad iterate, so the waveform alone would not show an
        # unfilled matrix.)
        k = next(i for i, (a, b) in enumerate(zip(faulted, solutions))
                 if not np.array_equal(a, b))
        a, b = faulted[k], solutions[k]
        assert np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b))

    def test_macromodel_elements_disable_dt_halving(self):
        from repro.circuits.elements import Element
        from repro.circuits.rbf_element import MacromodelElement

        assert Element.supports_local_dt is True
        assert MacromodelElement.supports_local_dt is False


# ---------------------------------------------------------------------------
# sweep paths: quarantine, solo retry, partial results
# ---------------------------------------------------------------------------

class TestLinearSweepFaults:
    DT, DURATION = 1e-11, 2e-9

    def _sweep(self, scenarios, **kwargs):
        return linear_link_sweep(scenarios, dt=self.DT, duration=self.DURATION, **kwargs)

    def test_nan_quarantines_then_solo_recovery(self):
        scenarios = _scenarios(4)
        clean = self._sweep(scenarios).run()
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("nan", step=20, scenario="s2")):
            result = sweep.run()
        assert result.status_of("s2") == "recovered"
        assert all(result.status_of(f"s{k}") == "ok" for k in (0, 1, 3))
        assert result.ok  # every scenario has a waveform
        _assert_sweep_matches(result, clean)
        stats = result.perf_stats
        assert stats["quarantined_scenarios"] == ["s2"]
        assert stats["solo_retries"] == 1
        assert stats["health"]["failure_counts"][NAN_INF] == 1

    def test_nonconvergence_quarantines_under_strict_policy(self):
        scenarios = _scenarios(3)
        clean = self._sweep(scenarios).run()
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("nonconvergence", step=10, scenario="s1")):
            result = sweep.run()
        assert result.status_of("s1") == "recovered"
        _assert_sweep_matches(result, clean)
        assert result.perf_stats["health"]["failure_counts"][NON_CONVERGENCE] == 1

    def test_nonconvergence_warn_policy_commits_in_lockstep(self):
        scenarios = _scenarios(3)
        sweep = self._sweep(
            scenarios, options=TransientOptions(on_nonconvergence="warn")
        )
        with faults.injected(faults.Fault("nonconvergence", step=10, scenario="s1")):
            with pytest.warns(RuntimeWarning, match="without convergence"):
                result = sweep.run()
        # No quarantine: the scenario committed the step per policy.
        assert result.status_of("s1") == "ok"
        assert result.perf_stats["quarantined_scenarios"] == []
        assert result.perf_stats["health"]["nonconverged_commits"] == 1

    def test_singular_block_solve_degrades_in_place(self):
        # The shared-static block solve recovers a singular/poisoned solve
        # through its per-column least-squares fallback: no quarantine,
        # telemetry only.
        scenarios = _scenarios(3)
        clean = self._sweep(scenarios).run()
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("singular")):
            result = sweep.run()
        assert all(result.status_of(sc.name) == "ok" for sc in result.scenarios)
        assert result.perf_stats["health"]["backend_fallbacks"] >= 1
        _assert_sweep_matches(result, clean, tol=1e-9)

    def test_step_keyed_singular_fires_once_on_lane_sets(self):
        # The block loop publishes its step, so a step-keyed plan entry
        # fires in the first corner group's block solve at that step only.
        scenarios = [
            Scenario(name=f"s{k}", bit_pattern="010", corner={"load_resistance": r})
            for k, r in enumerate((400.0, 400.0, 600.0, 600.0))
        ]
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("singular", step=3)) as plan:
            result = sweep.run()
        assert result.perf_stats["static_groups"] == 2
        assert [f["step"] for f in plan.fired] == [3]
        assert result.perf_stats["health"]["backend_fallbacks"] == 1
        assert all(result.status_of(sc.name) == "ok" for sc in scenarios)
        assert result.failed_scenarios == []

    def test_lane_set_fallback_event_names_its_step(self):
        # The golden linear sweep steps its scenarios as lane sets: the
        # block solve's least-squares fallback records the step it ran in.
        from repro.api import load_spec, run

        spec = load_spec(os.path.join(
            os.path.dirname(__file__), "..", "examples", "jobs", "linear_link.json",
        )).quickened()
        with faults.injected(faults.Fault("singular", step=3)):
            result = run(spec)
        health = result.perf_stats["health"]
        assert health["backend_fallbacks"] == 1
        [event] = health["events"]
        assert event["step"] == 3
        assert event["context"]["site"] == "solve_block"

    def test_backend_error_on_reference_path_recovers(self):
        scenarios = _scenarios(3)
        options = TransientOptions(fast=False)
        clean = self._sweep(scenarios, options=options).run()
        sweep = self._sweep(scenarios, options=options)
        with faults.injected(faults.Fault("backend_error", step=8, scenario="s0")):
            result = sweep.run()
        assert result.status_of("s0") == "recovered"
        _assert_sweep_matches(result, clean)
        assert result.perf_stats["health"]["failure_counts"][BACKEND_ERROR] == 1

    def test_poisoned_scenario_yields_partial_result(self):
        # Acceptance: 12 scenarios, 1 persistently poisoned -> a partial
        # SweepResult with 11 "ok" waveform sets and 1 structured failure.
        scenarios = _scenarios(12)
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("nan", scenario="s7", count=None)):
            result = sweep.run()
        assert not result.ok
        assert result.failed_scenarios == ["s7"]
        assert len(result.completed_scenarios) == 11
        assert all(
            result.status_of(f"s{k}") == "ok" for k in range(12) if k != 7
        )
        assert result.status_of("s7") == "failed"
        failure = result.failure_of("s7")
        assert failure["kind"] == NAN_INF and failure["scenario"] == "s7"
        # The waveforms of the survivors are present and finite.
        for name in result.completed_scenarios:
            assert np.all(np.isfinite(result.voltage(name, "far")))
        # Accessing the failed scenario names the failure.
        with pytest.raises(KeyError, match="nan_inf"):
            result.result("s7")

    def test_partial_sweep_eye_report_lists_failures(self):
        scenarios = _scenarios(4)
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("nan", scenario="s3", count=None)):
            result = sweep.run()
        report = eye_report(result, "far", bit_time=2e-9, low=0.0, high=1.0)
        assert report.failed == ["s3"]
        assert len(report.rows) == 3
        assert "failed scenarios (no eye): s3" in report.format()
        assert report.to_dict()["failed_scenarios"] == ["s3"]

    def test_sequential_mode_isolates_failures_too(self):
        scenarios = _scenarios(3)
        sweep = self._sweep(scenarios)
        with faults.injected(faults.Fault("nan", scenario="s1", count=None)):
            result = sweep.run_sequential()
        assert result.status_of("s1") == "failed"
        assert result.completed_scenarios == ["s0", "s2"]
        assert result.failures["s1"]["kind"] == NAN_INF


class TestRBFSweepFaults:
    DT, DURATION = 1e-11, 1.5e-9

    def _sweep(self, scenarios, driver_model, receiver_model, **kwargs):
        return rbf_link_sweep(
            scenarios, {None: (driver_model, receiver_model)},
            dt=self.DT, duration=self.DURATION, **kwargs
        )

    def _rbf_scenarios(self, n=3):
        return [
            Scenario(name=f"r{k}", bit_pattern=pattern)
            for k, pattern in enumerate(["010", "0110", "0101"][:n])
        ]

    def test_nan_quarantines_then_solo_recovery(self, driver_model, receiver_model):
        scenarios = self._rbf_scenarios()
        clean = self._sweep(scenarios, driver_model, receiver_model).run()
        sweep = self._sweep(scenarios, driver_model, receiver_model)
        with faults.injected(faults.Fault("nan", step=30, scenario="r1")):
            result = sweep.run()
        assert result.status_of("r1") == "recovered"
        _assert_sweep_matches(result, clean)
        stats = result.perf_stats
        assert stats["quarantined_scenarios"] == ["r1"]
        assert stats["health"]["failure_counts"][NAN_INF] == 1

    def test_nonconvergence_and_backend_error_recover(
        self, driver_model, receiver_model
    ):
        scenarios = self._rbf_scenarios()
        clean = self._sweep(scenarios, driver_model, receiver_model).run()
        sweep = self._sweep(scenarios, driver_model, receiver_model)
        with faults.injected(
            faults.Fault("nonconvergence", step=12, scenario="r0"),
            faults.Fault("backend_error", step=40, scenario="r2"),
        ):
            result = sweep.run()
        assert result.status_of("r0") == "recovered"
        assert result.status_of("r2") == "recovered"
        assert result.status_of("r1") == "ok"
        _assert_sweep_matches(result, clean)
        counts = result.perf_stats["health"]["failure_counts"]
        assert counts[NON_CONVERGENCE] == 1 and counts[BACKEND_ERROR] == 1

    def test_singular_solve_degrades_in_place(self, driver_model, receiver_model):
        scenarios = self._rbf_scenarios(2)
        clean = self._sweep(scenarios, driver_model, receiver_model).run()
        sweep = self._sweep(scenarios, driver_model, receiver_model)
        with faults.injected(faults.Fault("singular", step=25, scenario="r0")):
            result = sweep.run()
        assert all(result.status_of(sc.name) == "ok" for sc in result.scenarios)
        assert result.perf_stats["health"]["backend_fallbacks"] >= 1
        _assert_sweep_matches(result, clean, tol=1e-9)

    def test_retry_policy_runs_only_in_the_solo_retry(self):
        # In the batch a failure quarantines its scenario without a retry;
        # the one cold solo retry keeps the job's retry policy.
        from repro.api import load_spec, run

        spec = load_spec(os.path.join(
            os.path.dirname(__file__), "..", "examples", "jobs",
            "pattern_corner_sweep.json",
        )).quickened()
        spec = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, max_retries=2)
        )
        clean = run(spec)
        with faults.injected(faults.Fault("nan", step=5, scenario="01011010/z100")):
            result = run(spec)
        assert result.meta["scenario_status"]["01011010/z100"] == "recovered"
        stats = result.perf_stats
        assert stats["quarantined_scenarios"] == ["01011010/z100"]
        assert stats["solo_retries"] == 1
        assert stats["health"]["retries"] == 0
        assert result.names() == clean.names()
        assert result.times.tobytes() == clean.times.tobytes()
        for name in clean.names():
            assert result.waveform(name).tobytes() == clean.waveform(name).tobytes(), name


# ---------------------------------------------------------------------------
# scalar Newton NaN guard
# ---------------------------------------------------------------------------

class TestScalarNewtonNanGuard:
    def test_nan_residual_bails_immediately(self):
        stats = NewtonStats()
        result = newton_solve_scalar_fused(
            lambda x: (float("nan"), 1.0), 0.0, stats=stats
        )
        assert not result.converged
        assert result.iterations == 0  # no pointless march to the cap
        assert stats.nan_failures == 1 and stats.failures == 1

    def test_nan_mid_iteration_bails(self):
        # Finite at the start, poisoned after the first update.
        calls = {"n": 0}

        def residual(x):
            calls["n"] += 1
            return 1.0 if calls["n"] == 1 else float("nan")

        stats = NewtonStats()
        result = newton_solve_scalar_fused(lambda x: (residual(x), 1.0), 0.0, stats=stats)
        assert not result.converged
        assert result.iterations == 1
        assert stats.nan_failures == 1
        merged = NewtonStats()
        merged.merge(stats)
        assert merged.summary()["nan_failures"] == 1


# ---------------------------------------------------------------------------
# the shared atomic cache
# ---------------------------------------------------------------------------

class TestAtomicCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "entry.json")
        payload = {"a": [1, 2, 3], "b": "text"}
        assert cache.atomic_write_json(path, payload)
        assert cache.read_json(path) == payload
        # The on-disk document carries the checksum wrapper.
        with open(path) as handle:
            document = json.load(handle)
        assert document["cache_format"] == cache.CACHE_DOC_FORMAT
        assert document["checksum"] == cache.checksum(payload)

    def test_checksum_mismatch_unlinks(self, tmp_path):
        path = str(tmp_path / "entry.json")
        cache.atomic_write_json(path, {"value": 1})
        with open(path) as handle:
            document = json.load(handle)
        document["payload"]["value"] = 2  # bit-flip without re-checksumming
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.read_json(path) is None
        assert not os.path.exists(path)

    def test_truncated_json_unlinks(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w") as handle:
            handle.write('{"cache_format": 1, "checks')
        assert cache.read_json(path) is None
        assert not os.path.exists(path)

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert cache.read_json(str(tmp_path / "absent.json")) is None

    def test_legacy_entry_passes_through(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w") as handle:
            json.dump({"driver": {}, "receiver": {}}, handle)
        assert cache.read_json(path) == {"driver": {}, "receiver": {}}
        assert os.path.exists(path)  # caller decides whether to invalidate
        cache.invalidate(path)
        assert not os.path.exists(path)

    def test_unserialisable_payload_fails_softly(self, tmp_path):
        path = str(tmp_path / "entry.json")
        assert not cache.atomic_write_json(path, {"bad": object()})
        assert not os.path.exists(path)
