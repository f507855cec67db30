"""Equivalence suite for the fast-path kernel layer (:mod:`repro.perf`).

Every engine carries a naive reference implementation (selected with
``fast=False`` / :func:`repro.perf.use_fastpath`) that serves as the
correctness oracle for the optimised kernels.  These tests assert that the
fast paths reproduce the reference results to well below 1e-12 relative —
for the MNA solver, the separable RBF evaluation and both FDTD steppers —
and that the cached-LU path is actually hit for purely linear circuits.
"""

import numpy as np
import pytest

from repro import perf
from repro.circuits.elements import Capacitor, Inductor, Resistor, VoltageSource
from repro.circuits.diode import Diode
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.rbf_element import MacromodelElement
from repro.circuits.tline import IdealTransmissionLine
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.core.ports import MacromodelTermination, ResistiveSourceTermination
from repro.core.resampling import ResampledPortModel
from repro.fdtd.geometry import add_pec_plate
from repro.fdtd.grid import YeeGrid
from repro.fdtd.lumped import LumpedElementSite
from repro.fdtd.plane_wave import PlaneWaveSource
from repro.fdtd.solver1d import FDTD1DLine
from repro.fdtd.solver3d import FDTD3DSolver
from repro.macromodel.driver import LogicStimulus
from repro.macromodel.library import (
    ReferenceDeviceParameters,
    make_reference_driver_macromodel,
    make_reference_receiver_macromodel,
)
from repro.macromodel.rbf import GaussianRBFExpansion


REL_TOL = 1e-12


@pytest.fixture(scope="module")
def params():
    return ReferenceDeviceParameters()


@pytest.fixture(scope="module")
def driver_model(params):
    return make_reference_driver_macromodel(params, n_centers=60)


@pytest.fixture(scope="module")
def receiver_model(params):
    return make_reference_receiver_macromodel(params, n_centers=40)


def _assert_close(fast, ref, label, rel=REL_TOL):
    fast = np.asarray(fast)
    ref = np.asarray(ref)
    scale = max(1.0, float(np.max(np.abs(ref)))) if ref.size else 1.0
    err = float(np.max(np.abs(fast - ref))) if ref.size else 0.0
    assert err <= rel * scale, f"{label}: max |diff| {err:.3e} > {rel:.0e} * {scale:.3g}"


# -- MNA fast path ---------------------------------------------------------

def _linear_circuit():
    ckt = Circuit("rlc-link")
    ckt.add(VoltageSource("vin", "in", GROUND, lambda t: np.sin(2e9 * np.pi * t)))
    ckt.add(Resistor("rs", "in", "a", 50.0))
    ckt.add(Inductor("l1", "a", "b", 10e-9))
    ckt.add(Capacitor("c1", "b", GROUND, 2e-12))
    ckt.add(IdealTransmissionLine("tl", "b", GROUND, "out", GROUND, 75.0, 0.3e-9))
    ckt.add(Resistor("rl", "out", GROUND, 75.0))
    return ckt


def _run_linear(fast):
    solver = TransientSolver(
        _linear_circuit(), dt=5e-12, options=TransientOptions(fast=fast)
    )
    result = solver.run(3e-9)
    return solver, result


def test_mna_linear_equivalence_and_lu_cache():
    solver_fast, fast = _run_linear(True)
    solver_ref, ref = _run_linear(False)
    for node in ("a", "b", "out"):
        _assert_close(fast.voltage(node), ref.voltage(node), f"linear node {node}")
    _assert_close(
        fast.branch_current("l1"), ref.branch_current("l1"), "inductor current"
    )
    assert np.array_equal(fast.newton_iterations, ref.newton_iterations)
    # Purely linear circuit: the Jacobian is factorised exactly once and the
    # factorization is reused for every remaining step.
    stats = solver_fast.perf_stats
    n_steps = len(fast.newton_iterations) - 1
    assert stats["linear_only"] is True
    assert stats["factorizations"] == 1
    assert stats["cached_solves"] >= n_steps - 1
    assert solver_ref.perf_stats["mode"] == "reference"


def test_mna_nonlinear_equivalence(params):
    def build():
        ckt = Circuit("diode-clipper")
        ckt.add(VoltageSource("vin", "in", GROUND, lambda t: 2.5 * np.sin(1e9 * np.pi * t)))
        ckt.add(Resistor("rs", "in", "out", 200.0))
        ckt.add(Capacitor("cl", "out", GROUND, 1e-12))
        ckt.add(Diode("d1", "out", GROUND))
        ckt.add(Diode("d2", GROUND, "out"))
        return ckt

    runs = {}
    for fast in (True, False):
        solver = TransientSolver(build(), dt=10e-12, options=TransientOptions(fast=fast))
        runs[fast] = solver.run(4e-9)
    _assert_close(
        runs[True].voltage("out"), runs[False].voltage("out"), "diode clipper"
    )
    assert np.array_equal(runs[True].newton_iterations, runs[False].newton_iterations)


def test_mna_macromodel_link_equivalence(params, driver_model, receiver_model):
    stimulus = LogicStimulus.from_pattern("010", 0.8e-9)

    def run(fast):
        ckt = Circuit("rbf-link")
        ckt.add(
            MacromodelElement(
                "drv", "near", GROUND, driver_model.bound(stimulus), 5e-12, fast=fast
            )
        )
        ckt.add(
            IdealTransmissionLine("tl", "near", GROUND, "far", GROUND, 131.0, 0.4e-9)
        )
        ckt.add(MacromodelElement("rx", "far", GROUND, receiver_model, 5e-12, fast=fast))
        solver = TransientSolver(ckt, 5e-12, options=TransientOptions(fast=fast))
        return solver.run(2.4e-9, record_nodes=["near", "far"])

    fast, ref = run(True), run(False)
    _assert_close(fast.voltage("near"), ref.voltage("near"), "rbf link near")
    _assert_close(fast.voltage("far"), ref.voltage("far"), "rbf link far")
    assert np.array_equal(fast.newton_iterations, ref.newton_iterations)


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_mosfet_stamp_fast_matches_stamp(polarity):
    """The inlined level-1 math in ``stamp_fast`` must track ``stamp`` exactly."""
    from repro.circuits.elements import StampContext
    from repro.circuits.mosfet import Mosfet

    ckt = Circuit("mos")
    mos = Mosfet("m1", "d", "g", "s", polarity=polarity, k=0.06, vt=0.4, lam=0.05)
    ckt.add(mos)
    ckt.add(Resistor("rd", "d", GROUND, 1e3))
    ckt.add(Resistor("rg", "g", GROUND, 1e3))
    ckt.add(Resistor("rs2", "s", GROUND, 1e3))
    compiled = ckt.compile()
    ctx = StampContext(compiled, 1e-12, 0.0, "trapezoidal")
    mos.prepare_fast(compiled)
    n = compiled.n_unknowns
    rng = np.random.default_rng(polarity == "p")
    for _ in range(500):
        x = rng.uniform(-2.5, 2.5, size=n)
        a_ref, rhs_ref = np.zeros((n, n)), np.zeros(n)
        a_fast, rhs_fast = np.zeros((n, n)), np.zeros(n)
        mos.stamp(a_ref, rhs_ref, x, ctx)
        mos.stamp_fast(a_fast, rhs_fast, x, ctx)
        np.testing.assert_array_equal(a_fast, a_ref)
        np.testing.assert_array_equal(rhs_fast, rhs_ref)


# -- RBF separable evaluation ---------------------------------------------

def test_gaussian_basis_gram_matches_broadcast():
    rng = np.random.default_rng(3)
    expansion = GaussianRBFExpansion(
        centers=rng.normal(size=(40, 5)), weights=rng.normal(size=40), beta=0.4
    )
    pts = rng.normal(size=(100, 5))
    _assert_close(
        expansion.basis(pts), expansion._basis_reference(pts), "gram basis", rel=1e-13
    )
    single = expansion.basis(pts[0])
    assert single.shape == (40,)
    _assert_close(single, expansion._basis_reference(pts[0]), "gram basis single", rel=1e-13)


@pytest.mark.parametrize("kind", ["driver", "receiver"])
def test_separable_port_evaluation_matches_naive(kind, driver_model, receiver_model):
    model = (
        driver_model.bound(LogicStimulus.from_pattern("010", 1e-9))
        if kind == "driver"
        else receiver_model
    )
    rng = np.random.default_rng(7)
    fast_port = ResampledPortModel(model, 10e-12, fast=True)
    ref_port = ResampledPortModel(model, 10e-12, fast=False)
    assert fast_port._fast is not None
    assert ref_port._fast is None
    for step in range(60):
        t = fast_port.time
        v = float(rng.uniform(-0.5, 2.3))
        i_fast, g_fast = fast_port.current_and_dcurrent(v, t)
        i_ref = ref_port.current(v, t)
        g_ref = ref_port.dcurrent_dv(v, t)
        assert abs(i_fast - i_ref) <= 1e-12 * max(1.0, abs(i_ref))
        assert abs(g_fast - g_ref) <= 1e-12 * max(1.0, abs(g_ref))
        fast_port.commit(v, t)
        ref_port.commit(v, t)
        _assert_close(fast_port.x_i, ref_port.x_i, "regressor state", rel=1e-12)


# -- FDTD fast paths -------------------------------------------------------

def _small_3d_solver(fast, with_wave, receiver_model):
    grid = YeeGrid(14, 10, 6, dx=1e-3)
    grid.set_box_epsr((2, 12), (2, 8), (0, 2), 3.5)
    add_pec_plate(grid, "z", 1, (2, 12), (2, 8))
    plane_wave = (
        PlaneWaveSource.paper_figure7(amplitude=500.0, bandwidth_hz=12e9)
        if with_wave
        else None
    )
    solver = FDTD3DSolver(grid, courant_safety=0.9, fast=fast)
    if plane_wave is not None:
        solver.set_plane_wave(plane_wave)
    site_r = LumpedElementSite(
        "load", "z", (4, 4, 2), ResistiveSourceTermination(50.0)
    )
    site_m = LumpedElementSite(
        "rx", "z", (9, 6, 2),
        MacromodelTermination.from_model(receiver_model, 1.5e-12, fast=fast),
    )
    solver.add_lumped_element(site_r)
    solver.add_lumped_element(site_m)
    return solver, site_r, site_m


@pytest.mark.parametrize("with_wave", [True, False])
def test_fdtd3d_fast_equivalence(with_wave, receiver_model):
    results = {}
    for fast in (True, False):
        with perf.use_fastpath(fast):
            solver, site_r, site_m = _small_3d_solver(fast, with_wave, receiver_model)
            if not with_wave:
                # Drive the grid somehow: a Thevenin source on the resistor site.
                site_r.termination.source = lambda t: np.exp(
                    -(((t - 40e-12) / 15e-12) ** 2)
                )
            solver.run(n_steps=60)
            results[fast] = (
                site_r.voltages.copy(),
                site_m.voltages.copy(),
                site_m.currents.copy(),
                solver.ex.copy(),
                solver.ez.copy(),
                solver.newton_stats.total_iterations,
            )
    for fast_arr, ref_arr, label in zip(
        results[True], results[False],
        ("site_r v", "site_m v", "site_m i", "ex", "ez", "newton iters"),
    ):
        _assert_close(fast_arr, ref_arr, f"fdtd3d {label}")


def test_fdtd1d_fast_equivalence(driver_model, receiver_model):
    stimulus = LogicStimulus.from_pattern("010", 1.2e-9)

    def run(fast):
        dt_model = driver_model.sampling_time
        line = FDTD1DLine(
            z0=131.0,
            delay=0.4e-9,
            near_termination=MacromodelTermination.from_model(
                driver_model.bound(stimulus), 0.4e-9 / 40, fast=fast
            ),
            far_termination=MacromodelTermination.from_model(
                receiver_model, 0.4e-9 / 40, fast=fast
            ),
            n_cells=40,
            fast=fast,
        )
        assert line.dt <= dt_model
        return line.run(1.6e-9)

    fast, ref = run(True), run(False)
    for key in ("near_end", "far_end"):
        _assert_close(fast.voltages[key], ref.voltages[key], f"fdtd1d {key}")
        _assert_close(fast.currents[key], ref.currents[key], f"fdtd1d {key} current")
    assert fast.newton_stats.total_iterations == ref.newton_stats.total_iterations


# -- identification disk cache ---------------------------------------------

def test_identification_disk_cache_roundtrip(
    tmp_path, monkeypatch, params, driver_model, receiver_model
):
    from repro.experiments import devices as dev

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    path = dev.identification_cache_path(params, 10, 0)
    assert path is not None and str(tmp_path) in path
    # Different identification parameters must map to different entries.
    assert path != dev.identification_cache_path(params, 11, 0)
    assert path != dev.identification_cache_path(params, 10, 1)

    models = dev.ReferenceMacromodels(
        driver=driver_model, receiver=receiver_model, params=params
    )
    dev._store_identified_to_disk(path, models)
    loaded = dev._load_identified_from_disk(path, params)
    assert loaded is not None
    assert loaded.source == "identified (disk cache)"
    np.testing.assert_array_equal(
        loaded.driver.submodel_up.expansion.weights,
        models.driver.submodel_up.expansion.weights,
    )
    np.testing.assert_array_equal(
        loaded.receiver.protection_up.expansion.centers,
        models.receiver.protection_up.expansion.centers,
    )

    # A corrupt cache entry falls back gracefully (returns None).
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert dev._load_identified_from_disk(path, params) is None

    # The cache can be disabled through the environment.
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    assert dev.identification_cache_path(params, 10, 0) is None


# -- global switch ---------------------------------------------------------

def test_use_fastpath_context_restores_default():
    before = perf.fastpath_default()
    with perf.use_fastpath(not before):
        assert perf.fastpath_default() is (not before)
    assert perf.fastpath_default() is before
