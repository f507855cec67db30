"""Integration tests: cross-engine consistency on shortened versions of the
paper's experiments (the full-size runs live in ``benchmarks/``).

These are the heart of the reproduction: the same physical link simulated by
the SPICE-class engine with transistor-level devices, the SPICE-class engine
with RBF macromodels, the 1-D FDTD hybrid and the 3-D FDTD hybrid must
produce consistent terminal waveforms (paper Figures 4 and 5), and the PCB
run must show the incident field superimposing a visible disturbance
(Figure 7).
"""

import numpy as np
import pytest

from repro.circuits.testbenches import run_link_rbf, run_link_transistor
from repro.core.cosim import LinkDescription
from repro.experiments.devices import ReferenceMacromodels
from repro.experiments.fig4_rc_load import run_fdtd1d_link, run_fdtd3d_link
from repro.experiments.reporting import engine_agreement
from repro.structures.validation_line import ValidationLineStructure, estimate_line_parameters


@pytest.fixture(scope="module")
def library_models(driver_model, receiver_model, params):
    """Fast analytic macromodels packaged for the experiment helpers."""
    return ReferenceMacromodels(
        driver=driver_model, receiver=receiver_model, params=params, source="library"
    )


@pytest.fixture(scope="module")
def short_line():
    """A shortened validation line plus its measured effective constants."""
    structure = ValidationLineStructure.scaled(0.2)
    z_c, t_d = estimate_line_parameters(structure)
    return structure, z_c, t_d


class TestRBFEnginesMutualConsistency:
    """The three RBF-based engines must agree closely with one another
    (they share the same macromodel, so residual differences measure only
    the interconnect models and the hybridisation)."""

    @pytest.fixture(scope="class")
    def rbf_results(self, library_models, short_line):
        structure, z_c, t_d = short_line
        link = LinkDescription(load="rc", z0=z_c, delay=t_d, duration=4e-9)
        spice = run_link_rbf(link, library_models.driver, library_models.receiver,
                             dt=10e-12, params=library_models.params)
        fdtd1d = run_fdtd1d_link(library_models, link, z_c, t_d)
        fdtd3d = run_fdtd3d_link(structure, library_models, link)
        return spice, fdtd1d, fdtd3d

    def test_fdtd1d_matches_spice_rbf(self, rbf_results):
        spice, fdtd1d, _ = rbf_results
        metrics = engine_agreement(spice, fdtd1d)
        assert metrics["near_end"] < 0.05
        assert metrics["far_end"] < 0.05

    def test_fdtd3d_matches_spice_rbf(self, rbf_results):
        spice, _, fdtd3d = rbf_results
        metrics = engine_agreement(spice, fdtd3d)
        assert metrics["near_end"] < 0.08
        assert metrics["far_end"] < 0.08

    def test_waveforms_swing_rail_to_rail(self, rbf_results):
        spice, _, fdtd3d = rbf_results
        for result in (spice, fdtd3d):
            far = result.voltage("far_end")
            assert far.max() > 1.5          # reaches near the supply (with overshoot)
            assert far.min() < 0.3          # returns towards ground
        # RC load on a higher-impedance line overshoots above the rail
        assert spice.voltage("far_end").max() > 1.9

    def test_newton_iterations_stay_small(self, rbf_results):
        _, fdtd1d, fdtd3d = rbf_results
        assert fdtd1d.newton_stats.max_iterations <= 4
        assert fdtd3d.newton_stats.max_iterations <= 4
        assert fdtd1d.newton_stats.failures == 0


class TestTransistorVersusMacromodel:
    """SPICE with transistor-level devices versus SPICE with the macromodel:
    the library macromodel captures the static drive strength, so the two
    engines agree on levels; edge timing differs slightly because the
    library switching weights are analytic rather than identified."""

    def test_rc_load_levels_agree(self, library_models, short_line):
        _, z_c, t_d = short_line
        link = LinkDescription(load="rc", z0=z_c, delay=t_d, duration=4e-9)
        ref = run_link_transistor(link, library_models.params, dt=10e-12)
        rbf = run_link_rbf(link, library_models.driver, library_models.receiver,
                           dt=10e-12, params=library_models.params)
        t = ref.times
        far_ref = ref.voltage("far_end")
        far_rbf = rbf.resampled_voltage("far_end", t)
        # compare the settled levels of each bit (avoid the switching edges)
        for t_query, level in ((1.8e-9, 0.0), (3.8e-9, 1.8)):
            k = int(np.searchsorted(t, t_query))
            assert far_ref[k] == pytest.approx(level, abs=0.25)
            assert far_rbf[k] == pytest.approx(level, abs=0.25)
            assert far_rbf[k] == pytest.approx(far_ref[k], abs=0.25)

    def test_receiver_load_levels_agree(self, library_models, short_line):
        """The receiver load is almost purely capacitive, so the line rings
        for a long time after the up transition (as in the paper's Fig. 5);
        the two engines must agree on the ringing centre and on the presence
        of overshoot, even though their edge phases differ slightly."""
        _, z_c, t_d = short_line
        link = LinkDescription(load="receiver", z0=z_c, delay=t_d, duration=4e-9)
        ref = run_link_transistor(link, library_models.params, dt=10e-12)
        rbf = run_link_rbf(link, library_models.driver, library_models.receiver,
                           dt=10e-12, params=library_models.params)
        t = ref.times
        window = (t > 3e-9) & (t < 4e-9)
        ref_far = ref.voltage("far_end")
        rbf_far = rbf.resampled_voltage("far_end", t)
        # ringing centred on the supply rail for both engines
        assert np.mean(ref_far[window]) == pytest.approx(1.8, abs=0.25)
        assert np.mean(rbf_far[window]) == pytest.approx(np.mean(ref_far[window]), abs=0.25)
        # both show the capacitive-load overshoot above the rail
        assert ref_far.max() > 2.0
        assert rbf_far.max() > 2.0


class TestStartHighPatterns:
    """A pattern that starts with '1' starts the whole MNA link at Vdd:
    driver, line, receiver port and the solver's initial node voltages.
    It used to fail Newton on the first step."""

    @pytest.mark.parametrize("pattern", ["1", "101", "110"])
    @pytest.mark.parametrize("kind", ["circuit", "sweep"])
    def test_start_high_pattern_converges_at_vdd(self, library_models, kind, pattern):
        from repro.api import run, spec_from_dict

        doc = {
            "format_version": 1,
            "kind": kind,
            "duration": 2e-9,
            "stimulus": {"bit_pattern": pattern},
            "link": {"load": "receiver"},
        }
        if kind == "sweep":
            doc["scenarios"] = [{"name": "s"}]
            doc["engine"] = {"sweep_family": "rbf"}
        result = run(spec_from_dict(doc), models=library_models)
        prefix = "s/" if kind == "sweep" else ""
        near = result.waveform(prefix + ("near" if kind == "sweep" else "near_end"))
        far = result.waveform(prefix + ("far" if kind == "sweep" else "far_end"))
        vdd = library_models.params.vdd
        assert near[0] == far[0] == vdd
        # the first bit holds the link high: no discharge towards 0 V
        assert np.all(near > vdd - 0.1)
        assert np.all(far > vdd - 0.1)


class TestFigure7Disturbance:
    def test_incident_field_produces_disturbance(self, library_models):
        """On a reduced PCB the external field must visibly disturb the
        terminal voltages while leaving the no-field run unchanged."""
        from repro.experiments.fig7_pcb import run_figure7

        result = run_figure7(
            scale=0.3, duration=1.5e-9, bit_time=0.6e-9, models=library_models
        )
        assert result.disturbance["near_end"] > 0.01
        assert result.disturbance["far_end"] > 0.01
        for key, sim in result.results.items():
            assert np.all(np.isfinite(sim.voltage("near_end")))
            assert np.all(np.abs(sim.voltage("near_end")) < 10.0)
        series = result.series
        assert set(series) == {
            "NE, with ext. field",
            "FE, with ext. field",
            "NE, no ext. field",
            "FE, no ext. field",
        }
