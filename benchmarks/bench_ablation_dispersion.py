"""Ablation B — 3-D FDTD numerical dispersion versus mesh density.

The paper notes that "only the 3D-FDTD result has a marginal deviation from
the other curves due to numerical dispersion".  This ablation quantifies the
effect on the discretised validation line: the effective line delay and
impedance are measured at the paper's mesh size and at a coarser mesh, and
the deviation of the 3-D hybrid waveform from the 1-D (dispersionless)
hybrid is reported for both.
"""


from repro.core.cosim import LinkDescription
from repro.experiments.fig4_rc_load import run_fdtd1d_link, run_fdtd3d_link
from repro.experiments.reporting import engine_agreement, format_table
from repro.experiments.devices import ReferenceMacromodels
from repro.macromodel.library import (
    ReferenceDeviceParameters,
    make_reference_driver_macromodel,
    make_reference_receiver_macromodel,
)
from repro.structures.validation_line import ValidationLineStructure, estimate_line_parameters


def test_ablation_mesh_dispersion(benchmark):
    params = ReferenceDeviceParameters()
    models = ReferenceMacromodels(
        driver=make_reference_driver_macromodel(params),
        receiver=make_reference_receiver_macromodel(params),
        params=params,
        source="library",
    )

    # Same physical strip length, two mesh densities: the paper's 0.723 mm
    # cells and 2x coarser cells (half the number of cells along the line).
    fine = ValidationLineStructure(strip_length_cells=40)
    coarse = ValidationLineStructure(
        mesh_size=2 * 0.723e-3, strip_length_cells=20, margin_x=5, margin_y=5, margin_z=5
    )

    def study():
        out = {}
        for label, structure in (("fine (0.723 mm)", fine), ("coarse (1.446 mm)", coarse)):
            z_c, t_d = estimate_line_parameters(structure)
            link = LinkDescription(load="rc", z0=z_c, delay=t_d, duration=3e-9)
            ref_1d = run_fdtd1d_link(models, link)
            res_3d = run_fdtd3d_link(structure, models, link)
            out[label] = (z_c, t_d, engine_agreement(ref_1d, res_3d))
        return out

    results = benchmark.pedantic(study, rounds=1, iterations=1)

    rows = [
        [label, f"{z_c:.1f}", f"{t_d*1e12:.0f} ps", f"{m['near_end']:.3f}", f"{m['far_end']:.3f}"]
        for label, (z_c, t_d, m) in results.items()
    ]
    print("\nAblation B — mesh density: 3-D hybrid deviation from the dispersionless 1-D hybrid")
    print(format_table(["mesh", "Zc [ohm]", "TD", "near rel. RMS", "far rel. RMS"], rows))

    fine_metrics = results["fine (0.723 mm)"][2]
    coarse_metrics = results["coarse (1.446 mm)"][2]
    # The paper calls the 3-D deviation "marginal": at both mesh densities the
    # 3-D hybrid stays within a few percent of the dispersionless 1-D hybrid
    # (on lines this short the dispersion error is below the other
    # discretisation errors, so no monotone growth with cell size is asserted).
    assert fine_metrics["far_end"] < 0.05
    assert coarse_metrics["far_end"] < 0.10
    # Both meshes land near the paper's 131 ohm effective impedance.
    assert abs(results["fine (0.723 mm)"][0] - 131.0) / 131.0 < 0.12
    assert abs(results["coarse (1.446 mm)"][0] - 131.0) / 131.0 < 0.20
