"""The validation transmission-line structure (paper Fig. 3).

"The computational domain is 180 x 24 x 23 cells, with mesh size
dx = dy = dz = 0.723 mm, and is terminated by absorbing boundary
conditions.  The strips are implemented as zero-thickness conductors and
are 4 cells wide and 160 cells long.  The separation between the two
strips is 3 cells.  The effective characteristic impedance of the
resulting transmission line is Zc ~ 131 ohm, while the line delay is
TD ~ 0.4 ns."

The structure is modelled as a pair of broadside-coupled (vertically
stacked) zero-thickness strips in free space, running along x, 4 cells
wide along y and separated by 3 cells along z — the arrangement consistent
with the paper's nearly square 24 x 23 cross-section and its ~131 ohm
effective impedance.  Lumped ports bridge the 3-cell vertical gap at the
two strip ends (one lumped edge plus two PEC wire edges, the standard
multi-cell-gap treatment).

Because the discretised line's *effective* impedance and delay are what
the circuit-level reference engines must use (exactly as the paper quotes
effective values), :func:`estimate_line_parameters` measures them from a
short calibration run.

A ``scale`` parameter shrinks the structure length for fast tests while
keeping the cross-section (hence the characteristic impedance) identical;
only the delay scales.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.ports import LumpedTermination, ResistorTermination, ResistiveSourceTermination
from repro.fdtd.constants import C0
from repro.fdtd.geometry import add_pec_plate, add_pec_wire
from repro.fdtd.grid import YeeGrid
from repro.fdtd.lumped import LumpedElementSite
from repro.fdtd.plane_wave import PlaneWaveSource
from repro.fdtd.solver3d import FDTD3DSolver
from repro.waveforms.signals import StepWaveform

__all__ = ["ValidationLineStructure", "estimate_line_parameters"]


@dataclasses.dataclass
class ValidationLineStructure:
    """Builder for the Figure 3 stacked-strip line.

    Parameters
    ----------
    mesh_size:
        Cubic cell edge (the paper uses 0.723 mm).
    strip_length_cells:
        Strip length in cells (160 in the paper).
    strip_width_cells:
        Strip width in cells (4).
    separation_cells:
        Vertical gap between the strips in cells (3).
    margin_x, margin_y, margin_z:
        Free-space margin (cells) between the structure and the absorbing
        boundaries; the defaults reproduce the paper's 180 x 24 x 23 domain.
    """

    mesh_size: float = 0.723e-3
    strip_length_cells: int = 160
    strip_width_cells: int = 4
    separation_cells: int = 3
    margin_x: int = 10
    margin_y: int = 10
    margin_z: int = 10

    def __post_init__(self):
        if min(self.strip_length_cells, self.strip_width_cells, self.separation_cells) < 1:
            raise ValueError("strip dimensions must be at least one cell")
        if min(self.margin_x, self.margin_y, self.margin_z) < 2:
            raise ValueError("margins must be at least two cells")

    @classmethod
    def paper(cls) -> "ValidationLineStructure":
        """The exact configuration of the paper (180 x 24 x 23 cells)."""
        return cls()

    @classmethod
    def scaled(cls, scale: float) -> "ValidationLineStructure":
        """A proportionally shortened line (same cross-section, shorter delay).

        Useful for tests and continuous integration: ``scale=0.25`` keeps
        the impedance while cutting both the cell count and the number of
        time steps needed.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must lie in (0, 1]")
        length = max(int(round(160 * scale)), 16)
        return cls(strip_length_cells=length)

    # -- derived dimensions -------------------------------------------------
    @property
    def nx(self) -> int:
        """Domain size (cells) along the strips."""
        return self.strip_length_cells + 2 * self.margin_x

    @property
    def ny(self) -> int:
        """Domain size (cells) across the strips."""
        return self.strip_width_cells + 2 * self.margin_y

    @property
    def nz(self) -> int:
        """Domain size (cells) normal to the strips (stacking direction)."""
        return self.separation_cells + 2 * self.margin_z

    @property
    def x_near(self) -> int:
        """x node index of the near-end ports."""
        return self.margin_x

    @property
    def x_far(self) -> int:
        """x node index of the far-end ports."""
        return self.margin_x + self.strip_length_cells

    @property
    def y_strip(self) -> tuple[int, int]:
        """y node range of both strips."""
        return (self.margin_y, self.margin_y + self.strip_width_cells)

    @property
    def k_bottom(self) -> int:
        """z node index of the lower (signal) strip."""
        return self.margin_z

    @property
    def k_top(self) -> int:
        """z node index of the upper (return) strip."""
        return self.margin_z + self.separation_cells

    @property
    def y_port(self) -> int:
        """y node index of the port edges (strip centreline)."""
        return self.margin_y + self.strip_width_cells // 2

    def build_grid(self) -> YeeGrid:
        """Create the Yee grid with the strips and the port bridge wires."""
        grid = YeeGrid(self.nx, self.ny, self.nz, self.mesh_size)
        y0, y1 = self.y_strip
        add_pec_plate(grid, "z", self.k_bottom, (self.x_near, self.x_far), (y0, y1))
        add_pec_plate(grid, "z", self.k_top, (self.x_near, self.x_far), (y0, y1))
        # Bridge wires across the vertical gap at both ends: the lumped
        # element takes the first gap edge (adjacent to the signal strip),
        # PEC wires complete the connection to the return strip.
        for x_port in (self.x_near, self.x_far):
            if self.separation_cells > 1:
                add_pec_wire(
                    grid,
                    "z",
                    (x_port, self.y_port, self.k_bottom + 1),
                    self.separation_cells - 1,
                )
        return grid

    def port_site(
        self, name: str, end: str, termination: LumpedTermination
    ) -> LumpedElementSite:
        """A lumped port bridging the vertical gap at the requested end.

        ``end`` is ``"near"`` or ``"far"``.  The port's signal terminal is
        the lower strip, so driver and receiver macromodels plug in without
        orientation flips.
        """
        if end not in ("near", "far"):
            raise ValueError("end must be 'near' or 'far'")
        x_port = self.x_near if end == "near" else self.x_far
        return LumpedElementSite(
            name=name,
            axis="z",
            node=(x_port, self.y_port, self.k_bottom),
            termination=termination,
            flip=False,
        )

    def build_solver(
        self,
        near_termination: LumpedTermination,
        far_termination: LumpedTermination,
        dt: float | None = None,
        plane_wave: PlaneWaveSource | None = None,
    ) -> tuple[FDTD3DSolver, LumpedElementSite, LumpedElementSite]:
        """Grid + solver + both ports, ready to run."""
        grid = self.build_grid()
        solver = FDTD3DSolver(grid, dt=dt)
        if plane_wave is not None:
            solver.set_plane_wave(plane_wave)
        near = solver.add_lumped_element(self.port_site("near_end", "near", near_termination))
        far = solver.add_lumped_element(self.port_site("far_end", "far", far_termination))
        return solver, near, far


def estimate_line_parameters(
    structure: ValidationLineStructure | None = None,
    dt: float | None = None,
    source_resistance: float = 100.0,
) -> tuple[float, float]:
    """Measure the effective ``(Z_c, T_D)`` of the discretised line.

    Mirrors the paper's own statement of "effective" line constants: a fast
    step is launched from a resistive source at the near end into a far end
    terminated with an approximate match; the characteristic impedance is
    the ratio of incident voltage to incident current at the near port while
    the launched wave is in flight, and the delay is the time between the
    near- and far-end half-amplitude crossings.
    """
    structure = structure or ValidationLineStructure.scaled(0.5)
    step = StepWaveform(low=0.0, high=1.0, t_start=20e-12, rise_time=30e-12)
    near = ResistiveSourceTermination(source_resistance, step)
    far = ResistorTermination(130.0)
    solver, near_site, far_site = structure.build_solver(near, far, dt=dt)

    flight = structure.strip_length_cells * structure.mesh_size / C0
    times = solver.run(duration=2.5 * flight + 0.2e-9)

    v_near = near_site.voltages
    i_near = near_site.currents
    v_far = far_site.voltages

    # Use the window after the launch has settled but before the first
    # reflection returns (between 40% and 80% of the one-way flight time).
    t0 = 20e-12 + 30e-12
    lo = int(np.searchsorted(times, t0 + 0.4 * flight))
    hi = int(np.searchsorted(times, t0 + 0.8 * flight))
    if hi <= lo + 2:
        raise ValueError("structure too short to estimate its parameters")
    # Current into the source termination is the negative of the current
    # launched into the line.
    z_c = float(np.mean(v_near[lo:hi] / np.maximum(-i_near[lo:hi], 1e-12)))

    half_near = 0.5 * float(np.mean(v_near[lo:hi]))
    cross_near = times[int(np.argmax(v_near > half_near))]
    cross_far = times[int(np.argmax(v_far > half_near))]
    t_d = float(cross_far - cross_near)
    return z_c, t_d
