"""The PCB field-coupling structure (paper Fig. 6).

"The 5 cm x 5 cm PCB structure ... Three 400 um-wide coupled strips run
parallel to each other on the top (along x coordinate, length 4 cm) and
bottom (along y coordinate, length 4 cm) of the PCB signal layer.  Three
vias connect the orthogonal sections of the strips.  Top and bottom glue
layers cover the signal layer, and the entire PCB is metallized on both
sides.  The relative permittivity for all layers is eps_r = 4.3, with a
single layer height of 400 um.  The innermost strip is driven by the RBF
macromodel of the driver on one end and is terminated on the other end by
the RBF macromodel of the receiver.  All the other terminations consist of
50 ohm resistors."

Reproduction notes (also recorded in DESIGN.md):

* The in-plane mesh uses 0.5 mm cells, so the 400 um strips are one cell
  wide and the overall board is 100 x 100 cells — a modest coarsening of
  the geometry that keeps the benchmark runnable in minutes while
  preserving the routing topology (L-shaped coupled lines through vias).
* The vertical mesh uses the exact 400 um layer height (one cell per
  layer, three layers), with the outer metallisation realised as PEC
  plates on the top and bottom domain faces.
* Each route runs along x on the top of the signal layer, drops through a
  via, and continues along y on the bottom of the signal layer, matching
  the figure.  Ports connect each strip end to the nearest metallisation
  plane through the glue layer.
"""

from __future__ import annotations

import dataclasses

from repro.core.ports import LumpedTermination, ResistorTermination
from repro.fdtd.geometry import add_pec_plate, add_via
from repro.fdtd.grid import YeeGrid
from repro.fdtd.lumped import LumpedElementSite
from repro.fdtd.plane_wave import PlaneWaveSource
from repro.fdtd.solver3d import FDTD3DSolver

__all__ = ["PCBStructure"]


@dataclasses.dataclass
class PCBStructure:
    """Builder for the Figure 6 PCB.

    Parameters
    ----------
    board_cells:
        Board extent in cells along x and y (100 cells of 0.5 mm = 5 cm).
    in_plane_cell:
        In-plane cell size (m).
    layer_height:
        Height of each of the three dielectric layers (one cell each).
    eps_r:
        Relative permittivity of all layers.
    strip_length_cells:
        Length of each strip arm (80 cells of 0.5 mm = 4 cm).
    strip_pitch_cells:
        Centre-to-centre spacing of the three coupled strips.
    """

    board_cells: int = 100
    in_plane_cell: float = 0.5e-3
    layer_height: float = 0.4e-3
    eps_r: float = 4.3
    strip_length_cells: int = 80
    strip_pitch_cells: int = 2

    #: number of dielectric layers (bottom glue, signal, top glue)
    n_layers: int = 3

    def __post_init__(self):
        if self.board_cells < 20:
            raise ValueError("board_cells must be at least 20")
        if self.strip_length_cells >= self.board_cells:
            raise ValueError("strips must fit inside the board")
        if self.strip_pitch_cells < 1:
            raise ValueError("strip_pitch_cells must be at least 1")

    @classmethod
    def paper(cls) -> "PCBStructure":
        """The full-size board (100 x 100 x 3 cells)."""
        return cls()

    @classmethod
    def scaled(cls, scale: float) -> "PCBStructure":
        """A proportionally smaller board for tests (same stack-up)."""
        if not 0 < scale <= 1:
            raise ValueError("scale must lie in (0, 1]")
        board = max(int(round(100 * scale)), 24)
        strips = max(int(round(0.8 * board)), 16)
        return cls(board_cells=board, strip_length_cells=strips)

    # -- derived geometry ------------------------------------------------------
    @property
    def nx(self) -> int:
        """Cells along x."""
        return self.board_cells

    @property
    def ny(self) -> int:
        """Cells along y."""
        return self.board_cells

    @property
    def nz(self) -> int:
        """Cells along z (one per layer)."""
        return self.n_layers

    @property
    def k_bottom_strips(self) -> int:
        """z node index of the bottom (y-directed) strips."""
        return 1

    @property
    def k_top_strips(self) -> int:
        """z node index of the top (x-directed) strips."""
        return 2

    @property
    def margin(self) -> int:
        """In-plane margin between the board edge and the strip starts."""
        return (self.board_cells - self.strip_length_cells) // 2

    def strip_y_positions(self) -> list[int]:
        """y node indices of the three top strips (innermost is index 1)."""
        centre = self.board_cells // 2
        pitch = self.strip_pitch_cells
        return [centre - pitch, centre, centre + pitch]

    def strip_x_positions(self) -> list[int]:
        """x node indices of the three bottom strips (aligned with the vias)."""
        via_x = self.margin + self.strip_length_cells
        pitch = self.strip_pitch_cells
        return [via_x - pitch, via_x, via_x + pitch]

    # -- grid -------------------------------------------------------------------
    def build_grid(self) -> YeeGrid:
        """Create the grid: stack-up, metallisation, strips and vias."""
        grid = YeeGrid(
            self.nx, self.ny, self.nz, self.in_plane_cell, self.in_plane_cell, self.layer_height
        )
        grid.set_box_epsr((0, self.nx), (0, self.ny), (0, self.nz), self.eps_r)

        # Double-sided metallisation on the outer faces.
        add_pec_plate(grid, "z", 0, (0, self.nx), (0, self.ny))
        add_pec_plate(grid, "z", self.nz, (0, self.nx), (0, self.ny))

        ys = self.strip_y_positions()
        xs = self.strip_x_positions()
        m = self.margin
        via_x = m + self.strip_length_cells
        via_y_end = self.board_cells - m

        for idx, (y_top, x_bot) in enumerate(zip(ys, xs)):
            # Top strips run along x at the top of the signal layer.
            grid.pec_x[m:via_x, y_top, self.k_top_strips] = True
            # Bottom strips run along y at the bottom of the signal layer.
            grid.pec_y[x_bot, y_top : via_y_end, self.k_bottom_strips] = True
            # Via joining the two arms through the signal layer.
            add_via(grid, x_bot, y_top, (self.k_bottom_strips, self.k_top_strips))
            # Short jog on the top layer from the end of the x-arm to the via
            # location (the arms are offset by the strip pitch).
            x_lo, x_hi = sorted((via_x, x_bot))
            if x_hi > x_lo:
                grid.pec_x[x_lo:x_hi, y_top, self.k_top_strips] = True
            del idx
        return grid

    # -- ports --------------------------------------------------------------------
    def driver_port(self, termination: LumpedTermination, route: int = 1) -> LumpedElementSite:
        """Port at the x-start of a top strip (to the top metallisation).

        ``route`` selects the strip (0, 1, 2); the paper drives the
        innermost one, which is route 1.
        """
        y_top = self.strip_y_positions()[route]
        return LumpedElementSite(
            name=f"driver_route{route}",
            axis="z",
            node=(self.margin, y_top, self.k_top_strips),
            termination=termination,
            flip=False,
        )

    def receiver_port(self, termination: LumpedTermination, route: int = 1) -> LumpedElementSite:
        """Port at the y-end of a bottom strip (to the bottom metallisation)."""
        x_bot = self.strip_x_positions()[route]
        y_end = self.board_cells - self.margin
        return LumpedElementSite(
            name=f"receiver_route{route}",
            axis="z",
            node=(x_bot, y_end, 0),
            termination=termination,
            flip=True,
        )

    def build_solver(
        self,
        driver_termination: LumpedTermination,
        receiver_termination: LumpedTermination,
        other_termination_ohms: float = 50.0,
        dt: float | None = None,
        plane_wave: PlaneWaveSource | None = None,
    ) -> tuple[FDTD3DSolver, LumpedElementSite, LumpedElementSite]:
        """Grid + solver + all six terminations, ready to run.

        The active (innermost) route carries the driver and receiver ports;
        the remaining four strip ends are closed with resistors of
        ``other_termination_ohms`` (50 ohm in the paper).
        """
        grid = self.build_grid()
        solver = FDTD3DSolver(grid, dt=dt)
        if plane_wave is not None:
            solver.set_plane_wave(plane_wave)
        driver_site = solver.add_lumped_element(self.driver_port(driver_termination, route=1))
        receiver_site = solver.add_lumped_element(self.receiver_port(receiver_termination, route=1))
        for route in (0, 2):
            solver.add_lumped_element(
                self.driver_port(ResistorTermination(other_termination_ohms), route=route)
            )
            solver.add_lumped_element(
                self.receiver_port(ResistorTermination(other_termination_ohms), route=route)
            )
        return solver, driver_site, receiver_site
