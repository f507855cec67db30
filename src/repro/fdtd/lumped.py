"""Lumped elements inside the 3-D FDTD mesh (paper Fig. 1 and Eq. 8).

A lumped element occupies a single electric-field edge of the Yee lattice.
Its voltage is the line integral of the *total* electric field along the
edge (Eq. 7), its current flows along the edge through the cell
cross-section.  At every time step the modified Maxwell-Ampère equation at
that edge couples the new voltage to the element current; the scalar solve
is delegated to :class:`~repro.core.lumped_rbf.HybridCellUpdate`, which
handles both linear loads and the Newton-Raphson iteration for RBF
macromodel ports.

Elements spanning a gap wider than one cell are realised, as in standard
FDTD practice, by one lumped edge plus PEC wire edges for the remaining
cells (see :func:`repro.fdtd.geometry.add_pec_wire`).

The sign convention follows the field definition: the element voltage is
positive when the total E field points along the positive edge axis, and
the current is positive when it flows along the positive axis.  With the
device's signal terminal on the low-index node this matches the macromodel
convention (current into the device, voltage of the signal terminal with
respect to the reference conductor); for the opposite orientation set
``flip=True``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.lumped_rbf import HybridCellUpdate
from repro.core.newton import NewtonOptions, NewtonStats
from repro.core.ports import LumpedTermination
from repro.fdtd.constants import EPS0
from repro.fdtd.grid import YeeGrid
from repro.fdtd.plane_wave import PlaneWaveSource

__all__ = ["FlippedTermination", "LumpedElementSite"]


class FlippedTermination(LumpedTermination):
    """Adapter that reverses the port orientation of a termination."""

    def __init__(self, inner: LumpedTermination):
        self.inner = inner
        self.nonlinear = inner.nonlinear

    def current(self, v: float, t: float) -> float:
        return -self.inner.current(-v, t)

    def dcurrent_dv(self, v: float, t: float) -> float:
        return self.inner.dcurrent_dv(-v, t)

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        i, g = self.inner.current_and_dcurrent(-v, t)
        return -i, g

    def commit(self, v: float, t: float) -> float:
        i = -self.inner.commit(-v, t)
        self.last_current = i
        self.last_voltage = v
        return i

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        super().reset(v0=v0, i0=i0, t0=t0)
        self.inner.reset(v0=-v0, i0=-i0, t0=t0)


class LumpedElementSite:
    """One lumped element attached to an E edge of the grid.

    Parameters
    ----------
    name:
        Probe/report name of the element.
    axis:
        Orientation of the edge (``'x'``, ``'y'`` or ``'z'``).
    node:
        ``(i, j, k)`` index of the edge in the corresponding E array; the
        edge must not lie on the outer boundary of the domain.
    termination:
        Any :class:`~repro.core.ports.LumpedTermination` (resistor, RC
        load, resistive source or RBF macromodel port).
    flip:
        Reverse the port orientation (see module docstring).
    """

    def __init__(
        self,
        name: str,
        axis: str,
        node: tuple[int, int, int],
        termination: LumpedTermination,
        flip: bool = False,
    ):
        if axis not in ("x", "y", "z"):
            raise ValueError("axis must be 'x', 'y' or 'z'")
        self.name = name
        self.axis = axis
        self.node = tuple(int(v) for v in node)
        self.termination: LumpedTermination = (
            FlippedTermination(termination) if flip else termination
        )
        self.flip = bool(flip)
        self.voltage_history: list[float] = []
        self.current_history: list[float] = []
        self._bound = False

    # -- setup --------------------------------------------------------------
    def bind(
        self,
        grid: YeeGrid,
        dt: float,
        plane_wave: Optional[PlaneWaveSource] = None,
        newton_options: Optional[NewtonOptions] = None,
        stats: Optional[NewtonStats] = None,
        fast: bool = True,
    ) -> None:
        """Attach the element to a grid/solver (called by the solver)."""
        i, j, k = self.node
        shape = grid.e_shape(self.axis)
        if not (0 <= i < shape[0] and 0 <= j < shape[1] and 0 <= k < shape[2]):
            raise ValueError(f"element node {self.node} outside E_{self.axis} array {shape}")
        self._check_interior(grid)
        self.grid = grid
        self.dt = float(dt)
        self.plane_wave = plane_wave
        self.length = grid.edge_length(self.axis)
        self.area = grid.cell_cross_section(self.axis)
        self.eps_edge = float(grid.edge_permittivity(self.axis)[i, j, k])
        x, y, z = grid.edge_coordinates(self.axis)
        self._xyz = (float(x[i, j, k]), float(y[i, j, k]), float(z[i, j, k]))
        # Precomputed incident-field retardation at the element edge (fast
        # path); the per-step incident evaluations then reduce to one
        # waveform call.  With fast=False the seed's per-step evaluation is
        # kept as the reference oracle.
        self._fast = bool(fast)
        if plane_wave is not None:
            self._pw_delay = float(plane_wave.delay(*self._xyz))
            self._pw_comp = plane_wave.component(self.axis)
        else:
            self._pw_delay = 0.0
            self._pw_comp = 0.0
        self.update = HybridCellUpdate(
            self.termination, newton_options=newton_options, stats=stats
        )
        self._a = self.eps_edge / self.dt
        self._c = -self.length / (2.0 * self.area)
        self._v_prev = self.termination.last_voltage
        self.voltage_history = []
        self.current_history = []
        self._bound = True

    def _check_interior(self, grid: YeeGrid) -> None:
        i, j, k = self.node
        if self.axis == "x":
            ok = 1 <= j <= grid.ny - 1 and 1 <= k <= grid.nz - 1
        elif self.axis == "y":
            ok = 1 <= i <= grid.nx - 1 and 1 <= k <= grid.nz - 1
        else:
            ok = 1 <= i <= grid.nx - 1 and 1 <= j <= grid.ny - 1
        if not ok:
            raise ValueError(
                f"lumped element '{self.name}' must sit on an interior edge "
                f"(node {self.node}, axis {self.axis})"
            )

    # -- per-step update ------------------------------------------------------
    def _curl_h(self, hx: np.ndarray, hy: np.ndarray, hz: np.ndarray) -> float:
        grid = self.grid
        i, j, k = self.node
        # .item() reads keep the arithmetic on python floats (faster than
        # numpy scalars); the values are identical.
        if self.axis == "x":
            return (hz.item(i, j, k) - hz.item(i, j - 1, k)) / grid.dy - (
                hy.item(i, j, k) - hy.item(i, j, k - 1)
            ) / grid.dz
        if self.axis == "y":
            return (hx.item(i, j, k) - hx.item(i, j, k - 1)) / grid.dz - (
                hz.item(i, j, k) - hz.item(i - 1, j, k)
            ) / grid.dx
        return (hy.item(i, j, k) - hy.item(i - 1, j, k)) / grid.dx - (
            hx.item(i, j, k) - hx.item(i, j - 1, k)
        ) / grid.dy

    def _incident_field(self, t: float) -> float:
        if self.plane_wave is None:
            return 0.0
        if self._fast:
            if self._pw_comp == 0.0:
                return 0.0
            return float(self.plane_wave.e_field_delayed(self.axis, self._pw_delay, t))
        x, y, z = self._xyz
        return float(
            self.plane_wave.e_field(self.axis, np.array(x), np.array(y), np.array(z), t)
        )

    def _incident_derivative(self, t_mid: float) -> float:
        if self.plane_wave is None:
            return 0.0
        if self._fast:
            if self._pw_comp == 0.0:
                return 0.0
            return float(self.plane_wave.de_field_dt_delayed(self.axis, self._pw_delay, t_mid))
        x, y, z = self._xyz
        return float(
            self.plane_wave.de_field_dt(
                self.axis, np.array(x), np.array(y), np.array(z), t_mid
            )
        )

    def step(
        self,
        e_component: np.ndarray,
        hx: np.ndarray,
        hy: np.ndarray,
        hz: np.ndarray,
        t_new: float,
        e_inc: float | None = None,
        de_inc: float | None = None,
    ) -> None:
        """Advance the element by one time step and write back the scattered field.

        Must be called after the regular E update of the step (the element
        edge value is overwritten) with the H fields at the half step and
        the new time ``t_new``.  The fast solver path may pass the incident
        field ``e_inc`` (at ``t_new``) and its derivative ``de_inc`` (at the
        half step) precomputed in one batch over all sites; when omitted
        they are evaluated here.
        """
        if not self._bound:
            raise RuntimeError("bind() must be called before stepping the element")
        # The (a, b, c) of this step's cell update (Eq. 8).
        curl = self._curl_h(hx, hy, hz)
        if de_inc is None:
            de_inc = self._incident_derivative(t_new - 0.5 * self.dt)
        b = self._a * self._v_prev + self.length * curl + EPS0 * self.length * de_inc
        v_new, i_new = self.update.solve(self._a, b, self._c, self._v_prev, t_new)

        # E_s = E_total - E_inc at the element edge.
        if e_inc is None:
            e_inc = self._incident_field(t_new)
        i, j, k = self.node
        e_component[i, j, k] = v_new / self.length - e_inc

        self._v_prev = v_new
        self.voltage_history.append(v_new)
        self.current_history.append(i_new)

    # -- results ---------------------------------------------------------------
    @property
    def voltages(self) -> np.ndarray:
        """Recorded port voltages (one sample per time step, starting at step 1)."""
        return np.asarray(self.voltage_history, dtype=float)

    @property
    def currents(self) -> np.ndarray:
        """Recorded port currents."""
        return np.asarray(self.current_history, dtype=float)
