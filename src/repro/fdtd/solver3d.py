"""Three-dimensional Yee FDTD solver with lumped macromodel ports.

This is the "conventional solver based on the well-known Finite-Difference
Time-Domain scheme" into which the paper inserts its device macromodels.
The implementation is a standard second-order Yee leapfrog on a uniform
Cartesian grid with:

* inhomogeneous, lossless dielectrics (edge-averaged permittivity),
* zero-thickness PEC objects (strips, planes, wires, vias),
* first-order Mur absorbing boundaries on the six outer faces,
* lumped elements inside mesh cells (linear loads and RBF macromodel
  ports, see :mod:`repro.fdtd.lumped`),
* optional plane-wave illumination in the scattered-field formulation
  (see :mod:`repro.fdtd.plane_wave`).

The field arrays hold the scattered field when a plane-wave source is
attached and the total field otherwise (with no incident field the two are
identical, so the same update code serves both cases).
"""

from __future__ import annotations

import time as _time
from typing import Optional

import numpy as np

from repro import perf
from repro.core.newton import NewtonStats
from repro.fdtd.boundaries import MurBoundary
from repro.fdtd.constants import EPS0, MU0
from repro.fdtd.courant import courant_time_step
from repro.fdtd.grid import YeeGrid
from repro.fdtd.lumped import LumpedElementSite
from repro.fdtd.plane_wave import PlaneWaveSource
from repro.fdtd.probes import EdgeVoltageProbe, FieldProbe
# The module, not its names: importing repro.perf.fdtd_fast first imports
# this package, and so this module, before fdtd_fast has defined them.
from repro.perf import fdtd_fast

__all__ = ["FDTD3DSolver"]


class FDTD3DSolver:
    """Time-stepping engine for a :class:`~repro.fdtd.grid.YeeGrid`.

    Parameters
    ----------
    grid:
        The fully described grid (materials and PEC geometry set).
    dt:
        Time step; defaults to 0.99 times the Courant limit.  Every lumped
        site's termination must be built for it.
    fast:
        Keep each field in one zeroed ``(nx+1, ny+1, nz+1)`` block and step
        it with the 1-D update passes of :mod:`repro.perf.fdtd_fast`, plus
        flat-index PEC/dielectric application; ``ex`` .. ``hz`` are then the
        natural-shape views at the blocks' leading corners.  ``None``
        (default) follows :func:`repro.perf.fastpath_default`; ``False``
        runs the naive reference updates on natural-shape arrays.
    """

    def __init__(
        self,
        grid: YeeGrid,
        dt: float | None = None,
        fast: bool | None = None,
    ):
        self.grid = grid
        self.dt = dt if dt is not None else courant_time_step(
            grid.dx, grid.dy, grid.dz, safety=0.99
        )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        limit = courant_time_step(grid.dx, grid.dy, grid.dz, safety=1.0)
        if self.dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {self.dt:.3e} exceeds the Courant limit {limit:.3e}"
            )
        self.newton_stats = NewtonStats()
        self.fast = perf.resolve_fast(fast)

        self.sites: list[LumpedElementSite] = []
        self.voltage_probes: list[EdgeVoltageProbe] = []
        self.field_probes: list[FieldProbe] = []
        self.plane_wave: Optional[PlaneWaveSource] = None
        self._prepared = False

    # -- configuration -------------------------------------------------------
    def add_lumped_element(self, site: LumpedElementSite) -> LumpedElementSite:
        """Attach a lumped element (returns it for chaining)."""
        self.sites.append(site)
        self._prepared = False
        return site

    def add_voltage_probe(self, probe: EdgeVoltageProbe) -> EdgeVoltageProbe:
        """Attach an edge-voltage probe."""
        self.voltage_probes.append(probe)
        self._prepared = False
        return probe

    def add_field_probe(self, probe: FieldProbe) -> FieldProbe:
        """Attach a single-component field probe."""
        self.field_probes.append(probe)
        self._prepared = False
        return probe

    def set_plane_wave(self, source: PlaneWaveSource) -> None:
        """Attach a plane-wave source (scattered-field formulation)."""
        self.plane_wave = source
        self._prepared = False

    # -- setup ----------------------------------------------------------------
    def _prepare(self) -> None:
        grid = self.grid
        shapes = {f"e{a}": grid.e_shape(a) for a in "xyz"}
        shapes.update({f"h{a}": grid.h_shape(a) for a in "xyz"})
        if self.fast:
            # One block per field, padded to a common shape so that the
            # update kernels run as flat 1-D passes; the rest of the solver
            # (Mur, sites, probes, the energy) works on the natural-shape
            # views at the blocks' corners.  The pad entries and the
            # boundary edges only ever take harmless values from those
            # passes (see :mod:`repro.perf.fdtd_fast`).
            block_shape = (grid.nx + 1, grid.ny + 1, grid.nz + 1)
            blocks = {name: np.zeros(block_shape) for name in shapes}
            for name, (n0, n1, n2) in shapes.items():
                setattr(self, name, blocks[name][:n0, :n1, :n2])
        else:
            for name, shape in shapes.items():
                setattr(self, name, np.zeros(shape))

        # E-update coefficients dt / eps on the interior edges.
        self._eps_x = grid.edge_permittivity("x")
        self._eps_y = grid.edge_permittivity("y")
        self._eps_z = grid.edge_permittivity("z")
        self._ce_x = self.dt / self._eps_x
        self._ce_y = self.dt / self._eps_y
        self._ce_z = self.dt / self._eps_z
        self._ch = self.dt / MU0

        self.mur = MurBoundary(grid, self.dt, self.ex, self.ey, self.ez, fast=self.fast)

        if self.plane_wave is not None:
            self.plane_wave.bind(grid)
        # PEC edge coordinate caches (needed to impose E_s = -E_i).
        self._pec_cache = {}
        for axis in ("x", "y", "z"):
            mask = grid.pec_mask(axis)
            if np.any(mask):
                coords = grid.edge_coordinates(axis, mask) if self.plane_wave else None
                self._pec_cache[axis] = (mask, coords)
        # Dielectric polarisation-current correction (scattered-field form).
        self._diel_cache = {}
        if self.plane_wave is not None:
            for axis, eps_edge in (("x", self._eps_x), ("y", self._eps_y), ("z", self._eps_z)):
                mask = eps_edge > EPS0 * (1.0 + 1e-9)
                if np.any(mask):
                    coords = grid.edge_coordinates(axis, mask)
                    factor = self.dt * (1.0 - EPS0 / eps_edge[mask])
                    self._diel_cache[axis] = (mask, coords, factor)

        if self.fast:
            self._pec_suppressed = {}
            if self.plane_wave is None:
                # Without an incident field, deep-interior PEC edges (two or
                # more cells from every boundary) hold exactly 0 V/m at every
                # observable moment: nothing reads them between the E update
                # and the PEC application (the Mur faces only read the two
                # outermost shells), so their curl update can be suppressed
                # by zeroing the coefficient and their per-step re-zeroing
                # dropped entirely.
                for axis, ce in (("x", self._ce_x), ("y", self._ce_y), ("z", self._ce_z)):
                    mask = grid.pec_mask(axis)
                    deep = np.zeros_like(mask)
                    deep[2:-2, 2:-2, 2:-2] = True
                    suppress = mask & deep
                    if suppress.any():
                        ce[suppress] = 0.0
                        self._pec_suppressed[axis] = suppress

            self._kernels = fdtd_fast.FastYeeKernels(
                grid, self.dt, *blocks.values(), self._ce_x, self._ce_y, self._ce_z,
            )
            # Flat-index variants of the mask caches with the plane-wave
            # retardation precomputed (and compressed to its unique values —
            # a plane wave takes one delay per grid plane along its
            # propagation direction), so the per-step work reduces to one
            # small waveform evaluation, a gather and a flat assignment.
            # The indices address the padded blocks, written through their
            # flat views: ``self.ex`` is not contiguous, so
            # ``self.ex.reshape(-1)`` would be a copy and a write into it
            # would be lost.  ``np.nonzero`` lists a mask's edges in the
            # same (C) order as ``edge_coordinates``, so the delays line up.
            e_flat = {axis: blocks[f"e{axis}"].reshape(-1) for axis in "xyz"}

            def block_index(mask):
                return np.ravel_multi_index(np.nonzero(mask), block_shape)

            self._pec_fast = {}
            for axis, (mask, coords) in self._pec_cache.items():
                delay = None
                comp = None
                if self.plane_wave is not None and self.plane_wave.component(axis) != 0.0:
                    delay = self.plane_wave.delay(*coords)
                    comp = fdtd_fast.compress_delays(delay)
                if axis in self._pec_suppressed:
                    mask = mask & ~self._pec_suppressed[axis]
                    if not mask.any():
                        continue
                self._pec_fast[axis] = (e_flat[axis], block_index(mask), delay, comp)
            self._diel_fast = {}
            for axis, (mask, coords, factor) in self._diel_cache.items():
                if self.plane_wave.component(axis) == 0.0:
                    continue  # no incident component: the correction is zero
                delay = self.plane_wave.delay(*coords)
                self._diel_fast[axis] = (
                    e_flat[axis], block_index(mask), delay, factor,
                    fdtd_fast.compress_delays(delay),
                )

        for site in self.sites:
            site.bind(self.grid, self.dt, plane_wave=self.plane_wave, stats=self.newton_stats)
        # Batched per-step incident evaluation over all sites (fast path):
        # one waveform call instead of three scalar calls per site.
        self._site_incident = None
        if self.fast and self.plane_wave is not None and self.sites:
            delays = np.array([site._pw_delay for site in self.sites])
            scale = self.plane_wave.amplitude * np.array(
                [self.plane_wave.component(site.axis) for site in self.sites]
            )
            self._site_incident = (delays, scale)

        for probe in self.voltage_probes + self.field_probes:
            probe.bind(self.grid, self.plane_wave)

        self._prepared = True

    # -- updates -----------------------------------------------------------------
    def _update_h(self) -> None:
        grid, ch = self.grid, self._ch
        ex, ey, ez = self.ex, self.ey, self.ez
        self.hx -= ch * (
            (ez[:, 1:, :] - ez[:, :-1, :]) / grid.dy - (ey[:, :, 1:] - ey[:, :, :-1]) / grid.dz
        )
        self.hy -= ch * (
            (ex[:, :, 1:] - ex[:, :, :-1]) / grid.dz - (ez[1:, :, :] - ez[:-1, :, :]) / grid.dx
        )
        self.hz -= ch * (
            (ey[1:, :, :] - ey[:-1, :, :]) / grid.dx - (ex[:, 1:, :] - ex[:, :-1, :]) / grid.dy
        )

    def _update_e(self) -> None:
        grid = self.grid
        hx, hy, hz = self.hx, self.hy, self.hz
        self.ex[:, 1:-1, 1:-1] += self._ce_x[:, 1:-1, 1:-1] * (
            (hz[:, 1:, 1:-1] - hz[:, :-1, 1:-1]) / grid.dy
            - (hy[:, 1:-1, 1:] - hy[:, 1:-1, :-1]) / grid.dz
        )
        self.ey[1:-1, :, 1:-1] += self._ce_y[1:-1, :, 1:-1] * (
            (hx[1:-1, :, 1:] - hx[1:-1, :, :-1]) / grid.dz
            - (hz[1:, :, 1:-1] - hz[:-1, :, 1:-1]) / grid.dx
        )
        self.ez[1:-1, 1:-1, :] += self._ce_z[1:-1, 1:-1, :] * (
            (hy[1:, 1:-1, :] - hy[:-1, 1:-1, :]) / grid.dx
            - (hx[1:-1, 1:, :] - hx[1:-1, :-1, :]) / grid.dy
        )

    def _apply_dielectric_correction(self, t_mid: float) -> None:
        for axis, (mask, coords, factor) in self._diel_cache.items():
            field = {"x": self.ex, "y": self.ey, "z": self.ez}[axis]
            de_dt = self.plane_wave.de_field_dt(axis, *coords, t_mid)
            field[mask] -= factor * de_dt

    def _apply_pec(self, t_new: float) -> None:
        for axis, (mask, coords) in self._pec_cache.items():
            field = {"x": self.ex, "y": self.ey, "z": self.ez}[axis]
            if self.plane_wave is None:
                field[mask] = 0.0
            else:
                field[mask] = -self.plane_wave.e_field(axis, *coords, t_new)

    # -- fast-path variants (precomputed retardation, flat indices) ----------
    def _apply_dielectric_correction_fast(self, t_mid: float) -> None:
        for axis, (field, flat, delay, factor, comp) in self._diel_fast.items():
            if comp is not None:
                unique, inverse = comp
                de_dt = self.plane_wave.de_field_dt_delayed(axis, unique, t_mid)[inverse]
            else:
                de_dt = self.plane_wave.de_field_dt_delayed(axis, delay, t_mid)
            field[flat] -= factor * de_dt

    def _apply_pec_fast(self, t_new: float) -> None:
        for axis, (field, flat, delay, comp) in self._pec_fast.items():
            if delay is None:
                field[flat] = 0.0
            elif comp is not None:
                unique, inverse = comp
                field[flat] = -self.plane_wave.e_field_delayed(axis, unique, t_new)[inverse]
            else:
                field[flat] = -self.plane_wave.e_field_delayed(axis, delay, t_new)

    # -- run -------------------------------------------------------------------
    def run(
        self,
        duration: float | None = None,
        n_steps: int | None = None,
        progress_every: int | None = None,
    ) -> np.ndarray:
        """Advance the simulation and return the time axis of the recorded samples.

        Exactly one of ``duration`` or ``n_steps`` must be given.  Lumped
        elements and probes record one sample per step, at times
        ``dt, 2 dt, ..., n dt`` (the returned array).
        """
        if (duration is None) == (n_steps is None):
            raise ValueError("specify exactly one of duration or n_steps")
        if n_steps is None:
            n_steps = int(round(duration / self.dt))
        if n_steps < 1:
            raise ValueError("the run must cover at least one step")
        if not self._prepared:
            self._prepare()

        e_fields = {"x": self.ex, "y": self.ey, "z": self.ez}
        fast = self.fast
        start = _time.perf_counter()
        for step in range(1, n_steps + 1):
            t_new = step * self.dt
            t_mid = t_new - 0.5 * self.dt
            if fast:
                self._kernels.update_h()
            else:
                self._update_h()
            self.mur.save_previous()
            if fast:
                self._kernels.update_e()
                if self._diel_fast:
                    self._apply_dielectric_correction_fast(t_mid)
            else:
                self._update_e()
                if self._diel_cache:
                    self._apply_dielectric_correction(t_mid)
            # Absorbing boundaries first, PEC last: conductors lying on a
            # domain face (e.g. the PCB's outer metallisation) must win over
            # the Mur update of that face.
            self.mur.apply()
            if fast:
                self._apply_pec_fast(t_new)
            else:
                self._apply_pec(t_new)
            if self._site_incident is not None:
                delays, scale = self._site_incident
                waveform = self.plane_wave.waveform
                h = 1e-13
                e_inc = scale * np.asarray(waveform(t_new - delays), dtype=float)
                g_plus = np.asarray(waveform(t_mid + h - delays), dtype=float)
                g_minus = np.asarray(waveform(t_mid - h - delays), dtype=float)
                de_inc = scale * (g_plus - g_minus) / (2.0 * h)
            else:
                e_inc = de_inc = None
            for k, site in enumerate(self.sites):
                site.step(
                    e_fields[site.axis], self.hx, self.hy, self.hz, t_new,
                    e_inc=None if e_inc is None else e_inc[k],
                    de_inc=None if de_inc is None else de_inc[k],
                )
            for probe in self.voltage_probes:
                probe.record(e_fields[probe.axis], t_new)
            for probe in self.field_probes:
                probe.record(e_fields[probe.axis], t_new)
            if progress_every and step % progress_every == 0:
                elapsed = _time.perf_counter() - start
                print(f"step {step}/{n_steps}  t = {t_new*1e9:.3f} ns  ({elapsed:.1f} s)")
        self.wall_time = _time.perf_counter() - start
        return self.dt * np.arange(1, n_steps + 1)

    # -- diagnostics -----------------------------------------------------------
    def total_field_energy(self) -> float:
        """Electromagnetic field energy currently stored in the grid (J).

        Used by stability tests: with absorbing boundaries and passive
        loads the energy must remain bounded.
        """
        grid = self.grid
        cell = grid.dx * grid.dy * grid.dz
        we = 0.5 * cell * (
            np.sum(self._eps_x * self.ex**2)
            + np.sum(self._eps_y * self.ey**2)
            + np.sum(self._eps_z * self.ez**2)
        )
        wh = 0.5 * MU0 * cell * (
            np.sum(self.hx**2) + np.sum(self.hy**2) + np.sum(self.hz**2)
        )
        return float(we + wh)
