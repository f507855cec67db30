"""Bit-identity gate for the 3-D FDTD fast path and its padded field layout.

The fast path keeps each Yee field in one zero-padded ``(nx+1, ny+1, nz+1)``
block and runs every curl pass as a 1-D ufunc over it
(:mod:`repro.perf.fdtd_fast`).  These tests pin the waveforms and the final
fields of a small run to SHA-256 digests of the natural-shape update that the
layout replaced, on a geometry that takes every flat-index path of
``FDTD3DSolver._prepare``:

* a dielectric box (the scattered-field polarisation correction, with
  unique-delay compression),
* a PEC plate deep inside the grid (curl updates suppressed through zero
  coefficients when no plane wave is attached),
* a ground plane covering the whole ``z = 0`` face (Mur skips that face and
  the PEC application rewrites it),
* a via and a single PEC edge along the illuminated axis (incident-field
  PEC values, too few edges per distinct delay to compress).

The terminations are linear and the drive signals piecewise linear, so no
BLAS call or transcendental function enters the bits.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.ports import ResistiveSourceTermination, ResistorTermination
from repro.fdtd.courant import courant_time_step
from repro.fdtd.geometry import add_pec_plate, add_pec_wire, add_via
from repro.fdtd.grid import YeeGrid
from repro.fdtd.lumped import LumpedElementSite
from repro.fdtd.plane_wave import PlaneWaveSource
from repro.fdtd.solver3d import FDTD3DSolver

#: SHA-256 of the site voltages and the six fields after :data:`STEPS` steps
PINNED = {
    False: "e221d3519038820517ae59d1133f3b49003c2bdc599d1de96ccc073278b905a6",
    True: "f327cd23eb868fe68e2c2c1d308a9d1085ae942d02afac8a86fa4a2dfba0b9bb",
}

STEPS = 60


def _source(t: float) -> float:
    """A 40 ps triangle pulse centred at 40 ps (arithmetic only)."""
    return max(0.0, 1.0 - abs(t - 40e-12) / 20e-12)


def _incident(t):
    """A 30 ps triangle pulse centred at 30 ps, vectorised."""
    return np.clip(1.0 - np.abs(t - 30e-12) / 15e-12, 0.0, 1.0)


def _solver(with_wave: bool) -> FDTD3DSolver:
    grid = YeeGrid(12, 10, 8, dx=1e-3)
    grid.set_box_epsr((2, 10), (2, 8), (0, 3), 3.5)
    add_pec_plate(grid, "z", 0, (0, grid.nx), (0, grid.ny))  # the whole z = 0 face
    add_pec_plate(grid, "z", 3, (3, 9), (3, 7))  # deep-interior edges only
    add_via(grid, 4, 4, (0, 2))
    add_pec_wire(grid, "z", (9, 2, 1), 1)
    solver = FDTD3DSolver(
        grid, dt=courant_time_step(grid.dx, grid.dy, grid.dz, safety=0.9), fast=True
    )
    if with_wave:
        # Propagating along +x, polarised along -z: only Ez is illuminated.
        solver.set_plane_wave(PlaneWaveSource(90.0, 180.0, _incident, amplitude=100.0))
    solver.add_lumped_element(
        LumpedElementSite("src", "z", (6, 5, 1), ResistiveSourceTermination(50.0, _source))
    )
    solver.add_lumped_element(
        LumpedElementSite("load", "z", (8, 5, 1), ResistorTermination(100.0))
    )
    return solver


def _digest(solver: FDTD3DSolver) -> str:
    digest = hashlib.sha256()
    for site in solver.sites:
        digest.update(site.voltages.tobytes())
    for name in ("ex", "ey", "ez", "hx", "hy", "hz"):
        digest.update(np.ascontiguousarray(getattr(solver, name)).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("with_wave", [False, True])
def test_fast_path_bits_are_pinned(with_wave):
    solver = _solver(with_wave)
    solver.run(n_steps=STEPS)
    assert np.abs(solver.sites[1].voltages).max() > 0.0
    assert _digest(solver) == PINNED[with_wave]


def test_every_kernel_operand_is_flat_and_contiguous():
    solver = _solver(False)
    solver.run(n_steps=1)
    kernels = solver._kernels
    passes = kernels._h_passes + kernels._e_passes
    assert len(passes) == 6
    for update in passes:
        arrays = [op for op in update if isinstance(op, np.ndarray)]
        assert len(arrays) >= 7  # four field operands, the target, two scratch
        for op in arrays:
            assert op.ndim == 1 and op.flags.c_contiguous
        scalars = [op for op in update if not isinstance(op, np.ndarray)]
        assert all(isinstance(op, float) for op in scalars)  # H coefficients

