"""The Mur boundary's face table, its all-PEC skip and its two paths."""

from __future__ import annotations

import numpy as np

from repro.fdtd.boundaries import FACES, MurBoundary
from repro.fdtd.constants import C0
from repro.fdtd.courant import courant_time_step
from repro.fdtd.geometry import add_pec_plate
from repro.fdtd.grid import YeeGrid


def _grid() -> YeeGrid:
    # distinct spacings, so each normal axis has its own coefficient
    return YeeGrid(7, 6, 5, dx=1e-3, dy=1.3e-3, dz=0.8e-3)


def _dt(grid: YeeGrid) -> float:
    return courant_time_step(grid.dx, grid.dy, grid.dz, safety=0.9)


def _random_fields(grid: YeeGrid, rng) -> list[np.ndarray]:
    return [rng.standard_normal(grid.e_shape(axis)) for axis in "xyz"]


def test_faces_name_each_tangential_face_once_in_update_order():
    expected = {
        (component, normal, side)
        for normal in range(3) for side in (0, 1)
        for component in "xyz" if component != "xyz"[normal]
    }
    assert len(FACES) == 12 and set(FACES) == expected
    # x faces before y before z; low face before high; components in xyz order
    assert list(FACES) == sorted(FACES, key=lambda face: (face[1], face[2], face[0]))


def test_fast_path_skips_exactly_the_all_pec_faces():
    grid = _grid()
    add_pec_plate(grid, "z", 0, (0, grid.nx), (0, grid.ny))  # the whole z = 0 face
    fields = _random_fields(grid, np.random.default_rng(1))
    fast = MurBoundary(grid, _dt(grid), *fields, fast=True)
    assert fast.skipped == [("x", 2, 0), ("y", 2, 0)]
    assert len(fast.faces) == 10
    reference = MurBoundary(grid, _dt(grid), *[f.copy() for f in fields], fast=False)
    assert reference.skipped == [] and len(reference.faces) == 12

    # The skipped planes are left to the PEC application: only their rims,
    # which the x and y faces own, change.
    ex, ey, _ = fields
    plates = ex[1:-1, 1:-1, 0] + 1.0, ey[1:-1, 1:-1, 0] + 1.0
    fast.save_previous()
    for field in fields:
        field += 1.0
    fast.apply()
    assert np.array_equal(ex[1:-1, 1:-1, 0], plates[0])
    assert np.array_equal(ey[1:-1, 1:-1, 0], plates[1])


def test_fast_and_reference_cycles_are_bit_equal():
    grid = _grid()
    rng = np.random.default_rng(7)
    start = _random_fields(grid, rng)
    change = _random_fields(grid, rng)
    dt = _dt(grid)
    out = {}
    for fast in (True, False):
        fields = [f.copy() for f in start]
        mur = MurBoundary(grid, dt, *fields, fast=fast)
        assert mur.skipped == []
        mur.save_previous()
        for field, delta in zip(fields, change):
            field += delta  # stands in for the interior E update
        mur.apply()
        out[fast] = fields
    for fast_field, reference_field in zip(out[True], out[False]):
        assert fast_field.tobytes() == reference_field.tobytes()

    # Away from the domain's edges, where no later face overwrites them, the
    # two x faces' Ey planes hold the first-order Mur update of their face.
    coef = (C0 * dt - grid.dx) / (C0 * dt + grid.dx)
    old, new = start[1], start[1] + change[1]
    for edge, inner in ((0, 1), (-1, -2)):
        expected = old[inner] + coef * (new[inner] - old[edge])
        assert np.array_equal(out[True][1][edge, 1:-1, 1:-1], expected[1:-1, 1:-1])
