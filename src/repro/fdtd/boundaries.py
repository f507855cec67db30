"""First-order Mur absorbing boundary conditions.

The paper's validation domain is "terminated by absorbing boundary
conditions".  This module implements the first-order Mur condition on all
six faces of the domain: for every tangential electric-field component on a
boundary face,

    E_0^{n+1} = E_1^n + (c dt - d) / (c dt + d) * (E_1^{n+1} - E_0^n),

where ``E_1`` is the same component one cell inside the domain and ``d``
the spacing along the face normal.  First order absorption is adequate for
the paper's structures, where the strips run parallel to the boundaries and
the dominant incidence is close to normal; the residual reflections show up
only as the small late-time ripple also visible in the paper's curves.

The twelve (tangential component, face) pairs are one table, :data:`FACES`.
:class:`MurBoundary` takes the solver's ``ex, ey, ez`` and builds each
face's views once — its edge plane, the plane one cell inside and the
two-plane slab holding both — so :meth:`MurBoundary.save_previous` and
:meth:`MurBoundary.apply` are one loop over the faces each.

On the fast path (the default, see :mod:`repro.perf`) the saved slabs and
one scratch plane per face shape are preallocated, so the time loop
allocates nothing, and a face whose every edge the grid marks PEC is
skipped: the PEC application rewrites it right after :meth:`apply`, so its
update and the saving of its planes are dead work.  The arithmetic is
unchanged from the naive implementation, so the results are bit-identical.
With ``fast=False`` the original allocate-per-step update runs on all
twelve faces instead and serves as the reference oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import perf
from repro.fdtd.constants import C0
from repro.fdtd.grid import YeeGrid

__all__ = ["FACES", "MurBoundary"]

#: The twelve faces as (tangential E component, normal axis, side), side 0
#: being the low face (index 0) and 1 the high one (index -1), in update
#: order: x faces, then y, then z; on each axis the low face's two
#: components, then the high face's.  Faces meet along the domain's edges,
#: where a later face reads and overwrites an earlier one's plane, so the
#: order is part of the result.
FACES = (
    ("y", 0, 0), ("z", 0, 0), ("y", 0, 1), ("z", 0, 1),
    ("x", 1, 0), ("z", 1, 0), ("x", 1, 1), ("z", 1, 1),
    ("x", 2, 0), ("y", 2, 0), ("x", 2, 1), ("y", 2, 1),
)


def _slab(a: np.ndarray, normal: int, side: int) -> np.ndarray:
    """View of a face's edge plane and the plane one cell inside, in that order."""
    planes = np.moveaxis(a, normal, 0)
    return planes[:2] if side == 0 else planes[:-3:-1]


class _Face(NamedTuple):
    slab: np.ndarray        # the field's (edge, inner) planes
    edge: np.ndarray
    inner: np.ndarray
    coef: float
    saved: np.ndarray       # the slab at the previous level (fast path)
    prev_edge: np.ndarray
    prev_inner: np.ndarray
    buf: np.ndarray         # scratch shared by the faces of its shape


class MurBoundary:
    """First-order Mur ABC on the six faces of a :class:`YeeGrid`.

    ``ex, ey, ez`` are the solver's electric fields: the boundary keeps
    views into them, so the solver must update them in place.
    ``skipped`` lists the :data:`FACES` entries left to the PEC
    application (none with ``fast=False``).
    """

    def __init__(self, grid: YeeGrid, dt: float, ex: np.ndarray, ey: np.ndarray,
                 ez: np.ndarray, c: float = C0, fast: bool | None = None):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = float(dt)
        self.fast = perf.resolve_fast(fast)
        fields = {"x": ex, "y": ey, "z": ez}
        scratch: dict[tuple[int, ...], np.ndarray] = {}
        self.faces: list[_Face] = []
        self.skipped: list[tuple[str, int, int]] = []
        for face in FACES:
            component, normal, side = face
            if self.fast and _slab(grid.pec_mask(component), normal, side)[0].all():
                self.skipped.append(face)
                continue
            d = grid.spacings[normal]
            slab = _slab(fields[component], normal, side)
            saved = np.zeros(slab.shape)
            buf = scratch.setdefault(slab.shape[1:], np.zeros(slab.shape[1:]))
            self.faces.append(_Face(
                slab, slab[0], slab[1], (c * dt - d) / (c * dt + d),
                saved, saved[0], saved[1], buf,
            ))
        self._previous: list[np.ndarray] = []
        self._have_saved = False

    def save_previous(self) -> None:
        """Store the boundary-adjacent planes of the *previous* time level.

        Must be called immediately before the electric-field update.
        """
        if self.fast:
            for face in self.faces:
                np.copyto(face.saved, face.slab)
        else:
            self._previous = [face.slab.copy() for face in self.faces]
        self._have_saved = True

    def apply(self) -> None:
        """Update the boundary tangential fields after the interior E update."""
        if not self._have_saved:
            raise RuntimeError("save_previous must be called before apply")
        if not self.fast:
            for face, prev in zip(self.faces, self._previous):
                face.edge[...] = prev[1] + face.coef * (face.inner - prev[0])
            return
        # edge = prev_inner + coef * (inner - prev_edge), without temporaries
        for _, edge, inner, coef, _, prev_edge, prev_inner, buf in self.faces:
            np.subtract(inner, prev_edge, out=buf)
            buf *= coef
            buf += prev_inner
            np.copyto(edge, buf)
