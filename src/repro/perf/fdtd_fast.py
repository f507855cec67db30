"""Allocation-free Yee update kernels over padded field blocks.

The reference updates in :mod:`repro.fdtd.solver3d` are straightforward
NumPy slice arithmetic; correct, but every step allocates roughly a dozen
field-sized temporaries, divides by the cell sizes again and again, and
walks strided 3-D views.  The fast path differs in three ways:

* the ``1/dx`` (``1/dy``, ``1/dz``) divisions are folded into the update
  coefficients once (``dt / (mu0 dy)`` scalars for the H update, the
  per-edge ``dt / (eps dy)`` arrays for the E update);
* every pass writes through ``out=``-style in-place ufuncs into one shared
  scratch pair, so the time loop allocates nothing;
* the solver keeps each of the six fields in one zeroed, C-contiguous
  ``(nx+1, ny+1, nz+1)`` block (its natural-shape array is the view at the
  block's leading corner), so a neighbour along x, y or z sits at the
  constant flat offset ``(ny+1)(nz+1)``, ``nz+1`` or ``1``, and every pass
  is a 1-D contiguous ufunc over the flattened blocks.  NumPy runs a ufunc
  over a strided 3-D view several times slower than over a flat array of
  the same size.

With ``N`` entries per block and ``off`` the larger offset of a pass, the
H update of each component runs over ``[0, N - off)`` with forward
differences, and the E update over ``[off, N)`` with backward differences
and coefficient arrays that are zero off the interior edges.  Every real
entry gets the operations that the same pass over natural-shape slices
would give it, in the same order, so the padding changes no bit of the
fields.  The rest of the blocks only ever see harmless values:

* a pad or boundary E edge receives ``0 * (finite)``, a ``±0``, so a pad
  entry stays ``+0.0``.  The Mur faces (from the planes saved before the
  E update and the interior edges) or the PEC application rewrite every
  boundary edge each step; where a Mur face reads a boundary edge of a
  neighbouring face, it only writes edges that a later face or the PEC
  application rewrites again;
* a pad H entry accumulates finite differences of E values, which are
  finite, and only ever meets zero coefficients;
* real H entries read only real E entries, and interior E edges read
  only real H entries, exactly as in the natural-shape slices.

The reordering ``c * (a/dy - b/dz)`` → ``(c/dy) * a - (c/dz) * b`` of the
reference update changes results only at the level of floating-point
rounding (≲1 ulp per step); the equivalence suite bounds the accumulated
difference well below 1e-12 relative.  PEC and dielectric-correction
bookkeeping (flat indices into the blocks, precomputed plane-wave
retardation with unique-delay compression) lives in the solver's
``_prepare``, since it depends on the attached sources.
"""

from __future__ import annotations

import numpy as np

from repro.fdtd.constants import MU0

__all__ = ["FastYeeKernels", "compress_delays"]


def compress_delays(delay: np.ndarray, min_gain: int = 2):
    """Unique-value compression of a retardation array.

    A plane wave's retardation over a structured edge set takes only as
    many distinct values as there are grid planes along the propagation
    direction, so the per-step waveform evaluation can run over the unique
    delays and be gathered back.  Returns ``(unique_delays, inverse)`` or
    ``None`` when the compression would not at least halve the evaluation
    count (``min_gain``).
    """
    unique, inverse = np.unique(delay, return_inverse=True)
    if unique.size * min_gain > delay.size:
        return None
    return unique, inverse


class FastYeeKernels:
    """In-place H/E updates as 1-D passes over the six padded field blocks.

    Parameters
    ----------
    grid:
        The Yee grid (provides spacings and the block shape).
    dt:
        Time step.
    ex .. hz:
        The solver's field blocks, each a C-contiguous
        ``(nx+1, ny+1, nz+1)`` array (the kernels keep flat views into
        them, so they must not be reallocated afterwards).
    ce_x, ce_y, ce_z:
        The per-edge ``dt / eps`` arrays of the host solver, in the
        natural E-component shapes.
    """

    def __init__(self, grid, dt, ex, ey, ez, hx, hy, hz, ce_x, ce_y, ce_z):
        blocks = (ex, ey, ez, hx, hy, hz)
        shape = ex.shape
        if any(b.shape != shape or not b.flags.c_contiguous for b in blocks):
            raise ValueError("the field blocks must be C-contiguous and of one shape")
        ex, ey, ez, hx, hy, hz = (block.reshape(-1) for block in blocks)
        n = ex.size
        sx, sy = shape[1] * shape[2], shape[2]
        s1, s2 = np.empty(n), np.empty(n)

        ch = dt / MU0
        ch_dx = ch / grid.dx
        ch_dy = ch / grid.dy
        ch_dz = ch / grid.dz

        def interior(ce, index, spacing):
            # ce / spacing on the interior edges, zero everywhere else
            coeff = np.zeros(shape)
            coeff[index] = ce[index] / spacing
            return coeff.reshape(-1)

        # the interior edges of each E component, in natural and block
        # coordinates alike (the reference update's target slices)
        x_in = (slice(0, grid.nx), slice(1, grid.ny), slice(1, grid.nz))
        y_in = (slice(1, grid.nx), slice(0, grid.ny), slice(1, grid.nz))
        z_in = (slice(1, grid.nx), slice(1, grid.ny), slice(0, grid.nz))

        # One pass per component: target ∓= c1 * d1 - c2 * d2, where d is the
        # difference between a field and its neighbour ``off`` entries away
        # in the flat block (the next one for H, the previous one for E).
        def h_pass(a1, off1, c1, a2, off2, c2, target):
            m = n - max(off1, off2)  # forward differences over [0, m)
            return (a1[off1:off1 + m], a1[:m], c1, a2[off2:off2 + m], a2[:m], c2,
                    target[:m], s1[:m], s2[:m])

        def e_pass(a1, off1, c1, a2, off2, c2, target):
            m = max(off1, off2)  # backward differences over [m, n)
            return (a1[m:], a1[m - off1:n - off1], c1[m:], a2[m:], a2[m - off2:n - off2],
                    c2[m:], target[m:], s1[m:], s2[m:])

        self._h_passes = (
            h_pass(ez, sy, ch_dy, ey, 1, ch_dz, hx),
            h_pass(ex, 1, ch_dz, ez, sx, ch_dx, hy),
            h_pass(ey, sx, ch_dx, ex, sy, ch_dy, hz),
        )
        self._e_passes = (
            e_pass(hz, sy, interior(ce_x, x_in, grid.dy),
                   hy, 1, interior(ce_x, x_in, grid.dz), ex),
            e_pass(hx, 1, interior(ce_y, y_in, grid.dz),
                   hz, sx, interior(ce_y, y_in, grid.dx), ey),
            e_pass(hy, sx, interior(ce_z, z_in, grid.dx),
                   hx, sy, interior(ce_z, z_in, grid.dy), ez),
        )

    @staticmethod
    def _curl_into(update, sign: float) -> None:
        a1, b1, c1, a2, b2, c2, target, s1, s2 = update
        np.subtract(a1, b1, out=s1)
        s1 *= c1
        np.subtract(a2, b2, out=s2)
        s2 *= c2
        s1 -= s2
        if sign < 0:
            target -= s1
        else:
            target += s1

    def update_h(self) -> None:
        """In-place magnetic-field half step (curl E)."""
        for update in self._h_passes:
            self._curl_into(update, -1.0)

    def update_e(self) -> None:
        """In-place electric-field step (curl H) on the interior edges."""
        for update in self._e_passes:
            self._curl_into(update, 1.0)
