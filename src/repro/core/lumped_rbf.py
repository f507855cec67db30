"""The coupled FDTD-cell / macromodel update (paper Eq. 8 + Eq. 13).

The modified Maxwell-Ampère update at a lumped-element cell can be written,
after the host solver has gathered all field-side contributions, as a
scalar relation between the new port voltage ``v^{n+1}`` and the element
currents at the old and new steps,

    a * v^{n+1} - b - c * (i^{n+1} + i^n) = 0,

where for the 3-D Yee cell of the paper ``a = alpha0``, ``c = alpha3`` and
``b = alpha1 v^n - alpha2 [curl Hs]^{n+1/2} - alpha2 eps0 dEi,z/dt`` collects
the known quantities (Eq. 8-12).  The 1-D FDTD termination update and the
circuit companion model have exactly the same shape with different
coefficients, so this single class implements the hybrid update for every
backend: when the termination is linear the voltage is obtained in closed
form, otherwise Newton-Raphson with the termination's analytic Jacobian is
used (three iterations typically suffice, as reported in the paper).
"""

from __future__ import annotations

import dataclasses

from repro.core.newton import (
    NewtonOptions,
    NewtonStats,
    newton_solve_scalar_fused,
)
from repro.core.ports import LumpedTermination

__all__ = ["HybridCellUpdate", "CellCoefficients"]


@dataclasses.dataclass(frozen=True)
class CellCoefficients:
    """The FDTD coefficients alpha0..alpha3 of Eqs. (9)-(12).

    Parameters
    ----------
    dz, dx, dy:
        Cell dimensions along the element direction (``dz``) and across the
        cell section (``dx``, ``dy``).
    dt:
        FDTD time step.
    eps:
        Local permittivity (F/m).
    sigma:
        Local conductivity (S/m).
    """

    dz: float
    dx: float
    dy: float
    dt: float
    eps: float
    sigma: float = 0.0

    @property
    def alpha0(self) -> float:
        """``1 + sigma dt / (2 eps)`` (Eq. 9)."""
        return 1.0 + self.sigma * self.dt / (2.0 * self.eps)

    @property
    def alpha1(self) -> float:
        """``1 - sigma dt / (2 eps)`` (Eq. 10)."""
        return 1.0 - self.sigma * self.dt / (2.0 * self.eps)

    @property
    def alpha2(self) -> float:
        """``dz dt / eps`` (Eq. 11)."""
        return self.dz * self.dt / self.eps

    @property
    def alpha3(self) -> float:
        """``dz dt / (2 eps dx dy)`` (Eq. 12)."""
        return self.dz * self.dt / (2.0 * self.eps * self.dx * self.dy)


class HybridCellUpdate:
    """Solve one lumped-element cell update per time step.

    Parameters
    ----------
    termination:
        The lumped element (linear load or RBF macromodel port).
    newton_options:
        Newton settings; the defaults follow the paper (tol 1e-9).
    stats:
        Optional shared :class:`~repro.core.newton.NewtonStats` accumulator.
    """

    def __init__(
        self,
        termination: LumpedTermination,
        newton_options: NewtonOptions | None = None,
        stats: NewtonStats | None = None,
    ):
        self.termination = termination
        self.newton_options = newton_options or NewtonOptions()
        self.stats = stats if stats is not None else NewtonStats()
        self._g_cached: float | None = None

    def solve(self, a: float, b: float, c: float, v_guess: float, t: float) -> tuple[float, float]:
        """Solve ``a v - b - c (i(v) + i_prev) = 0`` for the new voltage.

        Parameters
        ----------
        a, b, c:
            Coefficients gathered by the host solver (see module docstring).
        v_guess:
            Initial guess, normally the previous step's voltage.
        t:
            Absolute time of the *new* step (used by time-varying models).

        Returns
        -------
        (v_new, i_new):
            The converged voltage and the committed element current at the
            new step.  The termination state is advanced (committed) before
            returning.
        """
        i_prev = self.termination.last_current

        if not self.termination.nonlinear:
            # Linear element: i(v) = i0 + g v with g constant; closed form.
            # Terminations declaring a constant conductance are queried once.
            g = self._g_cached
            if g is None:
                g = self.termination.dcurrent_dv(v_guess, t)
                if self.termination.constant_conductance:
                    self._g_cached = g
            i0 = self.termination.current(0.0, t)
            v_new = (b + c * (i0 + i_prev)) / (a - c * g)
            self.stats.record(0, True)
        else:
            termination = self.termination

            def residual_and_derivative(v: float) -> tuple[float, float]:
                # One fused model evaluation feeds both the residual and the
                # Jacobian (a shared basis pass on the RBF fast path).
                i, g = termination.current_and_dcurrent(v, t)
                return a * v - b - c * (i + i_prev), a - c * g

            result = newton_solve_scalar_fused(
                residual_and_derivative,
                v_guess,
                options=self.newton_options,
                stats=self.stats,
            )
            v_new = result.x

        i_new = self.termination.commit(v_new, t)
        return float(v_new), float(i_new)

