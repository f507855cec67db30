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

from repro.core.newton import NewtonStats, newton_solve_scalar_fused
from repro.core.ports import LumpedTermination

__all__ = ["HybridCellUpdate"]


class HybridCellUpdate:
    """Solve one lumped-element cell update per time step.

    Parameters
    ----------
    termination:
        The lumped element (linear load or RBF macromodel port).
    stats:
        Optional shared :class:`~repro.core.newton.NewtonStats` accumulator.
    """

    def __init__(
        self,
        termination: LumpedTermination,
        stats: NewtonStats | None = None,
    ):
        self.termination = termination
        self.stats = stats if stats is not None else NewtonStats()

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
        termination = self.termination
        i_prev = termination.last_current

        if not termination.nonlinear:
            # Linear element: i(v) = i0 + g v with g constant; closed form.
            # One evaluation at v = 0 gives both; no Newton solve is recorded.
            i0, g = termination.current_and_dcurrent(0.0, t)
            v_new = (b + c * (i0 + i_prev)) / (a - c * g)
        else:

            def residual_and_derivative(v: float) -> tuple[float, float]:
                # One fused model evaluation feeds both the residual and the
                # Jacobian (a shared basis pass on the RBF fast path).
                i, g = termination.current_and_dcurrent(v, t)
                return a * v - b - c * (i + i_prev), a - c * g

            result = newton_solve_scalar_fused(
                residual_and_derivative, v_guess, stats=self.stats
            )
            v_new = result.x

        i_new = termination.commit(v_new, t)
        return float(v_new), float(i_new)

