"""Newton-Raphson scalar solver with iteration bookkeeping.

The coupled FDTD/macromodel update (paper Eq. 8 + 13) reduces to one scalar
nonlinear equation per lumped element per time step.  Because the Gaussian
RBF representation is smooth by construction and its Jacobian is available
analytically, the paper reports that "the Newton-Raphson iterations required
for convergence at each time iteration are very few" — never more than
three at a 1e-9 tolerance in the validation example.  Every port solve
runs at that tolerance (:data:`TOLERANCE`) under one iteration cap
(:data:`MAX_ITERATIONS`).  The :class:`NewtonStats` accumulator lets the
experiment harness reproduce the claim as a per-run iteration histogram.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

#: Derivatives smaller in magnitude than this are clamped to avoid division
#: blow-ups.
_MIN_DERIVATIVE = 1e-15
#: Convergence threshold on the residual magnitude (the paper's "very
#: stringent value of 1e-9").
TOLERANCE = 1e-9
#: Iteration cap; a solve that reaches it is recorded as non-converged.
MAX_ITERATIONS = 50

__all__ = [
    "TOLERANCE",
    "MAX_ITERATIONS",
    "NewtonStats",
    "NewtonResult",
    "newton_solve_scalar_fused",
]


@dataclasses.dataclass
class NewtonStats:
    """Accumulates iteration counts over a whole transient run."""

    total_solves: int = 0
    total_iterations: int = 0
    max_iterations: int = 0
    failures: int = 0
    nan_failures: int = 0
    histogram: dict = dataclasses.field(default_factory=dict)

    def record(self, iterations: int, converged: bool, nan: bool = False) -> None:
        """Record one scalar solve."""
        self.total_solves += 1
        self.total_iterations += iterations
        self.max_iterations = max(self.max_iterations, iterations)
        if not converged:
            self.failures += 1
        if nan:
            self.nan_failures += 1
        self.histogram[iterations] = self.histogram.get(iterations, 0) + 1

    @property
    def mean_iterations(self) -> float:
        """Average number of iterations per solve (0 if nothing recorded)."""
        if self.total_solves == 0:
            return 0.0
        return self.total_iterations / self.total_solves

    def merge(self, other: "NewtonStats") -> None:
        """Fold another accumulator into this one."""
        self.total_solves += other.total_solves
        self.total_iterations += other.total_iterations
        self.max_iterations = max(self.max_iterations, other.max_iterations)
        self.failures += other.failures
        self.nan_failures += other.nan_failures
        for key, value in other.histogram.items():
            self.histogram[key] = self.histogram.get(key, 0) + value

    def summary(self) -> dict:
        """Plain-dict summary used by the experiment reports."""
        return {
            "solves": self.total_solves,
            "mean_iterations": self.mean_iterations,
            "max_iterations": self.max_iterations,
            "failures": self.failures,
            "nan_failures": self.nan_failures,
        }


@dataclasses.dataclass(frozen=True)
class NewtonResult:
    """Outcome of a single scalar solve."""

    x: float
    iterations: int
    converged: bool
    residual: float


def newton_solve_scalar_fused(
    residual_and_derivative: Callable[[float], tuple[float, float]],
    x0: float,
    stats: NewtonStats | None = None,
) -> NewtonResult:
    """Solve ``f(x) = 0`` by Newton-Raphson.

    Parameters
    ----------
    residual_and_derivative:
        Returns ``(f(x), f'(x))``, the scalar residual and its analytic
        derivative, in one call: a model's value and derivative come from
        one basis pass (the separable RBF fast path).  The derivative of
        the last iterate is computed but unused.
    x0:
        Initial guess (typically the previous time step's voltage, which is
        why so few iterations are needed in practice).
    stats:
        Optional accumulator updated with the iteration count.
    """
    x = float(x0)
    f, dfdx = residual_and_derivative(x)
    f = float(f)
    iterations = 0
    nan = not np.isfinite(f)
    converged = not nan and abs(f) < TOLERANCE
    while not converged and not nan and iterations < MAX_ITERATIONS:
        dfdx = float(dfdx)
        if not np.isfinite(dfdx) or abs(dfdx) < _MIN_DERIVATIVE:
            dfdx = np.sign(dfdx) * _MIN_DERIVATIVE if dfdx != 0 else _MIN_DERIVATIVE
        step = -f / dfdx
        x = x + step
        f, dfdx = residual_and_derivative(x)
        f = float(f)
        iterations += 1
        # A NaN/Inf residual can never converge — iterating to the cap
        # would only hide the poisoned state from the caller.
        nan = not np.isfinite(f)
        converged = not nan and abs(f) < TOLERANCE
    if stats is not None:
        stats.record(iterations, converged, nan=nan)
    return NewtonResult(x=x, iterations=iterations, converged=converged, residual=abs(f))
