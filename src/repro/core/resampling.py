"""Resampling of discrete-time macromodels onto the solver time step.

The RBF macromodels are identified with their own sampling time ``Ts``; a
transient field solver imposes a (generally much smaller) time step ``dt``
through the Courant condition.  The paper's Section 3 resolves the mismatch
with a two-step conversion based on first-order forward differences:

1. discrete (``Ts``) → continuous time,
2. continuous time → discrete (``dt``),

which for the regressor states gives the update of Eq. (13),

    x_i^{n+1} = Q x_i^n + tau * e_r * F(Theta; x_i^n, v^n, x_v^n; n)
    x_v^{n+1} = Q x_v^n + tau * e_r * v^n
    i^n       = F(Theta; x_i^n, v^n, x_v^n; n)

with ``tau = dt / Ts``, ``e_r = (1, 0, ..., 0)^T`` and ``Q`` the banded
matrix with ``q_ii = 1 - tau`` and ``q_{i,i-1} = tau``.  Stability requires
``tau <= 1`` (Eq. 17); see :mod:`repro.core.stability`.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.ports import LumpedTermination
from repro.macromodel.base import DiscreteTimePortModel
from repro.perf.rbf_fast import build_fast_port_evaluator

__all__ = [
    "resampling_matrix",
    "continuous_eigenvalue",
    "resampled_eigenvalue",
    "ResampledPortModel",
]


def resampling_matrix(dynamic_order: int, tau: float) -> np.ndarray:
    """The banded state-update matrix ``Q`` of Eq. (13).

    ``Q`` is lower bidiagonal: the diagonal entries equal ``1 - tau`` and the
    first sub-diagonal entries equal ``tau``.  For ``tau = 1`` it reduces to
    the pure shift register of the native-``Ts`` update; for ``tau < 1`` each
    stored sample relaxes towards its neighbour, which is exactly linear
    interpolation of the regressor history onto the finer time grid.
    """
    if dynamic_order < 1:
        raise ValueError("dynamic_order must be at least 1")
    q = (1.0 - tau) * np.eye(dynamic_order)
    idx = np.arange(1, dynamic_order)
    q[idx, idx - 1] = tau
    return q


def continuous_eigenvalue(lam: complex, sampling_time: float) -> complex:
    """Map a discrete eigenvalue to its continuous-time image (Eq. 15).

    The forward-difference conversion sends ``lambda`` to
    ``eta = (lambda - 1) / Ts``; eigenvalues inside the unit circle map to
    the open left half plane.
    """
    if sampling_time <= 0:
        raise ValueError("sampling_time must be positive")
    return (lam - 1.0) / sampling_time


def resampled_eigenvalue(lam: complex, tau: float) -> complex:
    """Map a discrete eigenvalue through the full resampling (Eq. 16).

    ``lambda_tilde = 1 + tau (lambda - 1)``: the unit disc is mapped onto
    the disc centred at ``1 - tau`` with radius ``tau``, which stays inside
    the unit disc exactly when ``tau <= 1``.
    """
    return 1.0 + tau * (lam - 1.0)


class ResampledPortModel(LumpedTermination):
    """A macromodel resampled onto a solver time step (Eq. 13).

    The object owns the regressor states ``x_v`` and ``x_i`` and advances
    them with the ``Q`` matrix at every accepted solver step.  It exposes the
    explicit current and its analytic derivative at the *current* step so a
    host solver can embed it in its own (possibly nonlinear) update.  It is
    the nonlinear :class:`~repro.core.ports.LumpedTermination` that every
    engine holds for a macromodel port: the MNA element, the 1-D line ends
    and the 3-D lumped sites.  ``t`` may be omitted in
    :meth:`current_and_dcurrent` and :meth:`commit`; the port then uses its
    own clock.

    Parameters
    ----------
    model:
        Any :class:`~repro.macromodel.base.DiscreteTimePortModel`
        (driver or receiver macromodel).
    dt:
        Solver time step.
    allow_unstable:
        By default a resampling factor ``tau = dt / Ts > 1`` raises
        ``ValueError`` because the conversion would extrapolate and may be
        unstable (paper Eq. 17); set ``True`` only for the instability
        ablation study.
    v0, i0:
        Initial values used to fill the regressor histories (e.g. the rest
        voltage of the port before the first switching event).
    t0:
        Absolute time of the first solver step.
    fast:
        Use the separable per-step evaluator of
        :mod:`repro.perf.rbf_fast` for driver/receiver macromodels.
        ``None`` (default) follows :func:`repro.perf.fastpath_default`;
        ``False`` always evaluates through the naive model methods.
    """

    nonlinear = True

    def __init__(
        self,
        model: DiscreteTimePortModel,
        dt: float,
        allow_unstable: bool = False,
        v0: float = 0.0,
        i0: float = 0.0,
        t0: float = 0.0,
        fast: bool | None = None,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        ts = model.sampling_time
        tau = dt / ts
        if tau > 1.0 + 1e-12 and not allow_unstable:
            raise ValueError(
                f"resampling factor tau = dt/Ts = {tau:.3g} exceeds 1; the paper's "
                "stability criterion (Eq. 17) requires dt <= Ts"
            )
        self.model = model
        self.dt = float(dt)
        self.tau = float(tau)
        self.dynamic_order = int(model.dynamic_order)
        self._q = resampling_matrix(self.dynamic_order, self.tau)
        self._fast = build_fast_port_evaluator(model) if perf.resolve_fast(fast) else None
        self._state_version = 0
        self.reset(v0=v0, i0=i0, t0=t0)

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        """Re-initialise the regressor histories and the clock."""
        self.x_v = np.full(self.dynamic_order, float(v0))
        self.x_i = np.full(self.dynamic_order, float(i0))
        self.time = float(t0)
        self.last_current = float(i0)
        self.last_voltage = float(v0)
        self._state_version += 1

    def current_and_dcurrent(self, v: float, t: float | None = None) -> tuple[float, float]:
        """Port current for a candidate voltage ``v`` at the current step, and its ``d/dv``.

        The fast path shares one basis pass between the two; the reference
        path calls the model's ``current`` and then its ``dcurrent_dv``.
        """
        t_eval = self.time if t is None else t
        if self._fast is not None:
            return self._fast.current_and_dcurrent(
                v, self.x_v, self.x_i, t_eval, self._state_version
            )
        return (
            self.model.current(v, self.x_v, self.x_i, t_eval),
            self.model.dcurrent_dv(v, self.x_v, self.x_i, t_eval),
        )

    def commit(self, v: float, t: float | None = None) -> float:
        """Accept the solver's voltage for this step and advance the states.

        Returns the committed current ``i^n`` (useful for the trapezoidal
        ``i^{n+1} + i^n`` term of the modified Maxwell-Ampère update).
        """
        t_eval = self.time if t is None else t
        if self._fast is not None:
            # The Newton loop's last residual evaluation was at this very
            # voltage, so this is a cache hit in the common case.
            i_now = self._fast.current_and_dcurrent(
                v, self.x_v, self.x_i, t_eval, self._state_version
            )[0]
        else:
            i_now = self.model.current(v, self.x_v, self.x_i, t_eval)
        tau = self.tau
        new_x_i = self._q @ self.x_i
        new_x_i[0] += tau * i_now
        new_x_v = self._q @ self.x_v
        new_x_v[0] += tau * v
        self.x_i = new_x_i
        self.x_v = new_x_v
        self.time = t_eval + self.dt
        self.last_current = float(i_now)
        self.last_voltage = float(v)
        self._state_version += 1
        return float(i_now)
