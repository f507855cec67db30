"""Common interface for discrete-time port macromodels.

Every macromodel in this package implements the general parametric form of
the paper's Eq. (1),

    i^m = F(Theta; x_i^{m-1}, v^m, x_v^{m-1}; m),

where ``x_v`` and ``x_i`` collect the past ``r`` voltage and current
samples (Eq. 2) and the explicit dependence on the sample index ``m``
captures the switching behaviour of drivers.  Because the model may later
be resampled onto an arbitrary solver time step (Section 3), the interface
exposes the dependence on *absolute time* ``t`` rather than on the sample
index: the driver weight functions are continuous-time interpolants of
their identified discrete-time templates, so evaluating them at ``t = n dt``
is exactly the resampling the paper describes.
"""

from __future__ import annotations

import enum
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["PortKind", "DiscreteTimePortModel"]


class PortKind(enum.Enum):
    """Role of the modelled port in a link."""

    DRIVER = "driver"
    RECEIVER = "receiver"


@runtime_checkable
class DiscreteTimePortModel(Protocol):
    """Protocol implemented by all port macromodels.

    Attributes
    ----------
    sampling_time:
        The characteristic sampling time ``Ts`` chosen at identification
        time (paper Section 2).  Resampling onto a solver step ``dt``
        requires ``dt <= Ts`` (Eq. 17).
    dynamic_order:
        The number ``r`` of past voltage/current samples in the regressors.
    """

    sampling_time: float
    dynamic_order: int

    def current(self, v: float, x_v: np.ndarray, x_i: np.ndarray, t: float) -> float:
        """Port current ``i`` for present voltage ``v`` and regressor states.

        ``x_v`` and ``x_i`` are the length-``r`` vectors of past voltage and
        current samples (most recent first), ``t`` the absolute time used to
        evaluate any time-varying behaviour (driver switching weights).
        """
        ...

    def dcurrent_dv(
        self, v: float, x_v: np.ndarray, x_i: np.ndarray, t: float
    ) -> float:
        """Analytic derivative ``dF/dv`` at the same evaluation point.

        This is the ingredient that makes the Newton-Raphson solution of the
        coupled FDTD/macromodel equation cheap (paper Section 3): the
        Jacobian of the Gaussian RBF expansion is available in closed form.
        """
        ...
