"""Regressor-vector machinery (paper Eq. 2).

The macromodels are dynamic: the current at sample ``m`` depends on the
past ``r`` voltage samples ``x_v = [v^{m-1} ... v^{m-r}]`` and past ``r``
current samples ``x_i = [i^{m-1} ... i^{m-r}]``.  This module provides:

* :class:`RegressorSpec` — the static description (order ``r``, sampling
  time ``Ts``).
* :func:`build_regression_data` — turns recorded ``(v, i)`` waveforms into
  the regression matrices used for identification.

A simulated model's regressor state lives in the port that resamples it
onto the solver step (:class:`~repro.core.resampling.ResampledPortModel`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["RegressorSpec", "build_regression_data"]


@dataclasses.dataclass(frozen=True)
class RegressorSpec:
    """Static description of a macromodel's regressor structure.

    Attributes
    ----------
    dynamic_order:
        Number ``r`` of past samples kept for both voltage and current.
    sampling_time:
        The model's native sampling time ``Ts`` in seconds.
    """

    dynamic_order: int
    sampling_time: float

    def __post_init__(self):
        if self.dynamic_order < 1:
            raise ValueError("dynamic_order must be at least 1")
        if self.sampling_time <= 0:
            raise ValueError("sampling_time must be positive")


def build_regression_data(
    v: np.ndarray, i: np.ndarray, dynamic_order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the identification data set from sampled port waveforms.

    Parameters
    ----------
    v, i:
        Voltage and current waveforms sampled at the model sampling time
        ``Ts`` (equal length, at least ``r + 2`` samples).
    dynamic_order:
        Regressor order ``r``.

    Returns
    -------
    (v_now, x_v, x_i, i_target):
        ``v_now`` has shape ``(N,)`` (the present voltage ``v^m``),
        ``x_v`` and ``x_i`` shape ``(N, r)`` (past samples, most recent
        first), and ``i_target`` shape ``(N,)`` (the current ``i^m`` to be
        fitted), with ``N = len(v) - r``.
    """
    v = np.asarray(v, dtype=float).ravel()
    i = np.asarray(i, dtype=float).ravel()
    r = int(dynamic_order)
    if v.shape != i.shape:
        raise ValueError("voltage and current records must have the same length")
    if r < 1:
        raise ValueError("dynamic_order must be at least 1")
    if v.size < r + 2:
        raise ValueError(f"need at least {r + 2} samples, got {v.size}")
    n = v.size - r
    v_now = v[r:]
    i_target = i[r:]
    # x_v[m, k] = v^{m-1-k} for the sample index m = r .. len(v)-1
    x_v = np.column_stack([v[r - 1 - k : r - 1 - k + n] for k in range(r)])
    x_i = np.column_stack([i[r - 1 - k : r - 1 - k + n] for k in range(r)])
    return v_now, x_v, x_i, i_target
