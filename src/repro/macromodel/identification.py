"""Macromodel parameter identification.

The paper (and its references [6-8]) obtains the macromodel parameters
"only once through a rigorous identification procedure".  This module
implements that procedure from recorded port transients:

1. :func:`fit_rbf_submodel` — fit a Gaussian RBF submodel to ``(v, i)``
   records of the port held in a fixed logic state: regressor construction,
   centre selection (k-means in the normalised regressor space), width
   selection (nearest-centre heuristic) and ridge-regularised linear least
   squares for the expansion weights ``theta``.
2. :func:`fit_linear_submodel` — ordinary least squares for the receiver's
   linear ARX submodel.
3. :func:`extract_switching_weights` — the two-load procedure for the
   driver weight functions ``w_u^m, w_d^m``: with the two fixed-state
   submodels known, switching records under (at least) two different loads
   give, sample by sample, a small linear system whose solution is the pair
   of weights.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.macromodel.rbf import GaussianRBFExpansion, RBFSubmodel
from repro.macromodel.receiver import LinearSubmodel
from repro.macromodel.regressor import build_regression_data

__all__ = [
    "IdentificationResult",
    "SwitchingRecord",
    "fit_rbf_submodel",
    "fit_linear_submodel",
    "extract_switching_weights",
]


@dataclasses.dataclass(frozen=True)
class IdentificationResult:
    """Outcome of a submodel identification.

    Attributes
    ----------
    submodel:
        The fitted submodel (an :class:`~repro.macromodel.rbf.RBFSubmodel`
        or :class:`~repro.macromodel.receiver.LinearSubmodel`).
    rms_error:
        Root-mean-square residual on the training record, in amperes.
    max_error:
        Maximum absolute residual on the training record, in amperes.
    n_samples:
        Number of regression samples used.
    """

    submodel: object
    rms_error: float
    max_error: float
    n_samples: int


@dataclasses.dataclass(frozen=True)
class SwitchingRecord:
    """A switching experiment used for weight extraction.

    ``v`` and ``i`` are the port voltage and current sampled at the model
    sampling time ``Ts``; the record must start (sample 0) at the switching
    instant, i.e. the logic transition happens at ``t = 0`` of the record.
    """

    v: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).ravel())
        object.__setattr__(self, "i", np.asarray(self.i, dtype=float).ravel())
        if self.v.shape != self.i.shape:
            raise ValueError("v and i records must have the same length")


def _select_centers(
    points: np.ndarray, n_centers: int, seed: int
) -> np.ndarray:
    """Pick RBF centres by k-means clustering of the normalised regressors."""
    # Imported here, its one use: scipy.cluster pulls in scipy.spatial,
    # which an import of the job API would otherwise pay for.
    from scipy.cluster.vq import kmeans2

    n_centers = min(n_centers, points.shape[0])
    if n_centers == points.shape[0]:
        return points.copy()
    centers, _ = kmeans2(points, n_centers, minit="++", seed=seed)
    # kmeans2 can return duplicate/empty clusters on degenerate data; keep
    # only distinct centres (the least-squares step is robust to fewer).
    centers = np.unique(np.round(centers, decimals=12), axis=0)
    return centers


def _default_beta(centers: np.ndarray) -> float:
    """Width heuristic: a multiple of the median nearest-centre spacing."""
    if centers.shape[0] < 2:
        return 1.0
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, np.inf)
    nearest = np.min(dist, axis=1)
    spacing = float(np.median(nearest[np.isfinite(nearest)]))
    if spacing <= 0:
        return 1.0
    return 1.5 * spacing


def fit_rbf_submodel(
    v: Sequence[float],
    i: Sequence[float],
    dynamic_order: int,
    n_centers: int = 40,
    beta: float | None = None,
    v_scale: float | None = None,
    i_scale: float | None = None,
    ridge: float = 1e-8,
    seed: int = 0,
    target: Sequence[float] | None = None,
) -> IdentificationResult:
    """Fit a Gaussian RBF submodel to a fixed-state port record.

    Parameters
    ----------
    v, i:
        Port voltage and current sampled at the model sampling time ``Ts``.
        The record should explore the voltage range of interest (a rich
        multilevel excitation, as used by the identification workflows in
        :mod:`repro.circuits.testbenches`).
    dynamic_order:
        Regressor order ``r``.
    n_centers:
        Number ``L`` of Gaussian basis functions requested (capped at the
        number of available samples).
    beta:
        Gaussian width in normalised units; by default a nearest-centre
        spacing heuristic is used.
    v_scale, i_scale:
        Normalisation scales; default to the peak absolute value of the
        corresponding record (or 1 if the record is identically zero).
    ridge:
        Tikhonov regularisation added to the least-squares normal equations
        for numerical robustness.
    seed:
        Seed for the k-means centre selection (identification is fully
        deterministic for a given seed).
    target:
        Optional separate fitting target.  When given, the regressor
        histories are still built from the ``(v, i)`` records (so that
        simulation-time regressors stay consistent with the port's total
        current) but the expansion is fitted to ``target`` instead of to
        ``i`` itself.  This is how the receiver's protection submodels are
        fitted to the residual left by the linear submodel (paper Eq. 6).
    """
    v = np.asarray(v, dtype=float).ravel()
    i = np.asarray(i, dtype=float).ravel()
    v_scale = float(v_scale) if v_scale else max(float(np.max(np.abs(v))), 1e-12)
    i_scale = float(i_scale) if i_scale else max(float(np.max(np.abs(i))), 1e-12)

    v_now, x_v, x_i, i_now = build_regression_data(v, i, dynamic_order)
    if target is None:
        fit_target = i_now
    else:
        target = np.asarray(target, dtype=float).ravel()
        if target.shape != v.shape:
            raise ValueError("target must have the same length as v and i")
        fit_target = target[dynamic_order:]
    points = np.column_stack((v_now / v_scale, x_v / v_scale, x_i / i_scale))
    centers = _select_centers(points, n_centers, seed)
    width = float(beta) if beta is not None else _default_beta(centers)

    expansion = GaussianRBFExpansion(
        centers=centers, weights=np.zeros(centers.shape[0]), beta=width
    )
    phi = expansion.design_matrix(points)
    rhs = fit_target / i_scale
    gram = phi.T @ phi + ridge * np.eye(phi.shape[1])
    theta = np.linalg.solve(gram, phi.T @ rhs)
    expansion.weights = theta

    submodel = RBFSubmodel(
        expansion=expansion,
        dynamic_order=dynamic_order,
        v_scale=v_scale,
        i_scale=i_scale,
    )
    predicted = submodel.current_batch(v_now, x_v, x_i)
    residual = predicted - fit_target
    return IdentificationResult(
        submodel=submodel,
        rms_error=float(np.sqrt(np.mean(residual**2))),
        max_error=float(np.max(np.abs(residual))),
        n_samples=fit_target.size,
    )


def fit_linear_submodel(
    v: Sequence[float],
    i: Sequence[float],
    dynamic_order: int,
    ridge: float = 1e-12,
) -> IdentificationResult:
    """Fit the receiver's linear ARX submodel by least squares."""
    v = np.asarray(v, dtype=float).ravel()
    i = np.asarray(i, dtype=float).ravel()
    v_now, x_v, x_i, target = build_regression_data(v, i, dynamic_order)
    design = np.column_stack((v_now, x_v, x_i))
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    coeffs = np.linalg.solve(gram, design.T @ target)
    r = dynamic_order
    submodel = LinearSubmodel(
        b0=coeffs[0], b_past=coeffs[1 : 1 + r], a_past=coeffs[1 + r :]
    )
    predicted = submodel.current_batch(v_now, x_v, x_i)
    residual = predicted - target
    return IdentificationResult(
        submodel=submodel,
        rms_error=float(np.sqrt(np.mean(residual**2))),
        max_error=float(np.max(np.abs(residual))),
        n_samples=target.size,
    )


def extract_switching_weights(
    submodel_up: RBFSubmodel,
    submodel_down: RBFSubmodel,
    records: Sequence[SwitchingRecord],
    sampling_time: float,
    direction: str,
    regularization: float = 1e-9,
    clip: tuple[float, float] = (-0.5, 1.5),
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one transition's weight templates from switching records.

    For each sample ``m`` of the transition the records under the different
    loads give the overdetermined linear system

        [ i_u(rec1, m)  i_d(rec1, m) ] [ w_u^m ]   [ i(rec1, m) ]
        [ i_u(rec2, m)  i_d(rec2, m) ] [ w_d^m ] = [ i(rec2, m) ]
        [        ...                 ]            [    ...      ]

    which is solved in the least-squares sense with a small Tikhonov term
    (the system is nearly singular when both submodels predict almost the
    same current, e.g. well after the transition has completed).

    Parameters
    ----------
    submodel_up, submodel_down:
        The already-identified fixed-state submodels.
    records:
        At least two switching records under different loads, aligned so
        that the logic transition occurs at sample 0.
    sampling_time:
        The model sampling time ``Ts`` (only used for validation of record
        lengths; the returned templates are sampled at ``Ts``).
    direction:
        ``'up'`` for LOW→HIGH, ``'down'`` for HIGH→LOW; used only to choose
        the steady values the templates are pinned to at their ends.
    regularization:
        Tikhonov weight for the per-sample 2×2 solve.
    clip:
        The extracted weights are clipped to this interval to avoid the
        occasional blow-up near singular samples.

    Returns
    -------
    (w_u, w_d):
        Weight templates sampled at ``Ts`` with the same length as the
        shortest record minus the regressor order.
    """
    if len(records) < 2:
        raise ValueError("need at least two switching records (two different loads)")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if sampling_time <= 0:
        raise ValueError("sampling_time must be positive")
    r = submodel_up.dynamic_order
    if submodel_down.dynamic_order != r:
        raise ValueError("submodels must share the same dynamic order")

    n = min(rec.v.size for rec in records) - r
    if n < 2:
        raise ValueError("switching records are too short for the regressor order")
    # The first extractable sample sits r sampling times after the switching
    # instant (the regressors need r past samples); the templates are padded
    # below with the steady weights of the *previous* state so that template
    # index 0 still corresponds to the switching instant itself.
    if direction == "up":
        pad_wu, pad_wd = 0.0, 1.0
    else:
        pad_wu, pad_wd = 1.0, 0.0

    # Evaluate both fixed-state submodels along every record.
    i_u = np.empty((len(records), n))
    i_d = np.empty((len(records), n))
    i_meas = np.empty((len(records), n))
    for k, rec in enumerate(records):
        v_now, x_v, x_i, target = build_regression_data(rec.v[: n + r], rec.i[: n + r], r)
        i_u[k] = submodel_up.current_batch(v_now, x_v, x_i)
        i_d[k] = submodel_down.current_batch(v_now, x_v, x_i)
        i_meas[k] = target

    w_u = np.empty(n)
    w_d = np.empty(n)
    eye2 = regularization * np.eye(2)
    for m in range(n):
        a = np.column_stack((i_u[:, m], i_d[:, m]))
        scale = max(float(np.max(np.abs(a))), 1e-12)
        a_n = a / scale
        b_n = i_meas[:, m] / scale
        sol = np.linalg.solve(a_n.T @ a_n + eye2, a_n.T @ b_n)
        w_u[m], w_d[m] = sol

    lo, hi = clip
    w_u = np.clip(w_u, lo, hi)
    w_d = np.clip(w_d, lo, hi)

    w_u = np.concatenate((np.full(r, pad_wu), w_u))
    w_d = np.concatenate((np.full(r, pad_wd), w_d))

    # Pin the tail to the exact steady values of the target state so that the
    # model settles cleanly once the transition is over.
    if direction == "up":
        w_u[-1], w_d[-1] = 1.0, 0.0
    else:
        w_u[-1], w_d[-1] = 0.0, 1.0
    return w_u, w_d
