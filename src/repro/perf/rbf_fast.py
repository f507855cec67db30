"""Separable fast evaluation of the RBF macromodels (paper Eqs. 3-4).

The Gaussian basis of the paper factorises over its inputs: with the
isotropic width ``beta`` and centres ``c_l = (c0_l, cs_l)`` split into the
present-voltage coordinate and the regressor-state coordinates,

    phi_l(v, x) = exp(-(u - c0_l)^2 / (2 beta^2))
                  * exp(-||s - cs_l||^2 / (2 beta^2)),

where ``u = v / v_scale`` and ``s`` is the normalised regressor state
``(x_v / v_scale, x_i / i_scale)``.  Within one time step's Newton solve
only ``v`` changes — the regressor states are frozen until the step is
committed (see :class:`repro.core.resampling.ResampledPortModel`).  The
state factor can therefore be folded into the expansion weights **once per
step**,

    w_eff_l = theta_l * exp(-||s - cs_l||^2 / (2 beta^2)),

leaving a one-dimensional Gaussian sum ``i = i_scale * sum_l w_eff_l *
exp(-(u - c0_l)^2 / (2 beta^2))`` per Newton iteration, together with its
analytic derivative from the same ``phi`` values.  For the typical 3-5
iterations per step this removes both the ``(L, D)`` distance computation
and the separate gradient evaluation from the innermost loop.

The evaluators here wrap :class:`~repro.macromodel.driver.DriverMacromodel`
(two submodels combined with the time-varying switching weights of Eq. 5)
and :class:`~repro.macromodel.receiver.ReceiverMacromodel` (linear ARX part
folded into a per-step affine term plus the two protection submodels of
Eq. 6).  They are numerically equivalent to the naive evaluation — the only
difference is ``exp(a + b)`` versus ``exp(a) * exp(b)`` — and are validated
against it by ``tests/test_perf_fastpath.py``.
"""

from __future__ import annotations

import numpy as np

from repro.macromodel.driver import DriverMacromodel
from repro.macromodel.receiver import ReceiverMacromodel

__all__ = [
    "SeparableBlocks",
    "FastDriverEvaluator",
    "FastReceiverEvaluator",
    "build_fast_port_evaluator",
]


class SeparableBlocks:
    """Several submodels sharing ``(v_scale, beta)`` fused into one block.

    The receiver evaluates its two protection submodels at every Newton
    iteration; when they share the voltage normalisation and the Gaussian
    width (they are fitted that way), their expansions can be concatenated
    into a single centre/weight array with the per-submodel ``i_scale``
    folded into the weights — one vector pass per iteration instead of two.
    A one-submodel list is the per-step separable form of that submodel;
    ``value_and_slope`` returns the current in amperes either way.
    """

    def __init__(self, submodels):
        first = submodels[0]
        self.v_scale = first.v_scale
        beta = first.expansion.beta
        if any(
            sub.v_scale != self.v_scale or sub.expansion.beta != beta
            for sub in submodels[1:]
        ):
            raise ValueError("submodels must share v_scale and beta to be fused")
        self.neg_inv_two_beta_sq = -1.0 / (2.0 * beta**2)
        # When every block shares the output scale it is kept as a common
        # outer factor (matching the naive per-submodel arithmetic exactly);
        # with mixed scales it is folded into the per-block weights instead.
        if all(sub.i_scale == first.i_scale for sub in submodels[1:]):
            self.out_scale = first.i_scale
            fold = False
        else:
            self.out_scale = 1.0
            fold = True
        # d/dv chain factor for the summed (weight-folded) terms.
        self.slope_scale = -(self.out_scale / self.v_scale) / beta**2

        self.c0 = np.concatenate([sub.expansion.centers[:, 0] for sub in submodels])
        self._blocks = []
        offset = 0
        for sub in submodels:
            expansion = sub.expansion
            cs = np.ascontiguousarray(expansion.centers[:, 1:])
            block = {
                "slice": slice(offset, offset + expansion.n_centers),
                "cs": cs,
                "cs_sq": np.einsum("ld,ld->l", cs, cs),
                "w_base": sub.i_scale * expansion.weights if fold else expansion.weights,
                "i_scale": sub.i_scale,
                "r": sub.dynamic_order,
            }
            self._blocks.append(block)
            offset += expansion.n_centers
        n_total = offset
        self._w_eff = np.zeros(n_total)
        self._d = np.empty(n_total)
        self._tw = np.empty(n_total)
        self._s = np.empty(2 * first.dynamic_order)

    def prepare(self, x_v: np.ndarray, x_i: np.ndarray) -> None:
        """Fold the frozen-regressor factors of every block into the weights."""
        w_eff = self._w_eff
        for block in self._blocks:
            r = block["r"]
            s = self._s
            np.divide(x_v, self.v_scale, out=s[:r])
            np.divide(x_i, block["i_scale"], out=s[r:])
            sl = block["slice"]
            sq = block["cs"] @ s
            sq *= -2.0
            sq += block["cs_sq"]
            sq += s @ s
            np.maximum(sq, 0.0, out=sq)
            sq *= self.neg_inv_two_beta_sq
            np.exp(sq, out=sq)
            np.multiply(block["w_base"], sq, out=w_eff[sl])

    def value_and_slope(self, v: float) -> tuple[float, float]:
        """Summed current contribution and ``d/dv`` over all fused blocks."""
        d, tw = self._d, self._tw
        np.subtract(v / self.v_scale, self.c0, out=d)
        np.multiply(d, d, out=tw)
        tw *= self.neg_inv_two_beta_sq
        np.exp(tw, out=tw)
        tw *= self._w_eff
        value = self.out_scale * float(tw.sum())
        slope = self.slope_scale * float(tw @ d)
        return value, slope


class _MemoizedEvaluator:
    """Shared caching plumbing of the fast port evaluators.

    Subclasses implement ``_prepare_state`` and ``_evaluate``; this base
    caches the per-step preparation on a ``(state_version, t)`` key and the
    last ``(value, slope)`` pair per candidate voltage, so the port's commit
    after a Newton loop that ended at the same voltage costs no evaluation.
    """

    def __init__(self):
        self._prep_key: tuple | None = None
        self._last_v: float | None = None
        self._last_eval: tuple[float, float] = (0.0, 0.0)

    def _prepare_state(self, x_v: np.ndarray, x_i: np.ndarray, t: float) -> None:
        raise NotImplementedError

    def _evaluate(self, v: float) -> tuple[float, float]:
        raise NotImplementedError

    def current_and_dcurrent(self, v, x_v, x_i, t, state_version) -> tuple[float, float]:
        """Port current and ``d/dv`` at ``v`` (one evaluation, one cache probe)."""
        key = (state_version, t)
        if key != self._prep_key:
            self._prepare_state(x_v, x_i, t)
            self._prep_key = key
            self._last_v = None
        if v != self._last_v:
            self._last_eval = self._evaluate(v)
            self._last_v = v
        return self._last_eval


class FastDriverEvaluator(_MemoizedEvaluator):
    """Separable evaluation of a (stimulus-bound) driver macromodel."""

    def __init__(self, model: DriverMacromodel):
        super().__init__()
        self.model = model
        self.up = SeparableBlocks([model.submodel_up])
        self.down = SeparableBlocks([model.submodel_down])
        self._w_u = 0.0
        self._w_d = 0.0

    def _prepare_state(self, x_v, x_i, t) -> None:
        self._w_u, self._w_d = self.model.weights_at(t)
        if self._w_u != 0.0:
            self.up.prepare(x_v, x_i)
        if self._w_d != 0.0:
            self.down.prepare(x_v, x_i)

    def _evaluate(self, v: float) -> tuple[float, float]:
        i = 0.0
        g = 0.0
        if self._w_u != 0.0:
            value, slope = self.up.value_and_slope(v)
            i += self._w_u * value
            g += self._w_u * slope
        if self._w_d != 0.0:
            value, slope = self.down.value_and_slope(v)
            i += self._w_d * value
            g += self._w_d * slope
        return i, g


class FastReceiverEvaluator(_MemoizedEvaluator):
    """Separable evaluation of a receiver macromodel (Eq. 6).

    The two protection submodels are fused into one
    :class:`SeparableBlocks` pass when they share ``(v_scale, beta)`` —
    which the identification guarantees — with a two-submodel fallback
    otherwise.
    """

    def __init__(self, model: ReceiverMacromodel):
        super().__init__()
        self.model = model
        try:
            self._fused = SeparableBlocks([model.protection_up, model.protection_down])
            self._split = None
        except ValueError:
            self._fused = None
            self._split = (
                SeparableBlocks([model.protection_up]),
                SeparableBlocks([model.protection_down]),
            )
        self._lin_const = 0.0

    def _prepare_state(self, x_v, x_i, t) -> None:
        linear = self.model.linear
        # The ARX history term is frozen within the step: i_lin = b0 v + const.
        self._lin_const = float(linear.b_past @ x_v + linear.a_past @ x_i)
        if self._fused is not None:
            self._fused.prepare(x_v, x_i)
        else:
            self._split[0].prepare(x_v, x_i)
            self._split[1].prepare(x_v, x_i)

    def _evaluate(self, v: float) -> tuple[float, float]:
        b0 = self.model.linear.b0
        i = b0 * v + self._lin_const
        g = b0
        if self._fused is not None:
            value, slope = self._fused.value_and_slope(v)
            i += value
            g += slope
        else:
            for sub in self._split:
                value, slope = sub.value_and_slope(v)
                i += value
                g += slope
        return i, g


def build_fast_port_evaluator(model):
    """Fast evaluator for a macromodel, or ``None`` if it has no fast form.

    Driver models without a bound stimulus are rejected lazily (binding
    happens through :meth:`DriverMacromodel.bound`, which produces a new
    model instance, so the evaluator always sees a bound one in practice).
    """
    if isinstance(model, DriverMacromodel):
        return FastDriverEvaluator(model)
    if isinstance(model, ReceiverMacromodel):
        return FastReceiverEvaluator(model)
    return None

