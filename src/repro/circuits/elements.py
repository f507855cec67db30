"""Linear circuit elements and their MNA stamps.

Every element implements the small stamping interface used by the transient
solver (:mod:`repro.circuits.transient`):

* ``nodes`` — tuple of node names the element connects to;
* ``n_branch_currents`` — number of extra current unknowns it needs;
* ``stamp(A, rhs, x, ctx)`` — add the element's linearised contribution for
  the candidate solution ``x`` at the time step described by ``ctx``;
* ``accept(x, ctx)`` — update internal state once the step has converged;
* ``reset()`` — clear state before a new transient run.

Dynamic elements (capacitors, inductors) use trapezoidal companion models.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuits.netlist import GROUND

__all__ = [
    "Element",
    "StampContext",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "ElementBank",
    "ResistorBank",
    "CapacitorBank",
    "InductorBank",
]


class StampContext:
    """Per-step information handed to the element stamps.

    Attributes
    ----------
    compiled:
        The :class:`~repro.circuits.netlist.CompiledCircuit` with the index
        maps.
    dt:
        Time step of the transient run.
    t:
        Absolute time of the step being solved (``t^{n+1}``).
    """

    def __init__(self, compiled, dt: float, t: float):
        self.compiled = compiled
        self.dt = dt
        self.t = t

    def node_voltage(self, x, node: str) -> float:
        """Candidate voltage of a node (0 for ground)."""
        return self.compiled.voltage_of(x, node)


class Element:
    """Base class providing the default (empty) hooks.

    Fast-path protocol (:mod:`repro.perf.mna`)
    ------------------------------------------
    ``stamp_kind`` classifies the element for the fast MNA assembler:

    * ``"static"`` — the matrix stamp does not depend on the candidate
      solution ``x`` (it is constant for a whole transient run, given the
      step in ``ctx``), and the RHS stamp depends only on the step
      (time and committed state), not on ``x``.  Static elements implement
      :meth:`stamp_static` (matrix part, called once per run) and
      :meth:`stamp_rhs` (RHS part, called once per time step), whose sum
      must equal :meth:`stamp` for every ``x``.
    * ``"dynamic"`` — everything else (nonlinear elements); the fast path
      re-stamps these every Newton iteration via :meth:`stamp` (or the
      optional index-cached ``stamp_fast``/``prepare_fast`` pair).

    The default is ``"dynamic"``, which is always correct.
    """

    #: extra current unknowns required by this element
    n_branch_currents = 0

    #: classification used by the fast MNA assembler (see class docstring)
    stamp_kind = "dynamic"

    #: whether :meth:`accept` must be called after every converged step.
    #: Stateful elements (companion models, history-based lines, macromodels)
    #: set this to ``True``; the transient solver builds its per-step accept
    #: list from this flag rather than comparing bound methods, which missed
    #: accepts installed on the *instance*.  Instance-level accepts must set
    #: the flag on the instance too; class-level overrides (including ones
    #: contributed by mixins) are inferred automatically below.
    needs_accept = False

    #: whether this element's stamps honour ``ctx.dt`` per call, so the
    #: retry ladder may advance it with locally halved sub-steps when a step
    #: fails (see ``TransientOptions.max_retries``).  Elements that
    #: bind the time step at construction (e.g. the RBF macromodel, whose
    #: regressor taps are identified at a fixed sample interval) set this to
    #: ``False``, which disables dt-halving for circuits containing them.
    supports_local_dt = True

    def __init_subclass__(cls, **kwargs):
        # Safety net: a subclass that overrides accept() without declaring
        # needs_accept would be silently skipped by the solver's accept
        # list; infer the flag unless an explicit declaration governs.
        # Walking the MRO covers mixin-provided accepts while respecting a
        # declaration inherited from wherever the accept came from (e.g. a
        # parent that deliberately opted out).
        super().__init_subclass__(**kwargs)
        if "needs_accept" in cls.__dict__:
            return
        for klass in cls.__mro__:
            if klass is not cls and "needs_accept" in klass.__dict__:
                return  # an explicit declaration up the MRO governs
            if "accept" in klass.__dict__:
                if klass is not Element:  # a real override with no declaration
                    cls.needs_accept = True
                return

    def __init__(self, name: str, nodes: tuple[str, ...]):
        self.name = name
        self.nodes = tuple(nodes)

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        raise NotImplementedError

    def stamp_static(self, A, ctx: StampContext) -> None:
        """Matrix part of a static element's stamp (fast path, once per run)."""
        raise NotImplementedError

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        """RHS part of a static element's stamp (fast path, once per step)."""
        raise NotImplementedError

    def prepare_fast(self, compiled) -> None:
        """Cache unknown-vector indices before a fast-path run (optional hook)."""

    def accept(self, x, ctx: StampContext) -> None:
        """Hook called after a time step has converged (default: no state)."""

    def reset(self) -> None:
        """Hook called before a transient run (default: no state)."""

    # -- stamping helpers -------------------------------------------------
    @staticmethod
    def _add(A, i, j, value: float) -> None:
        if i is not None and j is not None:
            A[i, j] += value

    @staticmethod
    def _add_rhs(rhs, i, value: float) -> None:
        if i is not None:
            rhs[i] += value

    def _stamp_conductance(self, A, ctx, node_a: str, node_b: str, g: float) -> None:
        ia = ctx.compiled.index_of(node_a)
        ib = ctx.compiled.index_of(node_b)
        self._add(A, ia, ia, g)
        self._add(A, ib, ib, g)
        self._add(A, ia, ib, -g)
        self._add(A, ib, ia, -g)

    def _stamp_current(self, rhs, ctx, node_a: str, node_b: str, i_ab: float) -> None:
        """Stamp a current ``i_ab`` flowing from ``node_a`` to ``node_b``."""
        ia = ctx.compiled.index_of(node_a)
        ib = ctx.compiled.index_of(node_b)
        self._add_rhs(rhs, ia, -i_ab)
        self._add_rhs(rhs, ib, i_ab)


class Resistor(Element):
    """A linear resistor between two nodes."""

    stamp_kind = "static"

    def __init__(self, name: str, node_a: str, node_b: str, resistance: float):
        super().__init__(name, (node_a, node_b))
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        self.resistance = float(resistance)

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        self._stamp_conductance(A, ctx, self.nodes[0], self.nodes[1], 1.0 / self.resistance)

    def stamp_static(self, A, ctx: StampContext) -> None:
        self._stamp_conductance(A, ctx, self.nodes[0], self.nodes[1], 1.0 / self.resistance)

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        pass


class Capacitor(Element):
    """A linear capacitor with a trapezoidal companion model."""

    stamp_kind = "static"
    needs_accept = True

    def __init__(self, name: str, node_a: str, node_b: str, capacitance: float, v0: float = 0.0):
        super().__init__(name, (node_a, node_b))
        if capacitance < 0:
            raise ValueError("capacitance must be non-negative")
        self.capacitance = float(capacitance)
        self.v0 = float(v0)
        self.reset()

    def reset(self) -> None:
        self._v_prev = self.v0
        self._i_prev = 0.0

    def _geq(self, ctx: StampContext) -> float:
        return 2.0 * self.capacitance / ctx.dt

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        geq = self._geq(ctx)
        i_hist = -geq * self._v_prev - self._i_prev
        a, b = self.nodes
        self._stamp_conductance(A, ctx, a, b, geq)
        self._stamp_current(rhs, ctx, a, b, i_hist)

    def stamp_static(self, A, ctx: StampContext) -> None:
        self._stamp_conductance(A, ctx, self.nodes[0], self.nodes[1], self._geq(ctx))

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        i_hist = -self._geq(ctx) * self._v_prev - self._i_prev
        self._stamp_current(rhs, ctx, self.nodes[0], self.nodes[1], i_hist)

    def accept(self, x, ctx: StampContext) -> None:
        a, b = self.nodes
        v_new = ctx.node_voltage(x, a) - ctx.node_voltage(x, b)
        self._i_prev = self._geq(ctx) * (v_new - self._v_prev) - self._i_prev
        self._v_prev = v_new


class Inductor(Element):
    """A linear inductor (one extra branch-current unknown)."""

    n_branch_currents = 1
    stamp_kind = "static"
    needs_accept = True

    def __init__(self, name: str, node_a: str, node_b: str, inductance: float, i0: float = 0.0):
        super().__init__(name, (node_a, node_b))
        if inductance <= 0:
            raise ValueError("inductance must be positive")
        self.inductance = float(inductance)
        self.i0 = float(i0)
        self.reset()

    def reset(self) -> None:
        self._i_prev = self.i0
        self._v_prev = 0.0

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        a, b = self.nodes
        ia = ctx.compiled.index_of(a)
        ib = ctx.compiled.index_of(b)
        j = ctx.compiled.branch_index(self.name)
        # KCL: branch current leaves node a, enters node b.
        self._add(A, ia, j, 1.0)
        self._add(A, ib, j, -1.0)
        # Branch equation.
        req = 2.0 * self.inductance / ctx.dt
        v_hist = -req * self._i_prev - self._v_prev
        self._add(A, j, ia, 1.0)
        self._add(A, j, ib, -1.0)
        self._add(A, j, j, -req)
        self._add_rhs(rhs, j, v_hist)

    def stamp_static(self, A, ctx: StampContext) -> None:
        a, b = self.nodes
        ia = ctx.compiled.index_of(a)
        ib = ctx.compiled.index_of(b)
        j = ctx.compiled.branch_index(self.name)
        self._add(A, ia, j, 1.0)
        self._add(A, ib, j, -1.0)
        req = 2.0 * self.inductance / ctx.dt
        self._add(A, j, ia, 1.0)
        self._add(A, j, ib, -1.0)
        self._add(A, j, j, -req)

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        j = ctx.compiled.branch_index(self.name)
        v_hist = -2.0 * self.inductance / ctx.dt * self._i_prev - self._v_prev
        self._add_rhs(rhs, j, v_hist)

    def accept(self, x, ctx: StampContext) -> None:
        a, b = self.nodes
        j = ctx.compiled.branch_index(self.name)
        self._i_prev = float(x[j])
        self._v_prev = ctx.node_voltage(x, a) - ctx.node_voltage(x, b)


class VoltageSource(Element):
    """An independent voltage source driven by a waveform ``v(t)``.

    The waveform may be a constant float or any callable of time (the
    :mod:`repro.waveforms` objects plug in directly).  The branch current is
    defined flowing from the positive node *through the source* to the
    negative node.
    """

    n_branch_currents = 1
    stamp_kind = "static"

    def __init__(self, name: str, node_plus: str, node_minus: str, waveform):
        super().__init__(name, (node_plus, node_minus))
        if callable(waveform):
            self.waveform: Callable[[float], float] = waveform
            self._const_value: float | None = None
        else:
            value = float(waveform)
            self.waveform = lambda t, _value=value: _value
            self._const_value = value

    def value(self, t: float) -> float:
        """Source voltage at time ``t``."""
        if self._const_value is not None:
            return self._const_value
        return float(self.waveform(t))

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        a, b = self.nodes
        ia = ctx.compiled.index_of(a)
        ib = ctx.compiled.index_of(b)
        j = ctx.compiled.branch_index(self.name)
        self._add(A, ia, j, 1.0)
        self._add(A, ib, j, -1.0)
        self._add(A, j, ia, 1.0)
        self._add(A, j, ib, -1.0)
        self._add_rhs(rhs, j, self.value(ctx.t))

    def stamp_static(self, A, ctx: StampContext) -> None:
        a, b = self.nodes
        ia = ctx.compiled.index_of(a)
        ib = ctx.compiled.index_of(b)
        j = ctx.compiled.branch_index(self.name)
        self._add(A, ia, j, 1.0)
        self._add(A, ib, j, -1.0)
        self._add(A, j, ia, 1.0)
        self._add(A, j, ib, -1.0)

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        rhs[ctx.compiled.branch_index(self.name)] += self.value(ctx.t)


class CurrentSource(Element):
    """An independent current source (positive current from + node to - node)."""

    stamp_kind = "static"

    def __init__(self, name: str, node_plus: str, node_minus: str, waveform):
        super().__init__(name, (node_plus, node_minus))
        if callable(waveform):
            self.waveform: Callable[[float], float] = waveform
            self._const_value: float | None = None
        else:
            value = float(waveform)
            self.waveform = lambda t, _value=value: _value
            self._const_value = value

    def value(self, t: float) -> float:
        """Source current at time ``t``."""
        if self._const_value is not None:
            return self._const_value
        return float(self.waveform(t))

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        a, b = self.nodes
        self._stamp_current(rhs, ctx, a, b, self.value(ctx.t))

    def stamp_static(self, A, ctx: StampContext) -> None:
        pass

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        a, b = self.nodes
        self._stamp_current(rhs, ctx, a, b, self.value(ctx.t))


# ---------------------------------------------------------------------------
# element banks: many homogeneous elements as one vectorised element
# ---------------------------------------------------------------------------

class ElementBank(Element):
    """Base class for vectorised banks of homogeneous two-terminal elements.

    At system scale the per-step cost of a netlist is dominated by Python
    element loops, not arithmetic: N scalar elements each pay a
    ``stamp_rhs`` call and (for stateful kinds) an ``accept`` call per time
    step.  A bank stores per-element parameter/state *arrays* and performs
    all of its stamping and companion-model updates in single vectorised
    passes — element-wise identical arithmetic to N scalar instances.

    Interface on top of :class:`Element`:

    * :meth:`stamp_static_coo` — the bank's whole static matrix stamp as
      COO triplet arrays ``(rows, cols, vals)``.  The dense backend scatters
      them with one ``np.add.at``; the sparse backend appends them to its
      COO record in one operation per bank (never per element).

    Ground connections are allowed anywhere; the index caches carry masks.
    """

    stamp_kind = "static"

    def __init__(self, name: str, nodes_a, nodes_b):
        nodes_a = [str(n) for n in nodes_a]
        nodes_b = [str(n) for n in nodes_b]
        if len(nodes_a) != len(nodes_b):
            raise ValueError("nodes_a and nodes_b must have the same length")
        if not nodes_a:
            raise ValueError(f"bank {name!r} needs at least one element")
        super().__init__(name, tuple(nodes_a) + tuple(nodes_b))
        self.nodes_a = nodes_a
        self.nodes_b = nodes_b
        self._ia: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.nodes_a)

    def _param_array(self, value, what: str) -> np.ndarray:
        """Broadcast a scalar-or-sequence parameter to one value per member."""
        try:
            return np.broadcast_to(np.asarray(value, dtype=float), (len(self),)).copy()
        except ValueError:
            raise ValueError(
                f"{what} must be a scalar or provide one value per bank member"
            ) from None

    def reset(self) -> None:
        self._ia = None

    def _ensure_indices(self, compiled) -> None:
        if self._ia is not None:
            return
        n = len(self)
        ia = np.empty(n, dtype=np.intp)
        ib = np.empty(n, dtype=np.intp)
        for k in range(n):
            i = compiled.index_of(self.nodes_a[k])
            ia[k] = -1 if i is None else i
            i = compiled.index_of(self.nodes_b[k])
            ib[k] = -1 if i is None else i
        self._ia = ia
        self._ib = ib
        self._ma = ia >= 0
        self._mb = ib >= 0
        self._maf = self._ma.astype(float)
        self._mbf = self._mb.astype(float)
        self._ia_safe = np.where(self._ma, ia, 0)
        self._ib_safe = np.where(self._mb, ib, 0)
        if self.n_branch_currents:
            self._j = compiled.branch_index(self.name) + np.arange(n, dtype=np.intp)

    # -- vectorised stamping helpers --------------------------------------
    def _port_voltages(self, x) -> np.ndarray:
        """Candidate voltage across every member (``v_a - v_b``, 0 at ground)."""
        return x[self._ia_safe] * self._maf - x[self._ib_safe] * self._mbf

    def _conductance_coo(self, g: np.ndarray):
        """COO triplets of per-member conductances ``g`` between the node pairs."""
        ia, ib, ma, mb = self._ia, self._ib, self._ma, self._mb
        both = ma & mb
        rows = np.concatenate([ia[ma], ib[mb], ia[both], ib[both]])
        cols = np.concatenate([ia[ma], ib[mb], ib[both], ia[both]])
        vals = np.concatenate([g[ma], g[mb], -g[both], -g[both]])
        return rows, cols, vals

    def _incidence_coo(self):
        """COO triplets of the branch incidence rows/columns (inductor branches)."""
        ia, ib, ma, mb, j = self._ia, self._ib, self._ma, self._mb, self._j
        one_a = np.ones(int(ma.sum()))
        one_b = np.ones(int(mb.sum()))
        rows = np.concatenate([ia[ma], ib[mb], j[ma], j[mb]])
        cols = np.concatenate([j[ma], j[mb], ia[ma], ib[mb]])
        vals = np.concatenate([one_a, -one_b, one_a, -one_b])
        return rows, cols, vals

    def _scatter_current(self, rhs, i_ab: np.ndarray) -> None:
        """Add per-member currents flowing ``a -> b`` into the RHS."""
        ma, mb = self._ma, self._mb
        np.add.at(rhs, self._ia[ma], -i_ab[ma])
        np.add.at(rhs, self._ib[mb], i_ab[mb])

    # -- Element protocol --------------------------------------------------
    def stamp_static_coo(self, ctx: StampContext):
        """The bank's static matrix stamp as ``(rows, cols, vals)`` arrays."""
        raise NotImplementedError

    def stamp_static(self, A, ctx: StampContext) -> None:
        self._ensure_indices(ctx.compiled)
        rows, cols, vals = self.stamp_static_coo(ctx)
        np.add.at(A, (rows, cols), vals)

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        pass

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        self.stamp_static(A, ctx)
        self.stamp_rhs(rhs, ctx)


class ResistorBank(ElementBank):
    """Many linear resistors as one vectorised element."""

    def __init__(self, name: str, nodes_a, nodes_b, resistance):
        super().__init__(name, nodes_a, nodes_b)
        self.resistance = self._param_array(resistance, "resistance")
        if np.any(self.resistance <= 0):
            raise ValueError("resistance must be positive")

    def stamp_static_coo(self, ctx: StampContext):
        self._ensure_indices(ctx.compiled)
        return self._conductance_coo(1.0 / self.resistance)


class CapacitorBank(ElementBank):
    """Many linear capacitors as one vectorised element.

    The companion-model matrix stamp is static (once per run); the per-step
    history currents and the post-step state updates run as single
    array-wide passes.  Every member is a shunt from its node in ``nodes``
    to ground, the form the ladder and mesh generators emit.
    """

    needs_accept = True

    def __init__(self, name: str, nodes, capacitance, v0=0.0):
        nodes = list(nodes)
        super().__init__(name, nodes, [GROUND] * len(nodes))
        self.capacitance = self._param_array(capacitance, "capacitance")
        if np.any(self.capacitance < 0):
            raise ValueError("capacitance must be non-negative")
        self.v0 = self._param_array(v0, "v0")
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._v_prev = self.v0.copy()
        self._i_prev = np.zeros(len(self))

    def _geq(self, ctx: StampContext) -> np.ndarray:
        return 2.0 * self.capacitance / ctx.dt

    def stamp_static_coo(self, ctx: StampContext):
        self._ensure_indices(ctx.compiled)
        return self._conductance_coo(self._geq(ctx))

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        self._ensure_indices(ctx.compiled)
        self._scatter_current(rhs, -self._geq(ctx) * self._v_prev - self._i_prev)

    def accept(self, x, ctx: StampContext) -> None:
        v_new = self._port_voltages(x)
        self._i_prev = self._geq(ctx) * (v_new - self._v_prev) - self._i_prev
        self._v_prev = v_new


class InductorBank(ElementBank):
    """Many linear inductors (one branch-current unknown each) as one element."""

    needs_accept = True

    def __init__(self, name: str, nodes_a, nodes_b, inductance, i0=0.0):
        super().__init__(name, nodes_a, nodes_b)
        self.inductance = self._param_array(inductance, "inductance")
        if np.any(self.inductance <= 0):
            raise ValueError("inductance must be positive")
        self.i0 = self._param_array(i0, "i0")
        self.n_branch_currents = len(self)
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._i_prev = self.i0.copy()
        self._v_prev = np.zeros(len(self))

    def _req(self, ctx: StampContext) -> np.ndarray:
        return 2.0 * self.inductance / ctx.dt

    def stamp_static_coo(self, ctx: StampContext):
        self._ensure_indices(ctx.compiled)
        rows, cols, vals = self._incidence_coo()
        j = self._j
        return (
            np.concatenate([rows, j]),
            np.concatenate([cols, j]),
            np.concatenate([vals, -self._req(ctx)]),
        )

    def stamp_rhs(self, rhs, ctx: StampContext) -> None:
        self._ensure_indices(ctx.compiled)
        v_hist = -self._req(ctx) * self._i_prev - self._v_prev
        rhs[self._j] += v_hist  # branch rows are unique: fancy add is exact

    def accept(self, x, ctx: StampContext) -> None:
        self._i_prev = np.asarray(x[self._j], dtype=float)
        self._v_prev = self._port_voltages(x)
