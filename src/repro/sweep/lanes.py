"""Lane sets: the direct scenarios of a sweep, stepped as one array state.

A *direct* scenario is a member of a corner group whose circuits are all
linear (:mod:`repro.sweep.engine`).  Every step it needs an RHS build,
one solve against its group's shared LU factors and an accept.  A
:class:`LaneSet` holds that step state for every direct scenario of one
circuit topology (the same unknown numbering, and the same element
kinds, names and nodes in the same positions), across all of the
topology's corner groups, as arrays with one column (a *lane*) per
scenario:

* source values for every step, computed once at the start;
* capacitor and inductor companion states (a bank's as members x lanes);
* the ideal line's two incident-wave histories, as steps x lanes;
* the recorded samples, as steps x signals x lanes.

Element values that differ between corners (C, L, ``z0``, ``delay``) are
per-lane arrays.  A step is one vectorised RHS build, the engine's block
solve per corner group, and one vectorised accept.

Every array operation repeats the arithmetic of the scalar element code
(:mod:`repro.circuits.elements`, :mod:`repro.circuits.tline`)
elementwise and in the same order, so each lane holds the bits its
scenario would compute stepped on its own.  An element with no lane form
here (a subclass, an element with instance-level hooks, a source bank,
any other static kind) keeps its own ``stamp_rhs`` / ``accept``, called
once per lane on column views of the lane set's arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.elements import (
    Capacitor,
    CapacitorBank,
    ElementBank,
    Inductor,
    InductorBank,
    Resistor,
    ResistorBank,
    StampContext,
    VoltageSource,
)
from repro.circuits.tline import IdealTransmissionLine
from repro.perf.mna import _is_plain
from repro.waveforms.signals import BitPattern

__all__ = ["LaneSet", "topology_key"]


def topology_key(run) -> tuple:
    """What the runs of one :class:`LaneSet` must have in common."""
    compiled = run.assembler.compiled
    return (
        compiled.n_unknowns,
        tuple(compiled.node_index.items()),
        tuple(compiled.branch_offset.items()),
        tuple(
            (type(el), el.name, el.nodes, tuple(getattr(el, "_branch_names", None) or ()))
            for el in run.assembler.elements
        ),
    )


def _lanes(values) -> np.ndarray:
    """Per-lane values as one array: ``(lanes,)``, or ``(members, lanes)`` for banks."""
    return np.ascontiguousarray(np.array(values, dtype=float).T)


def _node(x: np.ndarray, idx):
    """Node voltages of every lane; 0.0 at ground (``CompiledCircuit.voltage_of``)."""
    return 0.0 if idx is None else x[idx]


class _Ports:
    """Node rows of a two-terminal element or bank, and its port arithmetic.

    A scalar element reads a grounded terminal as 0.0 and subtracts; a bank
    multiplies by its ground masks.  Both are kept as they are, because
    they can differ in the sign of a zero.
    """

    def __init__(self, element, compiled):
        self.bank = isinstance(element, ElementBank)
        if self.bank:
            element._ensure_indices(compiled)
            self.ma, self.mb = element._ma, element._mb
            self.rows_a, self.rows_b = element._ia[self.ma], element._ib[self.mb]
            self.ia_safe, self.ib_safe = element._ia_safe, element._ib_safe
            self.maf, self.mbf = element._maf[:, None], element._mbf[:, None]
        else:
            self.ia = compiled.index_of(element.nodes[0])
            self.ib = compiled.index_of(element.nodes[1])

    def voltages(self, x: np.ndarray):
        """Voltage across every member in every lane (``v_a - v_b``)."""
        if self.bank:
            return x[self.ia_safe] * self.maf - x[self.ib_safe] * self.mbf
        return _node(x, self.ia) - _node(x, self.ib)

    def add_current(self, rhs: np.ndarray, i_ab) -> None:
        """Stamp currents flowing from terminal a to terminal b."""
        if self.bank:
            np.add.at(rhs, self.rows_a, -i_ab[self.ma])
            np.add.at(rhs, self.rows_b, i_ab[self.mb])
            return
        if self.ia is not None:
            rhs[self.ia] += -i_ab
        if self.ib is not None:
            rhs[self.ib] += i_ab


class _SourceLane:
    """A voltage source: its value at every step, computed at the start.

    A :class:`~repro.waveforms.signals.BitPattern` is evaluated once on the
    whole time grid.  On a ``dt * arange`` grid its array branch equals its
    scalar branch bit for bit once the RHS's ``0.0 + v`` is applied, and a
    source's branch row holds nothing else.  Any other callable is called
    once per step, in step order.
    """

    needs_accept = False

    def __init__(self, elements, compiled, times):
        self.row = compiled.branch_index(elements[0].name)
        self.values = np.empty((times.size, len(elements)))
        self.calls = []
        for col, el in enumerate(elements):
            if el._const_value is not None:
                self.values[:, col] = el._const_value
            elif type(el.waveform) is BitPattern:
                self.values[:, col] = el.waveform(times)
            else:
                self.calls.append((col, el.waveform))

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        values = self.values[step]
        for col, waveform in self.calls:
            values[col] = float(waveform(t))
        rhs[self.row] += values


class _CapacitorLane:
    """Companion state of a capacitor, or of a capacitor bank."""

    needs_accept = True

    def __init__(self, elements, compiled, method, dt):
        self.ports = _Ports(elements[0], compiled)
        self.trapezoidal = method == "trapezoidal"
        capacitance = _lanes([el.capacitance for el in elements])
        self.geq = (2.0 if self.trapezoidal else 1.0) * capacitance / dt
        self.v_prev = _lanes([el._v_prev for el in elements])
        self.i_prev = _lanes([el._i_prev for el in elements])

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        if self.trapezoidal:
            i_hist = -self.geq * self.v_prev - self.i_prev
        else:
            i_hist = -self.geq * self.v_prev
        self.ports.add_current(rhs, i_hist)

    def accept(self, x, step, ctxs) -> None:
        v_new = self.ports.voltages(x)
        if self.trapezoidal:
            self.i_prev = self.geq * (v_new - self.v_prev) - self.i_prev
        else:
            self.i_prev = self.geq * (v_new - self.v_prev)
        self.v_prev = v_new


class _InductorLane:
    """Companion state of an inductor, or of an inductor bank."""

    needs_accept = True

    def __init__(self, elements, compiled, method, dt):
        el = elements[0]
        self.ports = _Ports(el, compiled)
        self.rows = el._j if self.ports.bank else compiled.branch_index(el.name)
        self.trapezoidal = method == "trapezoidal"
        inductance = _lanes([e.inductance for e in elements])
        # The scalar element's (-2 L) / dt and the bank's -(2 L / dt) are
        # the same number: negation is exact.
        self.k = -((2.0 if self.trapezoidal else 1.0) * inductance / dt)
        self.i_prev = _lanes([e._i_prev for e in elements])
        self.v_prev = _lanes([e._v_prev for e in elements])

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        if self.trapezoidal:
            rhs[self.rows] += self.k * self.i_prev - self.v_prev
        else:
            rhs[self.rows] += self.k * self.i_prev

    def accept(self, x, step, ctxs) -> None:
        self.i_prev = x[self.rows].copy()
        self.v_prev = self.ports.voltages(x)


class _LineLane:
    """The ideal line's two incident-wave histories, as steps x lanes.

    Row ``s`` of a history holds the wave accepted at step ``s``.  Lanes
    share one time grid, so the interpolation index and offset of
    ``t - Td`` are found once per step for each distinct delay.  The
    arithmetic is ``IdealTransmissionLine._history``'s: ``v_initial`` at
    or before the first sample, the last sample at or after it, the stored
    sample on an exact hit, and otherwise ``np.interp``'s
    ``(fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (x - xp[j]) + fp[j]``.
    """

    needs_accept = True

    def __init__(self, elements, compiled, times):
        el = elements[0]
        self.nodes = [compiled.index_of(node) for node in el.nodes]
        self.j1 = compiled.branch_index(el.name, 0)
        self.j2 = compiled.branch_index(el.name, 1)
        self.z0 = np.array([e.z0 for e in elements])
        self.v_initial = np.array([e.v_initial for e in elements])
        self.times = times
        self.wave1 = np.zeros((times.size, len(elements)))  # v1 + z0 i1
        self.wave2 = np.zeros((times.size, len(elements)))  # v2 + z0 i2
        delays = [e.delay for e in elements]
        distinct = list(dict.fromkeys(delays))
        if len(distinct) == 1:
            self.delays = [(distinct[0], slice(None))]
        else:
            self.delays = [
                (d, np.flatnonzero(np.asarray(delays) == d)) for d in distinct
            ]

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        times = self.times
        for delay, cols in self.delays:
            t_d = t - delay
            if step == 1 or t_d <= times[1]:  # no sample at or before t_d
                e1 = e2 = self.v_initial[cols]
            else:
                if t_d >= times[step - 1]:
                    k, hit = step - 1, True
                else:
                    k = int(np.searchsorted(times, t_d, side="right")) - 1
                    hit = times[k] == t_d
                e1, e2 = self.wave2[k, cols], self.wave1[k, cols]
                if not hit:
                    span, offset = times[k + 1] - times[k], t_d - times[k]
                    e1 = (self.wave2[k + 1, cols] - e1) / span * offset + e1
                    e2 = (self.wave1[k + 1, cols] - e2) / span * offset + e2
            rhs[self.j1, cols] += e1
            rhs[self.j2, cols] += e2

    def accept(self, x, step, ctxs) -> None:
        p1p, p1m, p2p, p2m = self.nodes
        v1 = _node(x, p1p) - _node(x, p1m)
        v2 = _node(x, p2p) - _node(x, p2m)
        self.wave1[step] = v1 + self.z0 * x[self.j1]
        self.wave2[step] = v2 + self.z0 * x[self.j2]


class _HookLane:
    """Any other static element: its own hooks, called once per lane."""

    def __init__(self, elements):
        self.elements = elements
        self.needs_accept = any(el.needs_accept for el in elements)

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        for col, (el, ctx) in enumerate(zip(self.elements, ctxs)):
            el.stamp_rhs(rhs[:, col], ctx)

    def accept(self, x, step, ctxs) -> None:
        for col, (el, ctx) in enumerate(zip(self.elements, ctxs)):
            if el.needs_accept:
                el.accept(x[:, col], ctx)


def _lane(elements, compiled, times, method, dt):
    """The lane form of one element position (``None``: nothing per step)."""
    kind = type(elements[0])
    if not all(_is_plain(el) for el in elements):
        return _HookLane(elements)
    if kind in (Resistor, ResistorBank):
        return None
    if kind is VoltageSource:
        return _SourceLane(elements, compiled, times)
    if kind in (Capacitor, CapacitorBank):
        return _CapacitorLane(elements, compiled, method, dt)
    if kind in (Inductor, InductorBank):
        return _InductorLane(elements, compiled, method, dt)
    if kind is IdealTransmissionLine:
        return _LineLane(elements, compiled, times)
    return _HookLane(elements)


class LaneSet:
    """Begun direct runs of one topology (``runs``, in lane order) as arrays.

    ``rhs`` and ``x`` are ``(unknowns, lanes)`` arrays.  Each step,
    :meth:`begin_step` builds every lane's RHS, the engine solves each
    corner group's columns of ``rhs`` into ``x``, and :meth:`end_step`
    accepts and records every lane.  A quarantined lane keeps being
    stepped on its last good solution; nothing reads it again.
    """

    def __init__(self, runs: Sequence):
        first = runs[0]
        asm = first.assembler
        self.times = first.times
        self.dt, self.method = asm.dt, asm.method
        self.x = np.stack([run.x for run in runs], axis=1)
        self.rhs = np.zeros_like(self.x)
        self.rec_idx = first.rec_idx
        self.recorded = np.empty((self.times.size, self.rec_idx.size, len(runs)))
        self.recorded[0] = self.x[self.rec_idx]
        self.lanes = []
        for elements in zip(*(run.assembler.elements for run in runs)):
            lane = _lane(list(elements), asm.compiled, self.times, self.method, self.dt)
            if lane is not None:
                self.lanes.append(lane)
        self._accepting = [lane for lane in self.lanes if lane.needs_accept]
        #: per-lane compiled circuits, for the step contexts of hook lanes
        self._compiled = (
            [run.assembler.compiled for run in runs]
            if any(isinstance(lane, _HookLane) for lane in self.lanes) else None
        )
        self._ctxs = None

    def begin_step(self, step: int) -> None:
        """Build every lane's right-hand side of ``step`` into ``rhs``."""
        t = float(self.times[step])
        if self._compiled is not None:
            self._ctxs = [
                StampContext(compiled, self.dt, t, self.method)
                for compiled in self._compiled
            ]
        rhs = self.rhs
        rhs.fill(0.0)
        for lane in self.lanes:
            lane.stamp_rhs(rhs, step, t, self._ctxs)

    def end_step(self, step: int) -> None:
        """Accept the solutions in ``x`` and record them."""
        for lane in self._accepting:
            lane.accept(self.x, step, self._ctxs)
        np.take(self.x, self.rec_idx, axis=0, out=self.recorded[step])

    def finish(self, col: int, run) -> None:
        """Hand lane ``col``'s samples to its run, for ``TransientSolver.finish``."""
        run.recorded[:] = self.recorded[:, :, col]
        run.iterations[1:] = 1  # one block solve per step
