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
* the solution rows read after a step (the recorded signals and the
  line's ports), as steps x rows x lanes.

Element values that differ between corners (C, L, ``z0``, ``delay``) are
per-lane arrays.

A lane set steps in *blocks* of consecutive steps.  An ideal line's
history sources replay the waves launched one delay earlier, so a step
never reads the waves of the steps just before it, and the position of
every step's ``t - Td`` on the time grid is known before the run starts.
A block ends before its first step that reads a wave accepted inside
the block (:attr:`LaneSet.last_read`).  So per block, :meth:`begin_block`
writes the source values and the line's history sources of all its steps
into the branch rows they own, and :meth:`end_block` writes the line's
waves from the rows copied out per step.  Per step only what feeds the
next step runs: :meth:`stamp` adds the companion stamps (capacitors,
inductors, hook lanes, sources with per-step callables), the engine
solves each corner group, and :meth:`accept` accepts the companion lanes
and copies out the rows :meth:`end_block` and the recording read.

Every array operation repeats the arithmetic of the scalar element code
(:mod:`repro.circuits.elements`, :mod:`repro.circuits.tline`)
elementwise and in the same order, and each row of the RHS receives its
additions in the same order, so each lane holds the bits its scenario
would compute stepped on its own.  An element with no lane form here (a
subclass, an element with instance-level hooks, a source bank, any other
static kind) keeps its own ``stamp_rhs`` / ``accept``, called once per
lane per step on column views of the lane set's arrays.
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
    source's branch row holds nothing else, so a block's values are written
    into it in one pass.  Any other callable is called once per step, in
    step order, and added to its lane's row on top of that pass's 0.0.
    """

    def __init__(self, elements, compiled, times):
        self.rows = [compiled.branch_index(elements[0].name)]
        self.values = np.zeros((times.size, len(elements)))
        self.calls = []
        for col, el in enumerate(elements):
            if el._const_value is not None:
                self.values[:, col] = el._const_value
            elif type(el.waveform) is BitPattern:
                self.values[:, col] = el.waveform(times)
            else:
                self.calls.append((col, el.waveform))
        self.needs_stamp = bool(self.calls)
        self.needs_accept = False

    def block_rhs(self, start: int, stop: int) -> tuple:
        """The values of steps ``start .. stop - 1`` for each row in ``rows``."""
        return (self.values[start:stop],)

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        row = rhs[self.rows[0]]
        for col, waveform in self.calls:
            row[col] += float(waveform(t))


class _CapacitorLane:
    """Companion state of a capacitor, or of a capacitor bank."""

    needs_stamp = needs_accept = True

    def __init__(self, elements, compiled, method, dt):
        self.ports = _Ports(elements[0], compiled)
        self.trapezoidal = method == "trapezoidal"
        capacitance = _lanes([el.capacitance for el in elements])
        self.geq = (2.0 if self.trapezoidal else 1.0) * capacitance / dt
        self.neg_geq = -self.geq  # the scalar code's -geq * v, negation first
        self.v_prev = _lanes([el._v_prev for el in elements])
        self.i_prev = _lanes([el._i_prev for el in elements])

    def stamp_rhs(self, rhs, step, t, ctxs) -> None:
        if self.trapezoidal:
            i_hist = self.neg_geq * self.v_prev - self.i_prev
        else:
            i_hist = self.neg_geq * self.v_prev
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

    needs_stamp = needs_accept = True

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
    share one time grid, so for each distinct delay the position of every
    step's ``t - Td`` on it is planned once, with the float operations of
    ``IdealTransmissionLine._history``: ``v_initial`` at or before the
    first sample, the last sample at or after it, the stored sample on an
    exact hit, and otherwise ``np.interp``'s
    ``(fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (x - xp[j]) + fp[j]`` with
    ``j = k``, ``span = xp[k+1] - xp[k]`` and ``offset = x - xp[k]``.
    """

    needs_stamp = needs_accept = False

    def __init__(self, elements, compiled, times, read_pos):
        el = elements[0]
        self.rows = [compiled.branch_index(el.name, 0), compiled.branch_index(el.name, 1)]
        #: positions of the four port nodes (None: ground) and the two
        #: branch currents among the rows copied out per step
        nodes = [compiled.index_of(node) for node in el.nodes]
        self.ports = [None if idx is None else read_pos(idx) for idx in nodes]
        self.currents = [read_pos(row) for row in self.rows]
        self.z0 = np.array([e.z0 for e in elements])
        self.v_initial = np.array([e.v_initial for e in elements])
        self.wave1 = np.zeros((times.size, len(elements)))  # v1 + z0 i1
        self.wave2 = np.zeros((times.size, len(elements)))  # v2 + z0 i2
        delays = [e.delay for e in elements]
        distinct = list(dict.fromkeys(delays))
        if len(distinct) == 1:
            groups = [(distinct[0], slice(None))]
        else:
            groups = [(d, np.flatnonzero(np.asarray(delays) == d)) for d in distinct]
        self.plans = [(cols, _plan(times, delay)) for delay, cols in groups]
        self.last_read = np.max([plan[-1] for _, plan in self.plans], axis=0)

    def block_rhs(self, start: int, stop: int) -> tuple:
        """The history sources ``E1``, ``E2`` of steps ``start .. stop - 1``."""
        return self._incident(self.wave2, start, stop), self._incident(self.wave1, start, stop)

    def _incident(self, wave: np.ndarray, start: int, stop: int) -> np.ndarray:
        """One history interpolated at ``t - Td`` for steps ``start .. stop - 1``."""
        incident = np.empty((stop - start, self.z0.size))
        for cols, (initial, k, interp, span, offset, _) in self.plans:
            initial, k, interp = initial[start:stop], k[start:stop], interp[start:stop]
            e = wave[k][:, cols]
            if interp.any():
                lo, hi = e[interp], wave[k[interp] + 1][:, cols]
                span_i = span[start:stop][interp, None]
                offset_i = offset[start:stop][interp, None]
                e[interp] = (hi - lo) / span_i * offset_i + lo
            e[initial] = self.v_initial[cols]
            incident[:, cols] = e
        return incident

    def end_block(self, reads: np.ndarray, start: int, stop: int) -> None:
        """Accept the waves of steps ``start .. stop - 1`` from their ``reads``."""
        rows = reads[start:stop]
        p1p, p1m, p2p, p2m = (0.0 if pos is None else rows[:, pos] for pos in self.ports)
        j1, j2 = (rows[:, pos] for pos in self.currents)
        self.wave1[start:stop] = (p1p - p1m) + self.z0 * j1
        self.wave2[start:stop] = (p2p - p2m) + self.z0 * j2


def _plan(times: np.ndarray, delay: float):
    """Where every step's ``t - delay`` falls on ``times``.

    Arrays over steps (row 0 unused): ``initial`` (no sample at or before
    it), the sample index ``k``, ``interp`` (between ``k`` and ``k + 1``,
    else an exact hit on ``k``), ``span`` and ``offset``, and the last
    history row the step reads (-1: none).  A step reads rows before its
    own only, and the last row read never decreases.
    """
    n = times.size - 1
    steps = np.arange(n + 1)
    t_d = times - delay
    initial = (steps <= 1) | (t_d <= times[min(1, n)])
    last = t_d >= times[np.maximum(steps - 1, 0)]  # at or after the last sample
    k = np.where(last, steps - 1, np.searchsorted(times, t_d, side="right") - 1)
    k[initial] = 0
    interp = ~(initial | last | (times[k] == t_d))
    span = times[np.minimum(k + 1, n)] - times[k]
    offset = t_d - times[k]
    last_read = np.where(initial, -1, k + interp)
    return initial, k, interp, span, offset, last_read


class _HookLane:
    """Any other static element: its own hooks, called once per lane."""

    needs_stamp = True

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


def _lane(elements, compiled, times, method, dt, read_pos):
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
        return _LineLane(elements, compiled, times, read_pos)
    return _HookLane(elements)


class LaneSet:
    """Begun direct runs of one topology (``runs``, in lane order) as arrays.

    ``rhs`` and ``x`` are ``(unknowns, lanes)`` arrays.  The engine steps a
    lane set in blocks ``[start, stop)`` in which no step reads a line wave
    accepted inside the block (:attr:`last_read`): :meth:`begin_block`,
    then for each step :meth:`stamp`, a solve of each corner group's
    columns of ``rhs`` into ``x`` and :meth:`accept`, then
    :meth:`end_block`.  A quarantined lane keeps being stepped on its last
    good solution; nothing reads it again.
    """

    def __init__(self, runs: Sequence):
        first = runs[0]
        asm = first.assembler
        self.times = first.times
        self.dt, self.method = asm.dt, asm.method
        # Column-major, so that a corner group's columns are one contiguous
        # block for its LAPACK solve.
        self.x = np.asfortranarray(np.stack([run.x for run in runs], axis=1))
        self.rhs = np.zeros_like(self.x)
        #: solution rows copied out after every step: the recorded signals,
        #: then what the lines' waves read
        read_rows = list(first.rec_idx)

        def read_pos(row: int) -> int:
            if row not in read_rows:
                read_rows.append(row)
            return read_rows.index(row)

        self.lanes = []
        for elements in zip(*(run.assembler.elements for run in runs)):
            lane = _lane(list(elements), asm.compiled, self.times, self.method,
                         self.dt, read_pos)
            if lane is not None:
                self.lanes.append(lane)
        self.n_recorded = first.rec_idx.size
        self.read_rows = np.array(read_rows, dtype=np.intp)
        self.reads = np.empty((self.times.size, self.read_rows.size, len(runs)))
        self.x.take(self.read_rows, axis=0, out=self.reads[0])
        #: lanes whose rows are written once per block, and the span of
        #: rows a block holds (zero in the rows between theirs)
        self._blocked = [
            lane for lane in self.lanes if isinstance(lane, (_SourceLane, _LineLane))
        ]
        rows = [row for lane in self._blocked for row in lane.rows]
        self.block_rows = slice(min(rows), max(rows) + 1) if rows else slice(0, 0)
        self._stamping = [lane for lane in self.lanes if lane.needs_stamp]
        self._accepting = [lane for lane in self.lanes if lane.needs_accept]
        self._lines = [lane for lane in self.lanes if isinstance(lane, _LineLane)]
        #: the last line-history row each step reads (-1: none)
        self.last_read = np.max(
            [line.last_read for line in self._lines]
            or [np.full(self.times.size, -1)],
            axis=0,
        )
        #: per-lane compiled circuits, for the step contexts of hook lanes
        self._compiled = (
            [run.assembler.compiled for run in runs]
            if any(isinstance(lane, _HookLane) for lane in self.lanes) else None
        )
        self._ctxs = None
        self._block = None
        self._start = 0

    def begin_block(self, start: int, stop: int) -> None:
        """Write the block-written rows of steps ``start .. stop - 1``."""
        self._start = start
        span = self.block_rows
        self._block = np.zeros((stop - start, span.stop - span.start, self.x.shape[1]))
        for lane in self._blocked:
            for row, values in zip(lane.rows, lane.block_rhs(start, stop)):
                self._block[:, row - span.start] += values

    def stamp(self, step: int) -> None:
        """Build every lane's right-hand side of ``step`` into ``rhs``."""
        rhs = self.rhs
        rhs.fill(0.0)
        rhs[self.block_rows] = self._block[step - self._start]
        if not self._stamping:
            return
        t = float(self.times[step])
        if self._compiled is not None:
            self._ctxs = [
                StampContext(compiled, self.dt, t, self.method)
                for compiled in self._compiled
            ]
        for lane in self._stamping:
            lane.stamp_rhs(rhs, step, t, self._ctxs)

    def accept(self, step: int) -> None:
        """Accept the solutions in ``x`` and copy out the rows read later."""
        for lane in self._accepting:
            lane.accept(self.x, step, self._ctxs)
        self.x.take(self.read_rows, axis=0, out=self.reads[step])

    def end_block(self, start: int, stop: int) -> None:
        """Write the lines' waves of steps ``start .. stop - 1``."""
        for line in self._lines:
            line.end_block(self.reads, start, stop)

    def finish(self, col: int, run) -> None:
        """Hand lane ``col``'s samples to its run, for ``TransientSolver.finish``."""
        run.recorded[:] = self.reads[:, : self.n_recorded, col]
        run.iterations[1:] = 1  # one block solve per step
