"""Parameterised ladder / mesh netlist generators.

The paper's validation link is tiny (a handful of MNA unknowns), which is
exactly what the dense fast path is tuned for — but the macromodels only
pay off at *system* scale, where the interconnect is no longer one ideal
two-port.  This module generates the large structured netlists that
exercise the sparse solver backend (:mod:`repro.perf.backends`):

* :func:`add_lc_ladder` — an ``N``-section lumped LC discretisation of a
  lossless line with characteristic impedance ``z0`` and total delay
  ``delay`` (per section ``L = z0*delay/N``, ``C = delay/(z0*N)``).  Used
  by the link testbenches when ``LinkDescription.segments > 0`` and by the
  ``link.segments`` job-spec option: the same link, but with ``~2N`` MNA
  unknowns instead of an ideal delay element.
* :func:`rc_ladder_circuit` / :func:`rc_grid_circuit` — driven RC ladder
  and 2-D RC mesh benchmarks of parameterised size, the workloads of
  ``benchmarks/bench_sparse.py``.

All generators emit vectorised element banks
(:class:`~repro.circuits.elements.ElementBank`) by default — inductors and
capacitors of a ladder land in one :class:`InductorBank` / one
:class:`CapacitorBank`, mesh resistors in one :class:`ResistorBank` — so
per-step Python element loops do not mask the solve costs.  ``banked=False``
emits the equivalent scalar elements instead, the differential-test and
benchmark baseline: every solver path stamps a netlist as written, so the
scalar form pays one Python call per element per step.
Every return value is an ordinary :class:`~repro.circuits.netlist.Circuit`,
so all solver paths (naive reference, dense fast, sparse fast) run them
unchanged.
"""

from __future__ import annotations

from repro.circuits.elements import (
    Capacitor,
    CapacitorBank,
    Inductor,
    InductorBank,
    Resistor,
    ResistorBank,
    VoltageSource,
)
from repro.circuits.netlist import GROUND, Circuit

__all__ = [
    "CapacitorBank",
    "add_lc_ladder",
    "add_link_interconnect",
    "rc_ladder_circuit",
    "rc_grid_circuit",
]


def add_lc_ladder(
    circuit: Circuit,
    name: str,
    node_a: str,
    node_b: str,
    z0: float,
    delay: float,
    segments: int,
    v_initial: float = 0.0,
    banked: bool = True,
) -> None:
    """Add an ``segments``-section LC ladder between ``node_a`` and ``node_b``.

    Each section is a series inductor followed by a shunt capacitor to
    ground; the totals reproduce the line's characteristic impedance
    ``z0 = sqrt(L_tot/C_tot)`` and one-way delay ``delay = sqrt(L_tot*C_tot)``.
    ``v_initial`` pre-charges the shunt capacitors (the lumped equivalent
    of the ideal line's initial steady state; section currents start at 0).

    With ``banked=True`` (default) the inductors land in one
    ``InductorBank`` named ``{name}_l`` (branch currents ``{name}_l[k]``)
    and the capacitors in one ``CapacitorBank`` named ``{name}_c``;
    ``banked=False`` emits scalar ``{name}_l{k}`` / ``{name}_c{k}``
    elements with identical arithmetic.
    """
    if segments < 1:
        raise ValueError("segments must be at least 1")
    if z0 <= 0 or delay <= 0:
        raise ValueError("z0 and delay must be positive")
    l_section = z0 * delay / segments
    c_section = delay / (z0 * segments)
    l_nodes_a, l_nodes_b, c_nodes = [], [], []
    prev = node_a
    for k in range(segments):
        mid = node_b if k == segments - 1 else f"{name}_n{k + 1}"
        l_nodes_a.append(prev)
        l_nodes_b.append(mid)
        c_nodes.append(mid)
        prev = mid
    if banked:
        circuit.add(InductorBank(f"{name}_l", l_nodes_a, l_nodes_b, l_section))
        circuit.add(CapacitorBank(f"{name}_c", c_nodes, c_section, v0=v_initial))
    else:
        for k in range(segments):
            circuit.add(Inductor(f"{name}_l{k}", l_nodes_a[k], l_nodes_b[k], l_section))
            circuit.add(
                Capacitor(f"{name}_c{k}", c_nodes[k], GROUND, c_section, v0=v_initial)
            )


def add_link_interconnect(
    circuit: Circuit,
    near: str,
    far: str,
    z0: float,
    delay: float,
    segments: int,
    v_initial: float = 0.0,
) -> None:
    """The validation link's interconnect, shared by every testbench.

    ``segments == 0`` keeps the paper's ideal method-of-characteristics
    line; ``segments > 0`` discretises it into an LC ladder of the same
    impedance/delay (the ``link.segments`` job option).  Always named
    ``"tl"`` so circuit-engine and sweep testbenches stay interchangeable.
    """
    if segments > 0:
        add_lc_ladder(circuit, "tl", near, far, z0, delay, segments,
                      v_initial=v_initial)
    else:
        from repro.circuits.tline import IdealTransmissionLine

        circuit.add(
            IdealTransmissionLine(
                "tl", near, GROUND, far, GROUND, z0, delay, v_initial=v_initial
            )
        )


def rc_ladder_circuit(
    n_sections: int,
    waveform=1.0,
    r_section: float = 1.0,
    c_section: float = 10e-15,
    r_load: float = 500.0,
    banked: bool = True,
) -> tuple[Circuit, str]:
    """A driven RC ladder with ``n_sections`` series-R / shunt-C sections.

    Returns ``(circuit, probe_node)``; the circuit has roughly
    ``n_sections + 2`` MNA unknowns and is purely linear, so a transient
    factors its Jacobian exactly once on every fast backend.  The probe
    sits a short diffusion depth into the ladder (RC diffusion makes the
    far end numerically silent over a short transient).  With
    ``banked=True`` the series resistors form one ``ResistorBank`` and the
    shunt capacitors one ``CapacitorBank``; ``banked=False`` emits the
    equivalent scalar elements (the scalar-stamping baseline).
    """
    if n_sections < 1:
        raise ValueError("n_sections must be at least 1")
    if r_section <= 0 or r_load <= 0:
        raise ValueError("r_section and r_load must be positive (got a "
                         "zero/negative resistance)")
    if c_section <= 0:
        raise ValueError("c_section must be positive (a zero-valued shunt "
                         "capacitor would make the ladder degenerate)")
    circuit = Circuit(f"rc-ladder-{n_sections}")
    circuit.add(VoltageSource("vin", "in", GROUND, waveform))
    r_nodes_a, r_nodes_b, cap_nodes = [], [], []
    prev = "in"
    for k in range(n_sections):
        node = f"n{k + 1}"
        r_nodes_a.append(prev)
        r_nodes_b.append(node)
        cap_nodes.append(node)
        prev = node
    if banked:
        circuit.add(ResistorBank("rbank", r_nodes_a, r_nodes_b, r_section))
        circuit.add(CapacitorBank("cbank", cap_nodes, c_section))
    else:
        for k in range(n_sections):
            circuit.add(Resistor(f"r{k}", r_nodes_a[k], r_nodes_b[k], r_section))
            circuit.add(Capacitor(f"c{k}", cap_nodes[k], GROUND, c_section))
    circuit.add(Resistor("rload", cap_nodes[-1], GROUND, r_load))
    return circuit, f"n{min(n_sections, 20)}"


def rc_grid_circuit(
    rows: int,
    cols: int,
    waveform=1.0,
    r_link: float = 25.0,
    c_node: float = 20e-15,
    r_load: float = 1e3,
    banked: bool = True,
) -> tuple[Circuit, str]:
    """A driven 2-D RC mesh (``rows x cols`` nodes, nearest-neighbour R).

    A power-grid-like workload whose Jacobian has 2-D (pentadiagonal-ish)
    structure — the fill-in-sensitive counterpart to the banded ladder.
    Returns ``(circuit, probe_node)`` with the source at node (0, 0), the
    load at the opposite corner and the probe one diagonal step in from
    the source; roughly ``rows * cols`` MNA unknowns.  ``banked=True``
    (default) emits one ``ResistorBank`` for the whole mesh and one
    ``CapacitorBank`` for the shunt capacitance; ``banked=False`` emits
    scalar elements.
    """
    if rows < 2 or cols < 2:
        raise ValueError("the grid needs at least 2x2 nodes")
    if r_link <= 0 or r_load <= 0:
        raise ValueError("r_link and r_load must be positive (got a "
                         "zero/negative resistance)")
    if c_node <= 0:
        raise ValueError("c_node must be positive (a zero-valued node "
                         "capacitance would make the grid degenerate)")
    circuit = Circuit(f"rc-grid-{rows}x{cols}")

    def node(i: int, j: int) -> str:
        return f"g{i}_{j}"

    circuit.add(VoltageSource("vin", "in", GROUND, waveform))
    r_names, r_nodes_a, r_nodes_b = ["rdrive"], ["in"], [node(0, 0)]
    cap_nodes = []
    for i in range(rows):
        for j in range(cols):
            cap_nodes.append(node(i, j))
            if j + 1 < cols:
                r_names.append(f"rh{i}_{j}")
                r_nodes_a.append(node(i, j))
                r_nodes_b.append(node(i, j + 1))
            if i + 1 < rows:
                r_names.append(f"rv{i}_{j}")
                r_nodes_a.append(node(i, j))
                r_nodes_b.append(node(i + 1, j))
    if banked:
        circuit.add(ResistorBank("rbank", r_nodes_a, r_nodes_b, r_link))
        circuit.add(CapacitorBank("cbank", cap_nodes, c_node))
    else:
        for name, a, b in zip(r_names, r_nodes_a, r_nodes_b):
            circuit.add(Resistor(name, a, b, r_link))
        for n in cap_nodes:
            circuit.add(Capacitor(f"c_{n}", n, GROUND, c_node))
    circuit.add(Resistor("rload", node(rows - 1, cols - 1), GROUND, r_load))
    return circuit, node(1, 1)
