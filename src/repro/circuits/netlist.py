"""Circuit container and node bookkeeping.

A :class:`Circuit` is a flat collection of elements connected between named
nodes.  The ground node is the string ``"0"`` (also exported as
:data:`GROUND`) and is excluded from the unknown vector.  Elements that need
an extra branch-current unknown (voltage sources, inductors, transmission
line ports) declare how many they require and receive a contiguous offset
when the circuit is compiled for simulation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["GROUND", "Circuit"]

GROUND = "0"


class Circuit:
    """A named collection of circuit elements.

    Example
    -------
    >>> from repro.circuits import Circuit, Resistor, VoltageSource
    >>> ckt = Circuit("divider")
    >>> ckt.add(VoltageSource("vin", "in", "0", lambda t: 1.0))
    >>> ckt.add(Resistor("r1", "in", "out", 1e3))
    >>> ckt.add(Resistor("r2", "out", "0", 1e3))
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.elements: List[object] = []
        self._element_names: set[str] = set()

    def add(self, element) -> None:
        """Add an element; element names must be unique within the circuit."""
        name = getattr(element, "name", None)
        if not name:
            raise ValueError("every element must have a non-empty 'name'")
        if name in self._element_names:
            raise ValueError(f"duplicate element name: {name!r}")
        self._element_names.add(name)
        self.elements.append(element)

    def element(self, name: str):
        """Look up an element by name."""
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(f"no element named {name!r}")

    def node_names(self) -> List[str]:
        """All node names appearing in the circuit, ground excluded, sorted."""
        nodes = set()
        for el in self.elements:
            nodes.update(el.nodes)
        nodes.discard(GROUND)
        return sorted(nodes)

    def compile(self) -> "CompiledCircuit":
        """Freeze the node/branch numbering for simulation."""
        return CompiledCircuit(self)


class CompiledCircuit:
    """Node/branch index assignment for a circuit.

    The unknown vector is ``[node voltages..., branch currents...]``; node
    indices follow the sorted node-name order and branch offsets follow the
    element insertion order.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.node_index: Dict[str, int] = {
            name: k for k, name in enumerate(circuit.node_names())
        }
        self.n_nodes = len(self.node_index)
        offset = self.n_nodes
        self.branch_offset: Dict[str, int] = {}
        for el in circuit.elements:
            n_branch = getattr(el, "n_branch_currents", 0)
            if n_branch:
                self.branch_offset[el.name] = offset
                offset += n_branch
        self.n_unknowns = offset
        #: node-diagonal index array for the vectorised ``GMIN`` stamp
        self.node_diagonal = np.arange(self.n_nodes)

    def index_of(self, node: str) -> int | None:
        """Index of a node in the unknown vector, or ``None`` for ground."""
        if node == GROUND:
            return None
        try:
            return self.node_index[node]
        except KeyError as exc:
            raise KeyError(f"unknown node {node!r}") from exc

    def branch_index(self, element_name: str, k: int = 0) -> int:
        """Index of the ``k``-th branch current of an element."""
        return self.branch_offset[element_name] + k

    def voltage_of(self, x, node: str) -> float:
        """Node voltage extracted from an unknown vector (0 for ground)."""
        idx = self.index_of(node)
        return 0.0 if idx is None else float(x[idx])
