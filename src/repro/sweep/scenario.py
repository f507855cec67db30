"""Scenario descriptions for batched transient sweeps.

A *scenario* is one configuration of a parametrised testbench: a bit
pattern, a drive strength and a set of corner values (source/load/line
parameters).  A sweep runs many scenarios of one testbench through a
shared engine context (:mod:`repro.sweep.engine`): scenarios whose
corners leave the static MNA stamps untouched share one assembled matrix
and — for linear circuits — one LU factorization for the whole batch.

Stimulus-only dimensions (``bit_pattern``, ``drive_strength``) never
enter the static stamps: ideal sources stamp incidence rows whose values
are time-only RHS entries, and macromodel elements are dynamic.  Corner
values (resistances, capacitances, line impedance) do change the static
stamps, so scenarios are grouped by their ``corner`` mapping.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Mapping

__all__ = ["Scenario"]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One configuration of a swept testbench.

    Attributes
    ----------
    name:
        Unique label of the scenario within the sweep (keys the results).
    bit_pattern:
        Stimulus bit pattern (``"0101..."``); ``None`` runs the sweep
        link's own pattern.
    drive_strength:
        Multiplier on the stimulus amplitude (RHS-only, never static).
    corner:
        Overrides of the sweep link's numeric values (e.g.
        ``{"load_resistance": 350.0}``; see
        :func:`repro.sweep.links.scenario_link`).  Scenarios with equal
        corners share static MNA assembly and factorization.
    """

    name: str
    bit_pattern: str | None = None
    drive_strength: float = 1.0
    corner: Mapping[str, float] = dataclasses.field(default_factory=dict)

    def static_key(self) -> Hashable:
        """Key under which this scenario shares static MNA state: its corner."""
        return tuple(sorted((str(k), float(v)) for k, v in self.corner.items()))
