"""Result container of a scenario sweep."""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.circuits.transient import CircuitResult
from repro.sweep.scenario import Scenario
from repro.waveforms.eye import EyeDiagram, eye_diagram

__all__ = ["SweepResult"]


@dataclasses.dataclass
class SweepResult:
    """Waveforms and engine counters of one batched sweep.

    A sweep may complete *partially*: scenarios quarantined by the fault
    isolation layer that also failed their solo retry contribute no
    waveforms and are reported per scenario in :attr:`status` /
    :attr:`failures`.  Consumers surface that as a degraded-but-usable
    outcome — the CLI exits ``3`` and the service marks the job
    ``failed`` with the partial result still retrievable (see
    ``docs/operations.md``, "Exit codes").

    Attributes
    ----------
    times:
        Common time axis of every scenario (a sweep shares one).
    scenarios:
        The swept scenarios, in run order.
    results:
        Mapping scenario name -> :class:`CircuitResult`.
    perf_stats:
        Aggregated engine counters: shared factorizations, static reuses,
        block solves, lane sets, quarantines and solo retries, health
        telemetry, and the per-scenario assembler stats.
    wall_time:
        Wall-clock duration of the whole sweep in seconds.
    status:
        Per-scenario outcome: ``"ok"`` (clean), ``"recovered"`` (failed in
        the batch but completed on its solo retry — its waveforms
        are present and valid), or ``"failed"`` (no result; see
        :attr:`failures`).  A sweep predating fault isolation may leave
        this empty, in which case every scenario with a result is ``"ok"``.
    failures:
        Mapping scenario name -> structured failure record
        (:meth:`repro.resilience.SolveFailure.to_dict`) for every
        ``"failed"`` scenario of a partial sweep.
    """

    times: np.ndarray
    scenarios: List[Scenario]
    results: Dict[str, CircuitResult]
    perf_stats: dict = dataclasses.field(default_factory=dict)
    wall_time: float = 0.0
    status: Dict[str, str] = dataclasses.field(default_factory=dict)
    failures: Dict[str, dict] = dataclasses.field(default_factory=dict)

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios in the sweep."""
        return len(self.scenarios)

    # -- partial-sweep accessors ------------------------------------------
    def status_of(self, name: str) -> str:
        """Outcome of one scenario (``"ok"`` / ``"recovered"`` / ``"failed"``)."""
        if name in self.status:
            return self.status[name]
        return "ok" if name in self.results else "failed"

    @property
    def ok(self) -> bool:
        """Whether every scenario produced a result."""
        return all(sc.name in self.results for sc in self.scenarios)

    @property
    def failed_scenarios(self) -> List[str]:
        """Names of the scenarios that produced no result, in run order."""
        return [sc.name for sc in self.scenarios if sc.name not in self.results]

    @property
    def completed_scenarios(self) -> List[str]:
        """Names of the scenarios that produced a result, in run order."""
        return [sc.name for sc in self.scenarios if sc.name in self.results]

    def failure_of(self, name: str) -> dict | None:
        """Structured failure record of a failed scenario (else ``None``)."""
        return self.failures.get(name)

    def scenario(self, name: str) -> Scenario:
        """Scenario lookup by name."""
        for sc in self.scenarios:
            if sc.name == name:
                return sc
        raise KeyError(f"no scenario named {name!r}; available: {[s.name for s in self.scenarios]}")

    def result(self, name: str) -> CircuitResult:
        """Per-scenario transient result."""
        try:
            return self.results[name]
        except KeyError as exc:
            failure = self.failures.get(name)
            if failure is not None:
                raise KeyError(
                    f"scenario {name!r} failed ({failure.get('kind')}: "
                    f"{failure.get('message')}); completed scenarios: "
                    f"{sorted(self.results)}"
                ) from exc
            raise KeyError(
                f"no result for scenario {name!r}; available: {sorted(self.results)}"
            ) from exc

    def voltage(self, name: str, node: str) -> np.ndarray:
        """Node-voltage waveform of one scenario."""
        return self.result(name).voltage(node)

    def eye(
        self, name: str, node: str, bit_time: float, t_start: float = 0.0
    ) -> EyeDiagram:
        """Fold one scenario's node waveform into an eye diagram."""
        result = self.result(name)
        return eye_diagram(result.times, result.voltage(node), bit_time, t_start=t_start)

    def amortised_wall_time(self) -> float:
        """Mean wall-clock cost per scenario of the batched sweep."""
        if not self.scenarios:
            return 0.0
        return self.wall_time / len(self.scenarios)
