"""Engine-agnostic co-simulation descriptions and result containers.

The experiments of Section 4 compare the *same* physical link — a switching
driver, an interconnect, and a load — across four different simulation
engines (SPICE with transistor-level devices, SPICE with RBF macromodels,
1-D FDTD with RBF macromodels, 3-D FDTD with RBF macromodels).  To make
those comparisons mechanical, every backend returns the same
:class:`SimulationResult` structure and the experiments describe the link
once with a :class:`LinkDescription`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.newton import NewtonStats

__all__ = ["SimulationResult", "LinkDescription", "CURRENT_WAVEFORM_PREFIX"]

#: prefix under which current probes appear in the uniform waveform
#: namespace (shared with :class:`repro.api.result.Result`)
CURRENT_WAVEFORM_PREFIX = "i:"


@dataclasses.dataclass
class SimulationResult:
    """Uniform transient-result container.

    Attributes
    ----------
    times:
        The simulation time axis (seconds).
    voltages:
        Mapping from probe name (e.g. ``"near_end"``, ``"far_end"``) to the
        sampled voltage waveform on ``times``.
    currents:
        Mapping from probe name to the sampled current waveform (may be
        empty for engines that do not expose currents).
    engine:
        Human-readable engine label (``"spice-transistor"``,
        ``"spice-rbf"``, ``"fdtd1d-rbf"``, ``"fdtd3d-rbf"``).
    newton_stats:
        Optional Newton-Raphson statistics collected during the run.
    metadata:
        Free-form dictionary (grid sizes, time steps, wall-clock time...).
    """

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    currents: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    engine: str = ""
    newton_stats: Optional[NewtonStats] = None
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.voltages = {k: np.asarray(v, dtype=float) for k, v in self.voltages.items()}
        self.currents = {k: np.asarray(v, dtype=float) for k, v in self.currents.items()}
        for name, wave in {**self.voltages, **self.currents}.items():
            if wave.shape != self.times.shape:
                raise ValueError(
                    f"waveform '{name}' length {wave.shape} does not match the "
                    f"time axis {self.times.shape}"
                )

    @property
    def dt(self) -> float:
        """Time step of the result (assumes a uniform axis)."""
        if self.times.size < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        """Total simulated time span."""
        if self.times.size < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    def voltage(self, name: str) -> np.ndarray:
        """Probe accessor with a clearer error than a raw ``KeyError``."""
        if name not in self.voltages:
            raise KeyError(
                f"no voltage probe named '{name}'; available: {sorted(self.voltages)}"
            )
        return self.voltages[name]

    def names(self) -> list:
        """Every waveform name, sorted — the uniform-result interface of
        :class:`repro.api.result.Result` (currents are prefixed
        :data:`CURRENT_WAVEFORM_PREFIX`)."""
        return sorted(
            list(self.voltages)
            + [CURRENT_WAVEFORM_PREFIX + k for k in self.currents]
        )

    def waveform(self, name: str) -> np.ndarray:
        """Uniform accessor matching :meth:`repro.api.result.Result.waveform`."""
        if name.startswith(CURRENT_WAVEFORM_PREFIX):
            key = name[len(CURRENT_WAVEFORM_PREFIX):]
            if key in self.currents:
                return self.currents[key]
        elif name in self.voltages:
            return self.voltages[name]
        raise KeyError(f"no waveform named {name!r}; available: {self.names()}")

    def resampled_voltage(self, name: str, new_times: np.ndarray) -> np.ndarray:
        """A probe waveform linearly interpolated onto another time axis.

        Different engines run at different time steps; interpolating onto a
        common axis is how the experiment harness computes cross-engine
        deviation metrics.
        """
        new_times = np.asarray(new_times, dtype=float)
        return np.interp(new_times, self.times, self.voltage(name))


@dataclasses.dataclass(frozen=True)
class LinkDescription:
    """Engine-agnostic description of a driver → interconnect → load link.

    This mirrors the paper's validation structure: a transmission line of
    characteristic impedance ``z0`` and one-way delay ``delay`` driven at
    the near end by a switching driver and loaded at the far end either by
    a parallel RC or by a receiver macromodel.

    Attributes
    ----------
    z0:
        Characteristic impedance of the interconnect (ohms).
    delay:
        One-way propagation delay of the interconnect (seconds).
    bit_pattern:
        The logic pattern forced by the driver (the paper uses ``"010"``).
    bit_time:
        Bit duration in seconds (2 ns in the paper).
    duration:
        Total simulated time (seconds).
    load:
        Far-end load: ``"rc"`` for the 1 pF // 500 ohm load of Figure 4 or
        ``"receiver"`` for the RBF receiver of Figure 5.
    load_resistance, load_capacitance:
        Parameters of the RC load (ignored for the receiver load).
    segments:
        Interconnect discretisation of the circuit-level engines: 0 (the
        default) keeps the paper's ideal method-of-characteristics line;
        ``N > 0`` replaces it with an ``N``-section lumped LC ladder of the
        same ``z0``/``delay`` (:func:`repro.circuits.ladder.add_lc_ladder`)
        — ~2N extra MNA unknowns, the system-scale workload of the sparse
        solver backend.  The field engines ignore it.
    """

    z0: float = 131.0
    delay: float = 0.4e-9
    bit_pattern: str = "010"
    bit_time: float = 2e-9
    duration: float = 5e-9
    load: str = "rc"
    load_resistance: float = 500.0
    load_capacitance: float = 1e-12
    segments: int = 0

    def __post_init__(self):
        if self.load not in ("rc", "receiver"):
            raise ValueError("load must be 'rc' or 'receiver'")
        if self.z0 <= 0 or self.delay <= 0 or self.bit_time <= 0 or self.duration <= 0:
            raise ValueError("z0, delay, bit_time and duration must be positive")
        if not isinstance(self.segments, int) or self.segments < 0:
            raise ValueError("segments must be a non-negative integer")
