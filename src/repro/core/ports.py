"""Lumped port terminations shared by every solver backend.

The paper inserts lumped elements — ordinary R/C loads as well as the RBF
macromodels — inside the FDTD mesh.  Every solver backend in this
repository (MNA circuit, 1-D FDTD and 3-D FDTD) interacts with a
termination through the same small interface:

* ``current_and_dcurrent(v, t) -> (i, g)`` — the element current for a
  *candidate* port voltage at the current time step, using whatever
  internal state the element carries, and its analytic derivative (for
  Newton-Raphson), from one evaluation;
* ``commit(v, t)`` — accept the solver's converged voltage for this step
  and advance the internal state to the next step, returning the committed
  current;
* ``reset(v0, i0, t0)`` — restart the state before a new transient run.

A macromodel port is one
:class:`~repro.core.resampling.ResampledPortModel` on all three engines:
the MNA element, the 1-D line ends and the 3-D lumped sites hold the same
object.  The linear loads here have a constant conductance ``g``, so a
host solver folds them in closed form.

The sign convention is that the current flows *into* the termination (out
of the interconnect).

A macromodel port and the RC load are built for one time step; every host
checks it against its own with :func:`check_port_step`.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "LumpedTermination",
    "OpenTermination",
    "ResistorTermination",
    "ResistiveSourceTermination",
    "ParallelRCTermination",
    "check_port_step",
]

#: relative difference between a termination's time step and its host's
#: beyond which the host rejects the termination
STEP_RTOL = 1e-12


class LumpedTermination:
    """Base class of all lumped terminations (see module docstring)."""

    #: True when the current is a nonlinear function of ``v`` and the host
    #: solver must iterate; linear terminations are folded in closed form.
    nonlinear: bool = False

    #: The time step the termination is built for, which its host must step
    #: at (:func:`check_port_step`); ``None`` when it fits every step.
    dt: Optional[float] = None

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        """Element current for candidate voltage ``v`` at time ``t``, and its ``d/dv``."""
        raise NotImplementedError

    def commit(self, v: float, t: float) -> float:
        """Accept ``v`` for this step, advance state, return the current."""
        i = self.current_and_dcurrent(v, t)[0]
        self.last_current = i
        self.last_voltage = v
        return i

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        """Reset any internal state before a new transient run."""
        self.last_current = float(i0)
        self.last_voltage = float(v0)

    #: Current committed at the previous step (used by trapezoidal couplings).
    last_current: float = 0.0
    last_voltage: float = 0.0


class OpenTermination(LumpedTermination):
    """An open circuit (zero current for any voltage)."""

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        return 0.0, 0.0


class ResistorTermination(LumpedTermination):
    """A linear resistor to the reference conductor."""

    def __init__(self, resistance: float):
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        self.resistance = float(resistance)
        self.reset()

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        return v / self.resistance, 1.0 / self.resistance


class ResistiveSourceTermination(LumpedTermination):
    """A Thevenin source: ideal voltage waveform behind a series resistance.

    Used for the matched 50 ohm terminations of the PCB example and as a
    simple linear stand-in for a driver.
    """

    def __init__(self, resistance: float, source: Optional[Callable[[float], float]] = None):
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        self.resistance = float(resistance)
        self.source = source
        self.reset()

    def _vs(self, t: float) -> float:
        return float(self.source(t)) if self.source is not None else 0.0

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        return (v - self._vs(t)) / self.resistance, 1.0 / self.resistance


class ParallelRCTermination(LumpedTermination):
    """The paper's Figure 4 load: a capacitor in parallel with a resistor.

    The capacitor current is discretised with a backward difference at the
    host solver's time step, ``i_C^{n+1} = C (v^{n+1} - v^n) / dt``, so the
    element must be constructed with the solver ``dt`` and committed once
    per step.
    """

    def __init__(self, resistance: float, capacitance: float, dt: float, v0: float = 0.0):
        if resistance <= 0 or capacitance < 0 or dt <= 0:
            raise ValueError("resistance and dt must be positive, capacitance >= 0")
        self.resistance = float(resistance)
        self.capacitance = float(capacitance)
        self.dt = float(dt)
        self.reset(v0=v0)

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        super().reset(v0=v0, i0=i0, t0=t0)
        self._v_prev = float(v0)

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        return (
            v / self.resistance + self.capacitance * (v - self._v_prev) / self.dt,
            1.0 / self.resistance + self.capacitance / self.dt,
        )

    def commit(self, v: float, t: float) -> float:
        i = super().commit(float(v), t)
        self._v_prev = float(v)
        return i


def check_port_step(termination: LumpedTermination, dt: float, host: str) -> None:
    """Raise ``ValueError`` when ``termination`` was built for another time step.

    A macromodel port resamples with ``tau = dt / Ts`` and the RC load
    differentiates with ``dt``, both fixed at construction, so a host
    stepping at another ``dt`` would run them at the wrong step.  A
    termination whose ``dt`` is ``None`` (resistors, sources) fits every
    host.
    """
    port_dt = termination.dt
    if port_dt is not None and abs(port_dt - dt) > STEP_RTOL * dt:
        raise ValueError(
            f"{host} steps at dt = {dt!r} s, but its termination was built "
            f"for dt = {port_dt!r} s"
        )
