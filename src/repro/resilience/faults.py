"""Deterministic fault injection for the solver resilience paths.

Recovery code that only runs when hardware misbehaves is dead code until a
test can *make* it run.  This module plants controlled faults at the
solver's seams — a factorization that reports singular, a Newton iterate
poisoned with NaN, a step that refuses to converge, a backend that raises
— at exact step indices and scenarios, so ``tests/test_resilience.py`` can
drive every branch of the retry/quarantine machinery deterministically.

A *fault plan* is a list of :class:`Fault` entries.  Install one
programmatically::

    from repro.resilience import faults
    with faults.injected(faults.Fault("nan", step=3)):
        solver.run(...)

or declaratively through the ``REPRO_FAULT_PLAN`` environment variable — a
semicolon/comma-separated list of compact entries::

    REPRO_FAULT_PLAN="singular@1; nan@3:scenario=s07; nonconvergence@*x2"

Entry grammar: ``kind@step[xCOUNT][:scenario=NAME]`` where ``kind`` is one
of ``singular`` / ``nan`` / ``nonconvergence`` / ``backend_error``,
``step`` is a 1-based step index or ``*`` (any step), and ``COUNT`` is how
many times the fault fires before burning out (``*`` = unlimited — a
*persistent* fault; the default is 1 — a *transient* fault).

The hot solver paths guard every hook behind ``faults.PLAN is not None``,
so an idle injector costs one attribute load.  Sites that lack natural
access to the step/scenario (the backend seam) read the ambient context
the solver publishes via :func:`set_context` at every step.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from contextlib import contextmanager
from typing import Optional, Sequence

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "PLAN",
    "install_plan",
    "clear_plan",
    "injected",
    "reload_env_plan",
    "parse_plan",
    "set_context",
    "take",
    "active",
    "InjectedBackendError",
]

#: injectable fault kinds and the taxonomy event each one forces
FAULT_KINDS = ("singular", "nan", "nonconvergence", "backend_error")


class InjectedBackendError(RuntimeError):
    """The exception an injected ``backend_error`` fault raises."""


@dataclasses.dataclass
class Fault:
    """One plant: fire ``kind`` at ``step``/``scenario``, ``count`` times.

    ``step`` is the 1-based transient step index (``None`` = any step);
    ``scenario`` restricts the fault to one sweep member (``None`` = any);
    ``count`` is the remaining firing budget (``None`` = unlimited, the
    *persistent* / poisoned-scenario form).
    """

    kind: str
    step: Optional[int] = None
    scenario: Optional[str] = None
    count: Optional[int] = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")

    def matches(self, step: Optional[int], scenario: Optional[str]) -> bool:
        if self.count is not None and self.count <= 0:
            return False
        if self.step is not None and step != self.step:
            return False
        if self.scenario is not None and scenario != self.scenario:
            return False
        return True

    def consume(self) -> None:
        if self.count is not None:
            self.count -= 1


class FaultPlan:
    """An installed set of faults plus the injector bookkeeping."""

    def __init__(self, faults: Sequence[Fault]):
        self.faults = list(faults)
        self.fired: list[dict] = []
        self._lock = threading.Lock()

    def take(self, kind: str, step: Optional[int], scenario: Optional[str]) -> bool:
        """Consume one firing of ``kind`` at (step, scenario), if planted."""
        with self._lock:
            for fault in self.faults:
                if fault.kind == kind and fault.matches(step, scenario):
                    fault.consume()
                    self.fired.append(
                        {"kind": kind, "step": step, "scenario": scenario}
                    )
                    return True
        return False


#: the installed plan, or None (the idle fast-path check every hook uses)
PLAN: FaultPlan | None = None

#: ambient (scenario, step) the solver publishes for the backend seam's
#: fault hooks and health events
_CONTEXT: tuple[Optional[str], Optional[int]] = (None, None)


def active() -> bool:
    """Whether a fault plan is installed."""
    return PLAN is not None


def set_context(scenario: Optional[str], step: Optional[int]) -> None:
    """Publish the scenario/step the solver is currently stepping.

    Called once per step whether or not a plan is installed: by the
    transient solver when it opens a step, and by the sweep engine before
    each step's lane-set block solves, with no scenario (one block solve
    serves a whole corner group).  Backend-level fault hooks take their
    faults by it, and the backends' and the shared static context's health
    events read their step and scenario from it.
    """
    global _CONTEXT
    _CONTEXT = (scenario, step)


def take(kind: str, step: Optional[int] = None, scenario: Optional[str] = None) -> bool:
    """Consume a planted fault; falls back to the ambient context.

    Returns ``False`` instantly when no plan is installed.
    """
    plan = PLAN
    if plan is None:
        return False
    if step is None and scenario is None:
        scenario, step = _CONTEXT
    return plan.take(kind, step, scenario)


def install_plan(plan: FaultPlan | Sequence[Fault] | str) -> FaultPlan:
    """Install a fault plan process-wide (replacing any previous one)."""
    global PLAN
    if isinstance(plan, str):
        plan = FaultPlan(parse_plan(plan))
    elif not isinstance(plan, FaultPlan):
        plan = FaultPlan(list(plan))
    PLAN = plan
    return plan


def clear_plan() -> None:
    """Remove the installed plan (hooks go back to their idle fast path)."""
    global PLAN, _CONTEXT
    PLAN = None
    _CONTEXT = (None, None)


@contextmanager
def injected(*faults: Fault):
    """Context manager installing ``faults`` for the duration of the block."""
    plan = install_plan(FaultPlan(list(faults)))
    try:
        yield plan
    finally:
        clear_plan()


# -- the REPRO_FAULT_PLAN grammar ------------------------------------------

def parse_plan(text: str) -> list[Fault]:
    """Parse the compact ``kind@step[xCOUNT][:scenario=NAME]`` grammar."""
    faults: list[Fault] = []
    for raw in text.replace(",", ";").split(";"):
        entry = raw.strip()
        if not entry:
            continue
        scenario = None
        if ":" in entry:
            entry, _, qualifier = entry.partition(":")
            qualifier = qualifier.strip()
            if not qualifier.startswith("scenario="):
                raise ValueError(
                    f"REPRO_FAULT_PLAN entry {raw.strip()!r}: expected "
                    f"':scenario=NAME', got {qualifier!r}"
                )
            scenario = qualifier[len("scenario="):]
        kind, sep, at = entry.partition("@")
        kind = kind.strip()
        if not sep:
            raise ValueError(
                f"REPRO_FAULT_PLAN entry {raw.strip()!r}: expected 'kind@step'"
            )
        at = at.strip()
        count: Optional[int] = 1
        if "x" in at:
            at, _, count_text = at.partition("x")
            count = None if count_text.strip() == "*" else int(count_text)
        step = None if at.strip() == "*" else int(at)
        faults.append(Fault(kind=kind, step=step, scenario=scenario, count=count))
    return faults


def reload_env_plan() -> FaultPlan | None:
    """(Re-)install the plan described by ``REPRO_FAULT_PLAN``, if any."""
    text = os.environ.get("REPRO_FAULT_PLAN", "").strip()
    if not text:
        clear_plan()
        return None
    return install_plan(FaultPlan(parse_plan(text)))


# A plan present in the environment at import time applies immediately —
# the CLI path: REPRO_FAULT_PLAN="..." python -m repro run job.json.
reload_env_plan()
