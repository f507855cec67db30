"""Failure taxonomy, health telemetry and retry policies of the solver stack.

The paper's observation that the Newton "iterations required for
convergence at each time iteration are very few" is an *expectation*, not
a guarantee: a badly-conditioned corner, an aggressive time step or a
hardware-level fault can produce a non-converged step, a singular
factorization or a NaN-poisoned solve.  Before the solver stack can run
unattended at scale, every such event must be (a) classified, (b) counted
and (c) either recovered or reported — never silently committed.

This package is that contract:

* :class:`SolveFailure` — one structured failure record: its
  :data:`kind <FAILURE_KINDS>` (``non_convergence`` / ``singular_matrix``
  / ``nan_inf`` / ``backend_error``), the step index and scenario it hit,
  the residual magnitude, and free-form context;
* :class:`RunHealth` — the per-run accumulator every solver tier writes
  into, surfaced as ``Result.perf_stats["health"]`` and by the CLI;
* :class:`RetryPolicy` — the bounded-retry/graceful-degradation settings
  of :meth:`repro.circuits.transient.TransientSolver.step_once`: rewind
  the failed step, re-run (clears transient faults bit-identically), then
  halve ``dt`` locally and boost the Newton damping;
* the typed exceptions (:class:`SolverError` and its kind-specific
  subclasses) raised under the default strict policy, each carrying its
  :class:`SolveFailure`;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (``REPRO_FAULT_PLAN``) the recovery paths are tested with.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

__all__ = [
    "FAILURE_KINDS",
    "NON_CONVERGENCE",
    "SINGULAR_MATRIX",
    "NAN_INF",
    "BACKEND_ERROR",
    "SolveFailure",
    "RunHealth",
    "RetryPolicy",
    "SolverError",
    "NonConvergenceError",
    "SingularMatrixError",
    "NanInfError",
    "BackendError",
    "error_for",
]

# -- the taxonomy -----------------------------------------------------------

#: a Newton loop that hit its iteration cap without meeting the tolerances
NON_CONVERGENCE = "non_convergence"
#: a factorization/solve that found the system singular or ill-conditioned
SINGULAR_MATRIX = "singular_matrix"
#: a non-finite value (NaN/Inf) in a candidate solution or residual
NAN_INF = "nan_inf"
#: an unexpected error raised by a linear-solver backend
BACKEND_ERROR = "backend_error"

FAILURE_KINDS = (NON_CONVERGENCE, SINGULAR_MATRIX, NAN_INF, BACKEND_ERROR)


@dataclasses.dataclass(frozen=True)
class SolveFailure:
    """One structured solver-failure record.

    Attributes
    ----------
    kind:
        One of :data:`FAILURE_KINDS`.
    step:
        Time-step index the failure occurred at (``None`` when it is not
        tied to a step, e.g. a static factorization).
    scenario:
        Scenario label of a sweep member (``None`` for single runs).
    residual:
        Magnitude of the convergence residual at the failure, when known.
    message:
        Human-readable one-liner.
    context:
        Free-form extra detail (site, backend name, iteration count, ...).
    """

    kind: str
    step: Optional[int] = None
    scenario: Optional[str] = None
    residual: Optional[float] = None
    message: str = ""
    context: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; expected one of {FAILURE_KINDS}"
            )
        object.__setattr__(self, "context", dict(self.context))

    def to_dict(self) -> dict:
        """JSON-serialisable form (what travels in perf_stats/results)."""
        return {
            "kind": self.kind,
            "step": self.step,
            "scenario": self.scenario,
            "residual": None if self.residual is None else float(self.residual),
            "message": self.message,
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveFailure":
        """Rebuild a record from its :meth:`to_dict` form (shard merges)."""
        return cls(
            kind=data["kind"],
            step=data.get("step"),
            scenario=data.get("scenario"),
            residual=data.get("residual"),
            message=data.get("message", ""),
            context=data.get("context") or {},
        )

    def describe(self) -> str:
        """The one-line form the CLI prints on a failed job."""
        parts = [f"[{self.kind}]"]
        if self.scenario is not None:
            parts.append(f"scenario={self.scenario}")
        if self.step is not None:
            parts.append(f"step={self.step}")
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3e}")
        if self.message:
            parts.append(self.message)
        return " ".join(parts)


# -- typed errors -----------------------------------------------------------

class SolverError(RuntimeError):
    """Base of every typed solver failure; carries its :class:`SolveFailure`."""

    def __init__(self, failure: SolveFailure):
        super().__init__(failure.describe())
        self.failure = failure

    def __reduce__(self):
        # ``args`` holds only the message; rebuild from the record, so the
        # typed error crosses a process-pool boundary intact.
        return type(self), (self.failure,)


class NonConvergenceError(SolverError):
    """A step's Newton loop hit the iteration cap (strict policy)."""


class SingularMatrixError(SolverError):
    """A singular system that no fallback could solve."""


class NanInfError(SolverError):
    """A non-finite candidate solution that retries could not clear."""


class BackendError(SolverError):
    """A linear-solver backend raised unexpectedly."""


_ERROR_OF = {
    NON_CONVERGENCE: NonConvergenceError,
    SINGULAR_MATRIX: SingularMatrixError,
    NAN_INF: NanInfError,
    BACKEND_ERROR: BackendError,
}


def error_for(failure: SolveFailure) -> SolverError:
    """The typed exception matching a failure record's kind."""
    return _ERROR_OF[failure.kind](failure)


# -- retry policy -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with graceful degradation for a failed time step.

    Jobs select it declaratively through ``engine.max_retries`` (CLI:
    ``--max-retries``), which builds ``RetryPolicy(max_retries=N)`` with
    the defaults below; in-process callers pass a fully-tuned policy via
    ``TransientOptions(retry_policy=...)``.

    The retry ladder of :meth:`~repro.circuits.transient.TransientSolver.step_once`:

    1. the first retry rewinds the step and re-runs it unchanged — a
       transient fault (cleared cache, consumed injected fault) recovers
       **bit-identically** to a fault-free run;
    2. further retries (``dt_halving``) advance the same interval in
       ``2, 4, ...`` sub-steps of ``dt/2, dt/4, ...`` through a robust
       dense assembly, re-stamping the dynamic contributions per sub-step
       and boosting the Newton damping by ``damping_boost`` per retry.

    Singular/ill-conditioned factorizations additionally fall back
    sparse → dense inside the :class:`~repro.perf.backends.LinearSolverBackend`
    seam regardless of the policy; the policy bounds how often a whole
    step is re-attempted.

    Attributes
    ----------
    max_retries:
        Retries per failing step (0 disables retrying — the strict
        default of :class:`~repro.circuits.transient.TransientOptions`).
    dt_halving:
        Allow the local-sub-step degradation from the second retry on.
        Skipped automatically for circuits holding elements that bind the
        time step at construction (``supports_local_dt = False``).
    damping_boost:
        Multiplier (< 1) applied to the per-iteration voltage-update cap
        ``max_delta_v`` on every retry.
    """

    max_retries: int = 2
    dt_halving: bool = True
    damping_boost: float = 0.5

    def __post_init__(self):
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(f"max_retries must be a non-negative int, got {self.max_retries!r}")
        if not 0.0 < self.damping_boost <= 1.0:
            raise ValueError(f"damping_boost must lie in (0, 1], got {self.damping_boost!r}")


# -- health accumulator -----------------------------------------------------

#: at most this many full failure records are kept per accumulator
MAX_RECORDED_EVENTS = 32


class RunHealth:
    """Mutable health telemetry of one solver run (or an aggregate of many).

    Every tier writes here — the transient solver (non-converged commits,
    retries), the linear-solver backends (singular fallbacks), the shared
    sweep context (block-solve fallbacks) — and the aggregate is surfaced
    as ``Result.perf_stats["health"]`` via :meth:`to_dict`.
    """

    __slots__ = (
        "failure_counts", "events", "nonconverged_commits", "retries",
        "retried_steps", "recovered_steps", "dt_halvings", "damping_boosts",
        "backend_fallbacks",
    )

    def __init__(self):
        self.failure_counts: dict[str, int] = {}
        self.events: list[SolveFailure] = []
        #: steps committed without convergence (policy ``warn``/``ignore``)
        self.nonconverged_commits = 0
        #: step re-attempts performed by the retry policy
        self.retries = 0
        #: distinct steps that needed at least one retry
        self.retried_steps = 0
        #: retried steps that ultimately converged
        self.recovered_steps = 0
        #: local dt-halving excursions taken
        self.dt_halvings = 0
        #: damping boosts applied on retries
        self.damping_boosts = 0
        #: solves completed by a degraded backend path (sparse→dense,
        #: cached-LU→fresh dense, dense→least-squares)
        self.backend_fallbacks = 0

    # -- recording --------------------------------------------------------
    def record(self, failure: SolveFailure) -> SolveFailure:
        """Count a failure (keeping the first few full records) and return it."""
        self.failure_counts[failure.kind] = self.failure_counts.get(failure.kind, 0) + 1
        if len(self.events) < MAX_RECORDED_EVENTS:
            self.events.append(failure)
        return failure

    def note_backend_fallback(self, failure: SolveFailure | None = None) -> None:
        """Count a degraded-but-successful backend solve.

        The optional failure detail is kept in :attr:`events` but NOT
        counted in :attr:`failure_counts` — the solve completed, so the run
        is degraded, not failed (:attr:`ok` stays ``True``).
        """
        self.backend_fallbacks += 1
        if failure is not None and len(self.events) < MAX_RECORDED_EVENTS:
            self.events.append(failure)

    # -- reading ----------------------------------------------------------
    @property
    def total_failures(self) -> int:
        return sum(self.failure_counts.values())

    @property
    def ok(self) -> bool:
        """No failure of any kind was observed (clean run)."""
        return self.total_failures == 0 and self.nonconverged_commits == 0

    def merge(self, other: "RunHealth") -> "RunHealth":
        """Fold another accumulator into this one (sweep aggregation)."""
        for kind, count in other.failure_counts.items():
            self.failure_counts[kind] = self.failure_counts.get(kind, 0) + count
        room = MAX_RECORDED_EVENTS - len(self.events)
        if room > 0:
            self.events.extend(other.events[:room])
        self.nonconverged_commits += other.nonconverged_commits
        self.retries += other.retries
        self.retried_steps += other.retried_steps
        self.recovered_steps += other.recovered_steps
        self.dt_halvings += other.dt_halvings
        self.damping_boosts += other.damping_boosts
        self.backend_fallbacks += other.backend_fallbacks
        return self

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunHealth":
        """Rebuild an accumulator from its :meth:`to_dict` summary.

        Lets health telemetry that crossed a process boundary as JSON (a
        shard worker's ``perf_stats["health"]``) be re-:meth:`merge`\\ d
        into an aggregate on the parent side.
        """
        health = cls()
        health.failure_counts = dict(data.get("failure_counts") or {})
        health.events = [
            SolveFailure.from_dict(event) for event in data.get("events") or []
        ]
        health.nonconverged_commits = int(data.get("nonconverged_commits", 0))
        health.retries = int(data.get("retries", 0))
        health.retried_steps = int(data.get("retried_steps", 0))
        health.recovered_steps = int(data.get("recovered_steps", 0))
        health.dt_halvings = int(data.get("dt_halvings", 0))
        health.damping_boosts = int(data.get("damping_boosts", 0))
        health.backend_fallbacks = int(data.get("backend_fallbacks", 0))
        return health

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``Result.perf_stats["health"]``)."""
        return {
            "ok": self.ok,
            "failure_counts": dict(sorted(self.failure_counts.items())),
            "nonconverged_commits": self.nonconverged_commits,
            "retries": self.retries,
            "retried_steps": self.retried_steps,
            "recovered_steps": self.recovered_steps,
            "dt_halvings": self.dt_halvings,
            "damping_boosts": self.damping_boosts,
            "backend_fallbacks": self.backend_fallbacks,
            "events": [event.to_dict() for event in self.events],
        }

    def summary(self) -> str:
        """Compact one-liner for CLI/report output."""
        if self.ok:
            base = "ok"
        else:
            base = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.failure_counts.items())
            ) or "degraded"
            if self.nonconverged_commits:
                base += f", nonconverged_commits={self.nonconverged_commits}"
        extras = []
        if self.retries:
            extras.append(f"retries={self.retries} (recovered {self.recovered_steps})")
        if self.backend_fallbacks:
            extras.append(f"backend_fallbacks={self.backend_fallbacks}")
        return base + ("; " + ", ".join(extras) if extras else "")
