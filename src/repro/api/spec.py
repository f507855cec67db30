"""Declarative simulation specs: jobs that exist as *data*.

The ROADMAP north star — serve heavy traffic, shard/queue/cache work
across backends — requires a run to be describable without holding any
live solver object: a :class:`SimulationSpec` is a frozen, validated,
JSON-serialisable description of one job (which engine kind, which link,
which devices, which stimulus or scenario batch, which engine options)
that can be hashed for result caching, shipped to a worker process, and
replayed bit-identically.

The spec layer deliberately reuses the existing on-disk contracts instead
of inventing new ones: embedded device models use the JSON schema of
:mod:`repro.macromodel.serialization`, sweep scenarios mirror
:class:`repro.sweep.scenario.Scenario`, and the link block mirrors
:class:`repro.core.cosim.LinkDescription`.

Round-trip contract
-------------------
``spec_from_dict(spec.to_dict()) == spec`` holds exactly for every valid
spec (numbers survive JSON because Python round-trips floats through
``repr``), and :meth:`SimulationSpec.content_hash` is a stable SHA-256 of
the canonical JSON encoding, less the process-count knobs
``engine.workers``/``engine.shards`` — equal across processes, machines
and dict orderings, so it can key a shared result cache.

``from_dict`` validates *strictly*: unknown keys, unknown kinds and
malformed blocks raise ``ValueError`` with the offending path, in the
spirit of versioned, normalised request contracts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping, Optional, Tuple

__all__ = [
    "FORMAT_VERSION",
    "ENGINE_KINDS",
    "DISTRIBUTION_KINDS",
    "StimulusSpec",
    "DeviceSpec",
    "LinkSpec",
    "StructureSpec",
    "ScenarioSpec",
    "DistributionSpec",
    "StatsSpec",
    "EngineOptions",
    "SimulationSpec",
    "spec_from_dict",
    "load_spec",
]

#: bump when the spec schema changes incompatibly
FORMAT_VERSION = 1

#: the engine kinds a spec may request (see :mod:`repro.api.engines`)
ENGINE_KINDS = ("circuit", "fdtd1d", "fdtd3d", "sweep")

#: the parameter-distribution kinds a ``stats`` block may declare
#: (see :class:`DistributionSpec` and :mod:`repro.sweep.montecarlo`)
DISTRIBUTION_KINDS = ("uniform", "normal", "choice", "pattern")

#: engine options left out of :meth:`SimulationSpec.content_hash`: they
#: pick how many processes run a sweep, and sharded output is
#: bit-identical to single-process output
_UNHASHED_ENGINE_KEYS = ("workers", "shards")

#: default time step of the SPICE-class engines and sweeps when
#: ``engine.dt`` is null — the single source for the adapters
#: (:mod:`repro.api.engines`) and the estimates of :meth:`SimulationSpec.resolved_dt`
DEFAULT_DT = 5e-12


# ---------------------------------------------------------------------------
# strict-dict helpers
# ---------------------------------------------------------------------------

def _require_mapping(data: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def _reject_unknown(data: Mapping[str, Any], allowed: set, where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _as_float(value: Any, where: str) -> float:
    """Strict numeric conversion: malformed values raise ValueError, not TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


def _opt_str(value: Any, where: str) -> Optional[str]:
    return None if value is None else _as_str(value, where)


def _opt_float(value: Any, where: str) -> Optional[float]:
    return None if value is None else _as_float(value, where)


def _opt_bool(value: Any, where: str) -> Optional[bool]:
    if value is None:
        return None
    if not isinstance(value, bool):
        raise ValueError(f"{where}: expected true/false/null, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# spec blocks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StimulusSpec:
    """The logic stimulus driven into the link.

    Attributes
    ----------
    bit_pattern:
        Logic pattern forced by the driver (the paper uses ``"010"``).
        Sweep scenarios may override it per scenario.
    bit_time:
        Bit duration (seconds).
    edge_time:
        Stimulus edge time (seconds); used by the linear-link sweep family
        (RBF drivers take their edges from the identified model).
    """

    bit_pattern: str = "010"
    bit_time: float = 2e-9
    edge_time: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.bit_pattern, str) or not self.bit_pattern \
                or set(self.bit_pattern) - {"0", "1"}:
            raise ValueError(f"bit_pattern must be a non-empty 0/1 string, got {self.bit_pattern!r}")
        object.__setattr__(self, "bit_time", _as_float(self.bit_time, "stimulus.bit_time"))
        object.__setattr__(self, "edge_time", _as_float(self.edge_time, "stimulus.edge_time"))
        if self.bit_time <= 0 or self.edge_time <= 0:
            raise ValueError("bit_time and edge_time must be positive")

    def to_dict(self) -> dict:
        return {
            "bit_pattern": self.bit_pattern,
            "bit_time": self.bit_time,
            "edge_time": self.edge_time,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "stimulus") -> "StimulusSpec":
        data = _require_mapping(data, where)
        _reject_unknown(data, {"bit_pattern", "bit_time", "edge_time"}, where)
        return cls(**{k: data[k] for k in ("bit_pattern", "bit_time", "edge_time") if k in data})


def _device_param_fields() -> dict:
    from repro.macromodel.library import ReferenceDeviceParameters

    return {f.name: f.type for f in dataclasses.fields(ReferenceDeviceParameters)}


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Where the driver/receiver macromodels of a job come from.

    Attributes
    ----------
    source:
        ``"library"`` — the fast analytic reference models
        (:func:`repro.macromodel.library.make_reference_driver_macromodel`);
        ``"identified"`` — the full identification workflow from the
        transistor-level devices (disk-cached);
        ``"inline"`` — models embedded in the spec itself using the JSON
        schema of :mod:`repro.macromodel.serialization` (the fully
        self-contained, worker-shippable form).
    n_centers:
        Gaussian centre count for library/identified sources; ``None``
        keeps each source's own defaults.  An explicit count pins the
        driver submodels and gives the receiver protection submodels half
        of it (min 30), mirroring the identified workflow's convention.
    seed:
        Identification seed (the receiver uses ``seed + 10`` for the
        library source, matching the library defaults at ``seed=0``).
    params:
        Overrides of :class:`~repro.macromodel.library.ReferenceDeviceParameters`
        fields (e.g. ``{"vdd": 2.5}``); keys are validated.
    driver, receiver:
        Embedded macromodel dictionaries (``source="inline"`` only).
    """

    source: str = "library"
    n_centers: Optional[int] = None
    seed: int = 0
    params: Mapping[str, float] = dataclasses.field(default_factory=dict)
    driver: Optional[Mapping[str, Any]] = None
    receiver: Optional[Mapping[str, Any]] = None

    def __post_init__(self):
        if self.source not in ("library", "identified", "inline"):
            raise ValueError(
                f"devices.source must be 'library', 'identified' or 'inline', got {self.source!r}"
            )
        if self.n_centers is not None:
            object.__setattr__(self, "n_centers", _as_int(self.n_centers, "devices.n_centers"))
            if self.n_centers < 1:
                raise ValueError("devices.n_centers must be positive")
        object.__setattr__(self, "seed", _as_int(self.seed, "devices.seed"))
        known = _device_param_fields()
        params = {}
        for key, value in dict(self.params).items():
            if key not in known:
                raise ValueError(
                    f"devices.params: unknown device parameter {key!r}; "
                    f"known: {sorted(known)}"
                )
            where = f"devices.params.{key}"
            params[key] = (
                _as_int(value, where) if key == "dynamic_order" else _as_float(value, where)
            )
        object.__setattr__(self, "params", params)
        if self.source == "inline":
            if self.driver is None and self.receiver is None:
                raise ValueError("devices.source='inline' needs a driver and/or receiver model")
            for label, model in (("driver", self.driver), ("receiver", self.receiver)):
                if model is not None and not isinstance(model, Mapping):
                    raise ValueError(f"devices.{label} must be a serialised macromodel object")
        elif self.driver is not None or self.receiver is not None:
            raise ValueError("embedded driver/receiver models require devices.source='inline'")
        if self.driver is not None:
            object.__setattr__(self, "driver", _freeze_json(self.driver, "devices.driver"))
        if self.receiver is not None:
            object.__setattr__(self, "receiver", _freeze_json(self.receiver, "devices.receiver"))

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "n_centers": self.n_centers,
            "seed": self.seed,
            "params": dict(self.params),
            "driver": self.driver,
            "receiver": self.receiver,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "devices") -> "DeviceSpec":
        data = _require_mapping(data, where)
        _reject_unknown(
            data, {"source", "n_centers", "seed", "params", "driver", "receiver"}, where
        )
        return cls(
            source=data.get("source", "library"),
            n_centers=data.get("n_centers"),
            seed=data.get("seed", 0),
            params=_require_mapping(data.get("params", {}), f"{where}.params"),
            driver=data.get("driver"),
            receiver=data.get("receiver"),
        )


def _freeze_json(data: Any, where: str) -> Any:
    """Normalise an embedded JSON blob (and verify it *is* JSON)."""
    try:
        return json.loads(json.dumps(data))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: not JSON-serialisable: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """The driver → interconnect → load validation link.

    Mirrors :class:`repro.core.cosim.LinkDescription` (the stimulus and
    duration live in their own spec blocks).  ``source_resistance`` is
    used by the linear sweep family only; the 3-D FDTD engine takes its
    interconnect from the structure block and ignores ``z0``/``delay``.
    ``segments`` discretises the circuit-engine interconnect into an
    LC ladder (0 keeps the ideal line; ``N > 0`` adds ~2N MNA unknowns —
    the system-scale workload of ``engine.sparse_mna``).
    """

    z0: float = 131.0
    delay: float = 0.4e-9
    load: str = "rc"
    load_resistance: float = 500.0
    load_capacitance: float = 1e-12
    source_resistance: float = 50.0
    segments: int = 0

    def __post_init__(self):
        if self.load not in ("rc", "receiver"):
            raise ValueError(f"link.load must be 'rc' or 'receiver', got {self.load!r}")
        for name in ("z0", "delay", "load_resistance", "load_capacitance", "source_resistance"):
            object.__setattr__(self, name, _as_float(getattr(self, name), f"link.{name}"))
        for name in ("z0", "delay", "load_resistance", "source_resistance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"link.{name} must be positive")
        if self.load_capacitance < 0:
            raise ValueError("link.load_capacitance must be non-negative")
        object.__setattr__(self, "segments", _as_int(self.segments, "link.segments"))
        if self.segments < 0:
            raise ValueError("link.segments must be non-negative")

    def to_dict(self) -> dict:
        return {
            "z0": self.z0,
            "delay": self.delay,
            "load": self.load,
            "load_resistance": self.load_resistance,
            "load_capacitance": self.load_capacitance,
            "source_resistance": self.source_resistance,
            "segments": self.segments,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "link") -> "LinkSpec":
        data = _require_mapping(data, where)
        allowed = {
            "z0", "delay", "load", "load_resistance", "load_capacitance",
            "source_resistance", "segments",
        }
        _reject_unknown(data, allowed, where)
        return cls(**dict(data))


@dataclasses.dataclass(frozen=True)
class StructureSpec:
    """The discretised 3-D structure of an ``fdtd3d`` job.

    Attributes
    ----------
    name:
        Structure family; currently only ``"validation_line"`` (the
        paper's Figure 3 stacked-strip line).
    scale:
        Length scale in ``(0, 1]``; 1.0 is the paper's 160-cell line
        (same cross-section, shorter delay when scaled down).
    """

    name: str = "validation_line"
    scale: float = 1.0

    def __post_init__(self):
        if self.name != "validation_line":
            raise ValueError(
                f"structure.name must be 'validation_line', got {self.name!r}"
            )
        object.__setattr__(self, "scale", _as_float(self.scale, "structure.scale"))
        if not 0 < self.scale <= 1:
            raise ValueError("structure.scale must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {"name": self.name, "scale": self.scale}

    @classmethod
    def from_dict(cls, data: Any, where: str = "structure") -> "StructureSpec":
        data = _require_mapping(data, where)
        _reject_unknown(data, {"name", "scale"}, where)
        return cls(name=data.get("name", "validation_line"), scale=data.get("scale", 1.0))


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One scenario of a ``sweep`` job (mirrors :class:`repro.sweep.scenario.Scenario`)."""

    name: str
    bit_pattern: Optional[str] = None
    drive_strength: float = 1.0
    corner: Mapping[str, float] = dataclasses.field(default_factory=dict)
    device: Optional[str] = None
    static_group: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        if self.bit_pattern is not None and (
            not isinstance(self.bit_pattern, str) or not self.bit_pattern
            or set(self.bit_pattern) - {"0", "1"}
        ):
            raise ValueError(
                f"scenario {self.name!r}: bit_pattern must be a 0/1 string or null"
            )
        where = f"scenario {self.name!r}"
        object.__setattr__(
            self, "drive_strength", _as_float(self.drive_strength, f"{where}.drive_strength")
        )
        object.__setattr__(
            self,
            "corner",
            {
                str(k): _as_float(v, f"{where}.corner[{k!r}]")
                for k, v in dict(self.corner).items()
            },
        )

    def to_scenario(self):
        """The runtime :class:`~repro.sweep.scenario.Scenario` of this block."""
        from repro.sweep.scenario import Scenario

        return Scenario(
            name=self.name,
            bit_pattern=self.bit_pattern,
            drive_strength=self.drive_strength,
            corner=dict(self.corner),
            device=self.device,
            static_group=self.static_group,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bit_pattern": self.bit_pattern,
            "drive_strength": self.drive_strength,
            "corner": dict(self.corner),
            "device": self.device,
            "static_group": self.static_group,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "scenario") -> "ScenarioSpec":
        data = _require_mapping(data, where)
        allowed = {"name", "bit_pattern", "drive_strength", "corner", "device", "static_group"}
        _reject_unknown(data, allowed, where)
        if "name" not in data:
            raise ValueError(f"{where}: a scenario needs a name")
        return cls(
            name=data["name"],
            bit_pattern=data.get("bit_pattern"),
            drive_strength=data.get("drive_strength", 1.0),
            corner=_require_mapping(data.get("corner", {}), f"{where}.corner"),
            device=_opt_str(data.get("device"), f"{where}.device"),
            static_group=_opt_str(data.get("static_group"), f"{where}.static_group"),
        )


@dataclasses.dataclass(frozen=True)
class DistributionSpec:
    """One sampled parameter distribution of a ``stats`` block.

    The distribution grammar of Monte Carlo statistical SI
    (:mod:`repro.sweep.montecarlo`).  Numeric kinds target corner values
    and drive strengths; ``pattern`` targets random bit patterns.

    Attributes
    ----------
    kind:
        ``"uniform"`` (``low``/``high``), ``"normal"`` (``mean``/``std``,
        optional ``low``/``high`` clip bounds), ``"choice"`` (finite
        ``values``, optional ``weights``) or ``"pattern"`` (a random 0/1
        string of ``bits`` bits).
    low, high:
        Range of a uniform distribution, or clip bounds of a normal one.
    mean, std:
        Centre and width of a normal distribution (``std`` > 0).
    values:
        The support of a choice distribution: numbers for numeric
        targets, 0/1 strings when targeting ``bit_pattern``.
    weights:
        Optional relative weights of ``values`` (same length, > 0);
        empty means equiprobable.
    bits:
        Length of a random ``pattern`` draw (>= 1).
    """

    kind: str
    low: Optional[float] = None
    high: Optional[float] = None
    mean: Optional[float] = None
    std: Optional[float] = None
    values: Tuple[Any, ...] = ()
    weights: Tuple[float, ...] = ()
    bits: Optional[int] = None

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(
                f"distribution kind must be one of {DISTRIBUTION_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "low", _opt_float(self.low, "distribution.low"))
        object.__setattr__(self, "high", _opt_float(self.high, "distribution.high"))
        object.__setattr__(self, "mean", _opt_float(self.mean, "distribution.mean"))
        object.__setattr__(self, "std", _opt_float(self.std, "distribution.std"))
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(
            self,
            "weights",
            tuple(_as_float(w, "distribution.weights") for w in self.weights),
        )
        if self.kind == "uniform":
            if self.low is None or self.high is None:
                raise ValueError("uniform distribution needs low and high")
            if not self.low < self.high:
                raise ValueError(
                    f"uniform distribution needs low < high, got [{self.low}, {self.high}]"
                )
        elif self.kind == "normal":
            if self.mean is None or self.std is None:
                raise ValueError("normal distribution needs mean and std")
            if self.std <= 0:
                raise ValueError("normal distribution needs std > 0")
            if self.low is not None and self.high is not None \
                    and not self.low < self.high:
                raise ValueError("normal clip bounds need low < high")
        elif self.kind == "choice":
            if not self.values:
                raise ValueError("choice distribution needs a non-empty values list")
            numeric = [
                not isinstance(v, bool) and isinstance(v, (int, float))
                for v in self.values
            ]
            stringy = [
                isinstance(v, str) and v != "" and not set(v) - {"0", "1"}
                for v in self.values
            ]
            if all(numeric):
                object.__setattr__(
                    self, "values", tuple(float(v) for v in self.values)
                )
            elif not all(stringy):
                raise ValueError(
                    "choice values must be all numbers or all 0/1 pattern strings, "
                    f"got {list(self.values)!r}"
                )
            if self.weights:
                if len(self.weights) != len(self.values):
                    raise ValueError(
                        f"choice weights ({len(self.weights)}) must match values "
                        f"({len(self.values)})"
                    )
                if any(w <= 0 for w in self.weights):
                    raise ValueError("choice weights must be positive")
        else:  # pattern
            if self.bits is None:
                raise ValueError("pattern distribution needs bits")
            object.__setattr__(self, "bits", _as_int(self.bits, "distribution.bits"))
            if self.bits < 1:
                raise ValueError("pattern distribution needs bits >= 1")

    @property
    def is_numeric(self) -> bool:
        """Whether draws are numbers (vs 0/1 pattern strings)."""
        if self.kind == "pattern":
            return False
        if self.kind == "choice":
            return not self.values or isinstance(self.values[0], float)
        return True

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.low is not None:
            doc["low"] = self.low
        if self.high is not None:
            doc["high"] = self.high
        if self.mean is not None:
            doc["mean"] = self.mean
        if self.std is not None:
            doc["std"] = self.std
        if self.values:
            doc["values"] = list(self.values)
        if self.weights:
            doc["weights"] = list(self.weights)
        if self.bits is not None:
            doc["bits"] = self.bits
        return doc

    @classmethod
    def from_dict(cls, data: Any, where: str = "distribution") -> "DistributionSpec":
        data = _require_mapping(data, where)
        allowed = {"kind", "low", "high", "mean", "std", "values", "weights", "bits"}
        _reject_unknown(data, allowed, where)
        if "kind" not in data:
            raise ValueError(f"{where}: a distribution needs a kind")
        values = data.get("values", ())
        weights = data.get("weights", ())
        for name, seq in (("values", values), ("weights", weights)):
            if not isinstance(seq, (list, tuple)):
                raise ValueError(f"{where}.{name}: expected a JSON array")
        try:
            return cls(
                kind=data["kind"],
                low=data.get("low"),
                high=data.get("high"),
                mean=data.get("mean"),
                std=data.get("std"),
                values=tuple(values),
                weights=tuple(weights),
                bits=data.get("bits"),
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


#: the scenario dimensions a stats distribution may target besides
#: ``corner.<parameter>``
_STATS_DIRECT_TARGETS = ("bit_pattern", "drive_strength")


@dataclasses.dataclass(frozen=True)
class StatsSpec:
    """Monte Carlo statistical-exploration block of a ``sweep`` job.

    Instead of enumerating scenarios by hand, a ``stats`` block *samples*
    them: ``samples`` scenarios are drawn deterministically from ``seed``
    out of the declared parameter ``distributions`` and fed through the
    ordinary (sharded) sweep engine — the generated batch replaces the
    ``scenarios`` array, which must be empty.  RHS-only dimensions
    (``bit_pattern``, ``drive_strength``) never split a corner group, so
    sampling composes with one-factorization-per-group and shard fan-out
    for free; corner draws are limited to ``corner_groups`` distinct
    values so the factorization sharing survives continuous
    distributions.  See :mod:`repro.sweep.montecarlo` and
    ``docs/job-spec.md``.

    Attributes
    ----------
    samples:
        Number of scenarios to generate (>= 1).
    seed:
        RNG seed; the same seed regenerates bit-identical scenarios (and
        therefore the same waveforms and the same ``content_hash`` —
        reruns hit the result store instead of solving).
    distributions:
        Mapping of target -> :class:`DistributionSpec`.  Targets:
        ``"corner.<parameter>"`` (static-affecting corner values, e.g.
        ``corner.load_resistance``, ``corner.delay`` for launch-timing
        skew), ``"drive_strength"`` (linear family only) and
        ``"bit_pattern"`` (``pattern`` or 0/1-string ``choice`` kinds).
    corner_groups:
        Number of distinct corner draws shared across the batch (each
        scenario is assigned one round-robin).  ``null`` gives every
        scenario its own draw — one factorization per scenario, which
        defeats the sweep engine's sharing for continuous distributions.
    node, low, high, t_start:
        Eye-measurement parameters of the statistical outputs: the
        recorded node to fold and the logic thresholds / first bit
        boundary passed to :func:`repro.sweep.report.eye_report`.
    bins:
        Histogram bin count of the distribution summaries.
    refine_rounds:
        Adaptive worst-case refinement rounds (0 disables): each round
        resamples ``refine_samples`` scenarios from distributions
        re-centred on the emerging worst corner and shrunk by
        ``refine_shrink``, strictly tightening the worst-case estimate.
    refine_samples:
        Scenarios per refinement round (>= 1).
    refine_shrink:
        Multiplicative width shrink per refinement round, in ``(0, 1]``.
    """

    samples: int
    seed: int = 0
    distributions: Mapping[str, DistributionSpec] = dataclasses.field(default_factory=dict)
    corner_groups: Optional[int] = None
    node: str = "far"
    low: float = 0.0
    high: float = 1.8
    t_start: float = 0.0
    bins: int = 20
    refine_rounds: int = 0
    refine_samples: int = 16
    refine_shrink: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_int(self.samples, "stats.samples"))
        if self.samples < 1:
            raise ValueError("stats.samples must be at least 1")
        object.__setattr__(self, "seed", _as_int(self.seed, "stats.seed"))
        if not isinstance(self.distributions, Mapping) or not self.distributions:
            raise ValueError("stats.distributions must be a non-empty object")
        dists = {}
        for target, dist in dict(self.distributions).items():
            where = f"stats.distributions[{target!r}]"
            if not isinstance(dist, DistributionSpec):
                dist = DistributionSpec.from_dict(dist, where)
            if target == "bit_pattern":
                if dist.is_numeric:
                    raise ValueError(
                        f"{where}: bit_pattern needs a 'pattern' kind or a choice "
                        f"of 0/1 strings, got numeric {dist.kind!r}"
                    )
            elif target == "drive_strength" or target.startswith("corner."):
                if not dist.is_numeric:
                    raise ValueError(
                        f"{where}: {target} needs a numeric distribution, "
                        f"got {dist.kind!r}"
                    )
                if target.startswith("corner.") and not target[len("corner."):]:
                    raise ValueError(f"{where}: empty corner parameter name")
            else:
                raise ValueError(
                    f"stats.distributions: unknown target {target!r}; expected "
                    f"'corner.<parameter>' or one of {list(_STATS_DIRECT_TARGETS)}"
                )
            dists[str(target)] = dist
        object.__setattr__(self, "distributions", dists)
        if self.corner_groups is not None:
            object.__setattr__(
                self, "corner_groups", _as_int(self.corner_groups, "stats.corner_groups")
            )
            if self.corner_groups < 1:
                raise ValueError("stats.corner_groups must be at least 1 (or null)")
        if not isinstance(self.node, str) or not self.node:
            raise ValueError(f"stats.node must be a non-empty string, got {self.node!r}")
        object.__setattr__(self, "low", _as_float(self.low, "stats.low"))
        object.__setattr__(self, "high", _as_float(self.high, "stats.high"))
        if not self.low < self.high:
            raise ValueError("stats logic thresholds need low < high")
        object.__setattr__(self, "t_start", _as_float(self.t_start, "stats.t_start"))
        if self.t_start < 0:
            raise ValueError("stats.t_start must be non-negative")
        object.__setattr__(self, "bins", _as_int(self.bins, "stats.bins"))
        if self.bins < 2:
            raise ValueError("stats.bins must be at least 2")
        object.__setattr__(
            self, "refine_rounds", _as_int(self.refine_rounds, "stats.refine_rounds")
        )
        if self.refine_rounds < 0:
            raise ValueError("stats.refine_rounds must be non-negative")
        object.__setattr__(
            self, "refine_samples", _as_int(self.refine_samples, "stats.refine_samples")
        )
        if self.refine_samples < 1:
            raise ValueError("stats.refine_samples must be at least 1")
        object.__setattr__(
            self, "refine_shrink", _as_float(self.refine_shrink, "stats.refine_shrink")
        )
        if not 0 < self.refine_shrink <= 1:
            raise ValueError("stats.refine_shrink must lie in (0, 1]")

    def corner_targets(self) -> dict:
        """The ``corner.<name>`` distributions, keyed by bare parameter name."""
        return {
            target[len("corner."):]: dist
            for target, dist in self.distributions.items()
            if target.startswith("corner.")
        }

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "distributions": {
                target: dist.to_dict()
                for target, dist in sorted(self.distributions.items())
            },
            "corner_groups": self.corner_groups,
            "node": self.node,
            "low": self.low,
            "high": self.high,
            "t_start": self.t_start,
            "bins": self.bins,
            "refine_rounds": self.refine_rounds,
            "refine_samples": self.refine_samples,
            "refine_shrink": self.refine_shrink,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "stats") -> "StatsSpec":
        data = _require_mapping(data, where)
        allowed = {
            "samples", "seed", "distributions", "corner_groups", "node", "low",
            "high", "t_start", "bins", "refine_rounds", "refine_samples",
            "refine_shrink",
        }
        _reject_unknown(data, allowed, where)
        if "samples" not in data:
            raise ValueError(f"{where}: a stats block needs a sample count")
        return cls(
            samples=data["samples"],
            seed=data.get("seed", 0),
            distributions=_require_mapping(
                data.get("distributions", {}), f"{where}.distributions"
            ),
            corner_groups=data.get("corner_groups"),
            node=data.get("node", "far"),
            low=data.get("low", 0.0),
            high=data.get("high", 1.8),
            t_start=data.get("t_start", 0.0),
            bins=data.get("bins", 20),
            refine_rounds=data.get("refine_rounds", 0),
            refine_samples=data.get("refine_samples", 16),
            refine_shrink=data.get("refine_shrink", 0.5),
        )


@dataclasses.dataclass(frozen=True)
class EngineOptions:
    """Engine tuning knobs shared by every kind (irrelevant ones are ignored).

    Attributes
    ----------
    dt:
        Time step of the SPICE-class engines and sweeps (``None`` = the
        engine default, 5 ps).  The FDTD engines derive their own step
        (``delay / n_cells`` and the 3-D Courant limit respectively).
    fast:
        Fast-path selection forwarded to :func:`repro.perf.use_fastpath`
        for the duration of the run; ``None`` follows the process default.
    n_cells:
        Spatial cells of the 1-D FDTD line.
    variant:
        Circuit-kind device variant: ``"rbf"`` (macromodels, the paper's
        "SPICE (RBF model)" engine) or ``"transistor"`` (the
        transistor-level reference engine).
    sweep_family:
        Sweep-kind testbench family: ``"linear"`` (Thevenin driver + RC
        load, shared-LU block-solve path) or ``"rbf"`` (macromodel link,
        batched Gaussian path).
    sparse_mna:
        Route the circuit/sweep MNA solves through the sparse-CSC backend
        (:class:`repro.perf.backends.SparseBackend`): true sparse assembly
        with a cached sparsity pattern and ``splu`` factorization reuse,
        for netlists beyond a few hundred unknowns (see ``link.segments``).
        ``false`` keeps the automatic choice (dense at paper scale).
        Ignored by the field engines.
    batch_prepare:
        Fold the per-step RBF regressor preparation of all lockstep sweep
        scenarios in one stacked pass per step
        (:class:`repro.perf.rbf_fast.BatchedPrepare`).  Sweep kind only;
        ignored elsewhere.
    max_retries:
        Step retries of the SPICE-class engines' resilience layer
        (:class:`repro.resilience.RetryPolicy`): a failing time step is
        rewound and re-attempted up to this many times (re-run, then local
        dt-halving with boosted damping) before the failure surfaces.
        ``0`` (default) disables retrying.  Ignored by the field engines.
    on_nonconvergence:
        Policy for a step that exhausts its Newton iterations after any
        retries: ``"raise"`` (default — the job fails with a typed
        non-convergence error), ``"warn"`` or ``"ignore"`` (commit the
        step, counted in ``Result.perf_stats["health"]``).
    workers:
        Worker-process count of a sharded sweep
        (:mod:`repro.sweep.shard`): the scenario batch is partitioned
        into corner-group-atomic shards and fanned out over a process
        pool, merging to bit-identical waveforms.  ``None`` (default)
        reads ``REPRO_SWEEP_WORKERS`` and falls back to 1 (single
        process, no pool); must be ≥ 1 when set.  Sweep kind only;
        ignored elsewhere.
    shards:
        Shard count of a sharded sweep; ``None`` (default) uses the
        worker count.  Always capped by the number of corner groups —
        a corner group is never split across shards (that would break
        the one-factorization-per-group invariant *and* bit-identical
        merging).  Must be ≥ 1 when set.  Sweep kind only.

    ``workers`` and ``shards`` only schedule the work: sharded and
    single-process runs merge to bit-identical waveforms, so both are
    left out of :meth:`SimulationSpec.content_hash`.
    """

    dt: Optional[float] = None
    fast: Optional[bool] = None
    n_cells: int = 100
    variant: str = "rbf"
    sweep_family: str = "rbf"
    sparse_mna: bool = False
    batch_prepare: bool = False
    max_retries: int = 0
    on_nonconvergence: str = "raise"
    workers: Optional[int] = None
    shards: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "dt", _opt_float(self.dt, "engine.dt"))
        if self.dt is not None and self.dt <= 0:
            raise ValueError("engine.dt must be positive (or null)")
        object.__setattr__(self, "n_cells", _as_int(self.n_cells, "engine.n_cells"))
        if self.n_cells < 4:
            raise ValueError("engine.n_cells must be at least 4")
        if self.variant not in ("rbf", "transistor"):
            raise ValueError(
                f"engine.variant must be 'rbf' or 'transistor', got {self.variant!r}"
            )
        if self.sweep_family not in ("linear", "rbf"):
            raise ValueError(
                f"engine.sweep_family must be 'linear' or 'rbf', got {self.sweep_family!r}"
            )
        _opt_bool(self.fast, "engine.fast")
        for flag in ("sparse_mna", "batch_prepare"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"engine.{flag} must be true/false")
        object.__setattr__(
            self, "max_retries", _as_int(self.max_retries, "engine.max_retries")
        )
        if self.max_retries < 0:
            raise ValueError("engine.max_retries must be non-negative")
        if self.on_nonconvergence not in ("raise", "warn", "ignore"):
            raise ValueError(
                f"engine.on_nonconvergence must be 'raise', 'warn' or 'ignore', "
                f"got {self.on_nonconvergence!r}"
            )
        for name in ("workers", "shards"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_int(value, f"engine.{name}"))
                if getattr(self, name) < 1:
                    raise ValueError(
                        f"engine.{name} must be at least 1 (or null), got {value}"
                    )

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "fast": self.fast,
            "n_cells": self.n_cells,
            "variant": self.variant,
            "sweep_family": self.sweep_family,
            "sparse_mna": self.sparse_mna,
            "batch_prepare": self.batch_prepare,
            "max_retries": self.max_retries,
            "on_nonconvergence": self.on_nonconvergence,
            "workers": self.workers,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "engine") -> "EngineOptions":
        data = _require_mapping(data, where)
        allowed = {
            "dt", "fast", "n_cells", "variant", "sweep_family", "sparse_mna", "batch_prepare",
            "max_retries", "on_nonconvergence", "workers", "shards",
        }
        _reject_unknown(data, allowed, where)
        return cls(
            dt=data.get("dt"),
            fast=data.get("fast"),
            n_cells=data.get("n_cells", 100),
            variant=data.get("variant", "rbf"),
            sweep_family=data.get("sweep_family", "rbf"),
            sparse_mna=data.get("sparse_mna", False),
            batch_prepare=data.get("batch_prepare", False),
            max_retries=data.get("max_retries", 0),
            on_nonconvergence=data.get("on_nonconvergence", "raise"),
            workers=data.get("workers"),
            shards=data.get("shards"),
        )


# ---------------------------------------------------------------------------
# the spec itself
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimulationSpec:
    """A complete, serialisable description of one simulation job.

    A spec is *data*: frozen, strictly validated at construction, exact
    under the JSON round-trip (``spec_from_dict(spec.to_dict()) == spec``)
    and stably hashed by :meth:`content_hash` — which is how the service
    daemon (:mod:`repro.service`) deduplicates identical jobs across
    clients and restarts.  ``docs/job-spec.md`` documents every block and
    field; ``examples/jobs/`` holds runnable fixtures for all four kinds.

    Attributes
    ----------
    kind:
        Engine kind: ``"circuit"``, ``"fdtd1d"``, ``"fdtd3d"`` or
        ``"sweep"`` (see :func:`repro.api.engines.list_engines`).
    duration:
        Simulated time span (seconds).
    stimulus, devices, link, structure, engine:
        The spec blocks (see their classes).  ``structure`` matters only
        for ``fdtd3d``; ``scenarios`` only (and mandatorily) for
        ``sweep``.
    scenarios:
        The scenario batch of a sweep job.
    stats:
        Monte Carlo statistical-exploration block (``sweep`` kind only):
        the scenario batch is *generated* — sampled deterministically
        from the declared parameter distributions — instead of being
        written out.  Mutually exclusive with ``scenarios``.  Part of
        :meth:`content_hash`: a different seed or sample count is a
        different job.
    label:
        Free-form human label (part of the content hash).
    """

    kind: str
    duration: float = 5e-9
    stimulus: StimulusSpec = dataclasses.field(default_factory=StimulusSpec)
    devices: DeviceSpec = dataclasses.field(default_factory=DeviceSpec)
    link: LinkSpec = dataclasses.field(default_factory=LinkSpec)
    structure: StructureSpec = dataclasses.field(default_factory=StructureSpec)
    scenarios: Tuple[ScenarioSpec, ...] = ()
    engine: EngineOptions = dataclasses.field(default_factory=EngineOptions)
    stats: Optional[StatsSpec] = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {ENGINE_KINDS}")
        object.__setattr__(self, "duration", _as_float(self.duration, "duration"))
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not isinstance(self.label, str):
            raise ValueError(f"label: expected a string, got {self.label!r}")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if self.stats is not None and not isinstance(self.stats, StatsSpec):
            raise ValueError("stats must be a StatsSpec block (or null)")
        if self.kind == "sweep":
            if self.stats is not None:
                if self.scenarios:
                    raise ValueError(
                        "a stats block generates the scenario batch; scenarios "
                        "must be empty when stats is set"
                    )
                if self.engine.sweep_family == "rbf" \
                        and "drive_strength" in self.stats.distributions:
                    raise ValueError(
                        "rbf sweep stats cannot sample drive_strength (the "
                        "identified driver fixes the drive)"
                    )
            elif not self.scenarios:
                raise ValueError("a sweep spec needs at least one scenario (or a stats block)")
            names = [sc.name for sc in self.scenarios]
            if len(set(names)) != len(names):
                raise ValueError(f"scenario names must be unique, got {names}")
            if self.engine.sweep_family == "rbf":
                bad = [sc.name for sc in self.scenarios if sc.drive_strength != 1.0]
                if bad:
                    raise ValueError(
                        f"rbf sweep scenarios cannot set drive_strength (the identified "
                        f"driver fixes the drive): {bad}"
                    )
            elif self.link.load == "receiver":
                raise ValueError(
                    "the linear sweep family has no receiver macromodel; use "
                    "link.load='rc' or engine.sweep_family='rbf'"
                )
        elif self.scenarios:
            raise ValueError(f"scenarios are only valid for kind='sweep', not {self.kind!r}")
        elif self.stats is not None:
            raise ValueError(f"a stats block is only valid for kind='sweep', not {self.kind!r}")
        if self.kind == "circuit" and self.engine.variant == "transistor" \
                and self.devices.source == "inline":
            raise ValueError("the transistor-level variant does not use inline macromodels")

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> dict:
        """The strict JSON form of this spec (``spec_from_dict`` inverts it).

        The ``stats`` key is present only when the block is set, so the
        content hashes (and cached results) of pre-existing non-statistical
        jobs are unchanged by the Monte Carlo layer.
        """
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "label": self.label,
            "duration": self.duration,
            "stimulus": self.stimulus.to_dict(),
            "devices": self.devices.to_dict(),
            "link": self.link.to_dict(),
            "structure": self.structure.to_dict(),
            "scenarios": [sc.to_dict() for sc in self.scenarios],
            "engine": self.engine.to_dict(),
        }
        if self.stats is not None:
            doc["stats"] = self.stats.to_dict()
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document (what a job file contains)."""
        return json.dumps(self.to_dict(), indent=indent)

    def content_hash(self) -> str:
        """Stable SHA-256 of the canonical JSON encoding.

        Equal for equal specs regardless of process, machine or the key
        order of the dictionaries they were built from — the cache key of
        a job's results.  The service's content-addressed store
        (:class:`repro.service.store.ResultStore`) is keyed by it, so two
        submissions of the same spec perform exactly one solve.  Note
        that ``label`` is part of the spec and therefore of the hash:
        relabelling a job creates a new cache entry.  The scheduling
        knobs in ``_UNHASHED_ENGINE_KEYS`` are not: a rerun that only
        changes them is the same job.
        """
        doc = self.to_dict()
        for key in _UNHASHED_ENGINE_KEYS:
            del doc["engine"][key]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        """Write the spec as a JSON job file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    # -- derived -----------------------------------------------------------
    def resolved_dt(self) -> float:
        """The time step the engine will actually use (best effort for FDTD)."""
        if self.kind == "fdtd1d":
            return self.link.delay / self.engine.n_cells
        if self.kind == "fdtd3d":
            from repro.fdtd.courant import courant_time_step
            from repro.structures.validation_line import ValidationLineStructure

            return courant_time_step(
                ValidationLineStructure.scaled(self.structure.scale).mesh_size
            )
        return self.engine.dt if self.engine.dt is not None else DEFAULT_DT

    def quickened(self) -> "SimulationSpec":
        """A cheap smoke-run variant of this spec (the CLI's ``--quick``).

        Caps the simulated span at two bit times (at least 50 steps) and
        shrinks a 3-D structure to the smallest supported scale.  Meant
        for CI smoke tests — the waveforms are shorter, not different.
        """
        duration = min(self.duration, max(2.0 * self.stimulus.bit_time,
                                          50.0 * self.resolved_dt()))
        changes: dict = {"duration": duration}
        if self.kind == "fdtd3d" and self.structure.scale > 0.125:
            changes["structure"] = dataclasses.replace(self.structure, scale=0.125)
        if self.stats is not None:
            # A Monte Carlo smoke keeps the generator but caps the batch.
            changes["stats"] = dataclasses.replace(
                self.stats,
                samples=min(self.stats.samples, 8),
                refine_rounds=min(self.stats.refine_rounds, 1),
                refine_samples=min(self.stats.refine_samples, 4),
            )
        return dataclasses.replace(self, **changes)


def spec_from_dict(data: Any) -> SimulationSpec:
    """Rebuild a :class:`SimulationSpec` from its ``to_dict`` form (strict)."""
    data = _require_mapping(data, "spec")
    allowed = {
        "format_version", "kind", "label", "duration", "stimulus", "devices",
        "link", "structure", "scenarios", "engine", "stats",
    }
    _reject_unknown(data, allowed, "spec")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported spec format_version {version!r} (this build reads {FORMAT_VERSION})"
        )
    if "kind" not in data:
        raise ValueError("spec: missing 'kind'")
    scenarios_data = data.get("scenarios", [])
    if not isinstance(scenarios_data, (list, tuple)):
        raise ValueError("spec.scenarios: expected a JSON array")
    return SimulationSpec(
        kind=data["kind"],
        duration=data.get("duration", 5e-9),
        stimulus=StimulusSpec.from_dict(data.get("stimulus", {})),
        devices=DeviceSpec.from_dict(data.get("devices", {})),
        link=LinkSpec.from_dict(data.get("link", {})),
        structure=StructureSpec.from_dict(data.get("structure", {})),
        scenarios=tuple(
            ScenarioSpec.from_dict(sc, where=f"scenarios[{k}]")
            for k, sc in enumerate(scenarios_data)
        ),
        engine=EngineOptions.from_dict(data.get("engine", {})),
        stats=(
            StatsSpec.from_dict(data["stats"])
            if data.get("stats") is not None else None
        ),
        label=data.get("label", ""),
    )


def load_spec(path: str) -> SimulationSpec:
    """Read and validate a JSON job file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return spec_from_dict(data)
