"""Declarative simulation specs: jobs that exist as *data*.

A :class:`SimulationSpec` is a frozen, validated, JSON-serialisable
description of one job (which engine kind, which link, which devices,
which stimulus or scenario batch, which engine options) that can be
hashed for result caching, shipped to a worker process, and replayed
bit-identically.

The spec layer deliberately reuses the existing on-disk contracts instead
of inventing new ones: embedded device models use the JSON schema of
:mod:`repro.macromodel.serialization`, sweep scenarios mirror
:class:`repro.sweep.scenario.Scenario`, and the link block mirrors
:class:`repro.core.cosim.LinkDescription`.

One codec
---------
Each field of each block is declared once, by :func:`_field`: its
default, its type conversion and its range check together.  One codec,
read from ``dataclasses.fields``, coerces every field at construction
(so a block built in Python and one decoded from JSON pass the same
checks), encodes ``to_dict`` and decodes ``from_dict``.  A block adds by
hand only its cross-field rules (``_check``) and, where the hash depends
on it, its own encoding.

Round-trip contract
-------------------
``spec_from_dict(spec.to_dict()) == spec`` holds exactly for every valid
spec (numbers survive JSON because Python round-trips floats through
``repr``), and :meth:`SimulationSpec.content_hash` is a stable SHA-256 of
the canonical JSON encoding, less the process-count knobs
``engine.workers``/``engine.shards`` — equal across processes, machines
and dict orderings, so it can key a shared result cache.

``from_dict`` validates *strictly*: unknown keys, unknown kinds,
malformed blocks and non-finite numbers raise ``ValueError`` with the
offending path, in the spirit of versioned, normalised request contracts.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from collections.abc import Mapping
from typing import Any, Optional, Tuple

__all__ = [
    "FORMAT_VERSION",
    "ENGINE_KINDS",
    "DISTRIBUTION_KINDS",
    "CORNER_NAMES",
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
#: ``engine.dt`` is null; :meth:`SimulationSpec.resolved_dt` states the rule,
#: and the adapters (:mod:`repro.api.engines`) call it
DEFAULT_DT = 5e-12


# ---------------------------------------------------------------------------
# conversions: (value, path) -> canonical value, or ValueError naming the path
# ---------------------------------------------------------------------------

def _require_mapping(data: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def _number(value: Any, where: str) -> float:
    """Strict finite float: malformed values raise ValueError, not TypeError.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; neither is a valid
    value of any spec field, and a NaN would run to a non-finite result.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return number


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{where}: expected true/false, got {value!r}")
    return value


def _pattern(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value or set(value) - {"0", "1"}:
        raise ValueError(f"{where}: expected a non-empty 0/1 string, got {value!r}")
    return value


def _unchecked(value: Any, where: str) -> Any:
    return value


def _one_of(*choices: str):
    def convert(value: Any, where: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"{where} must be one of {list(choices)}, got {value!r}")
        return value

    return convert


def _tuple_of(item):
    """A JSON array, each entry converted by ``item``."""

    def convert(value: Any, where: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a JSON array, got {value!r}")
        return tuple(item(entry, f"{where}[{k}]") for k, entry in enumerate(value))

    return convert


def _mapping_of(item):
    """A JSON object, each value converted by ``item``, stored in key order.

    Sorting makes equal specs encode to identical JSON text, not just to
    the same hash (which sorts keys anyway).
    """

    def convert(value: Any, where: str) -> dict:
        entries = {str(key): entry for key, entry in _require_mapping(value, where).items()}
        return {key: item(entries[key], f"{where}[{key!r}]") for key in sorted(entries)}

    return convert


def _block(cls):
    """A nested block: an instance, or its JSON form decoded by the same codec."""

    def convert(value: Any, where: str):
        return value if isinstance(value, cls) else cls.from_dict(value, where)

    return convert


def _json_object(value: Any, where: str) -> dict:
    """An embedded JSON object (a serialised macromodel), normalised through JSON."""
    if not isinstance(value, Mapping):
        raise ValueError(
            f"{where}: expected a serialised macromodel object, got {type(value).__name__}"
        )
    try:
        return json.loads(json.dumps(value, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: not JSON-serialisable: {exc}") from exc


@functools.cache
def _device_param_types() -> dict:
    from repro.macromodel.library import ReferenceDeviceParameters

    hints = typing.get_type_hints(ReferenceDeviceParameters)
    return {f.name: hints[f.name] for f in dataclasses.fields(ReferenceDeviceParameters)}


def _device_params(value: Any, where: str) -> dict:
    """Overrides of ``ReferenceDeviceParameters`` fields, typed like the fields."""
    types = _device_param_types()
    params = _mapping_of(_unchecked)(value, where)
    for key, entry in params.items():
        if key not in types:
            raise ValueError(
                f"{where}: unknown device parameter {key!r}; known: {sorted(types)}"
            )
        convert = _integer if types[key] is int else _number
        params[key] = convert(entry, f"{where}[{key!r}]")
    return params


# ---------------------------------------------------------------------------
# range rules: (test, phrase) checked after conversion
# ---------------------------------------------------------------------------

_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_UNIT_INTERVAL = (lambda v: 0 < v <= 1, "must lie in (0, 1]")
_NON_EMPTY = (lambda v: len(v) > 0, "must not be empty")


def _at_least(bound: int):
    return (lambda v: v >= bound, f"must be at least {bound}")


_REQUIRED = dataclasses.MISSING


def _field(default, convert, rule=None):
    """Declare one spec field: its default, conversion and range rule.

    ``convert(value, path)`` returns the canonical value or raises
    ``ValueError`` naming the path; ``rule`` is a ``(test, phrase)`` pair
    checked on the converted value.  A ``None`` default makes ``None`` a
    valid value; a class as ``default`` (``dict`` or a spec block) gives
    every instance a fresh default; ``_REQUIRED`` makes the field mandatory.
    """
    optional = default is None

    def coerce(value: Any, where: str) -> Any:
        if value is None and optional:
            return None
        value = convert(value, where)
        if rule is not None and not rule[0](value):
            raise ValueError(f"{where} {rule[1]}, got {value!r}")
        return value

    metadata = {"coerce": coerce if optional or rule is not None else convert}
    if isinstance(default, type):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@functools.cache
def _fields(cls) -> dict:
    """Each field of a block by name, in declaration order, with its coercion."""
    return {f.name: (f, f.metadata["coerce"]) for f in dataclasses.fields(cls)}


#: the JSON scalar types, which encode as themselves
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _encode(value: Any) -> Any:
    if isinstance(value, _Block):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(entry) for entry in value]
    if isinstance(value, dict):
        return {key: _encode(entry) for key, entry in value.items()}
    return value


class _Block:
    """The codec every spec block shares.

    Construction coerces each field through its declaration and then runs
    the block's cross-field rules, so a block built in Python and one
    decoded from JSON go through one validation path, and errors name the
    field by its place in the document (``scenarios[2].corner['z0']``).
    """

    #: the block's path in a spec document, used when none is given
    _PATH = ""

    def __post_init__(self):
        self._validate(self._PATH)

    def _validate(self, where: str) -> None:
        prefix = f"{where}." if where else ""
        for name, (_, coerce) in _fields(type(self)).items():
            object.__setattr__(self, name, coerce(getattr(self, name), prefix + name))
        self._check(where)

    def _check(self, where: str) -> None:
        """Cross-field rules, run once every field is coerced."""

    def to_dict(self) -> dict:
        """The block's JSON form (``from_dict`` inverts it)."""
        doc = {}
        for name in _fields(type(self)):
            value = getattr(self, name)
            doc[name] = value if type(value) in _SCALARS else _encode(value)
        return doc

    @classmethod
    def from_dict(cls, data: Any, where: Optional[str] = None):
        """Decode the block's JSON form strictly: unknown keys raise ``ValueError``."""
        where = cls._PATH if where is None else where
        label = where or "spec"
        data = _require_mapping(data, label)
        fields = _fields(cls)
        unknown = sorted(str(key) for key in data if key not in fields)
        if unknown:
            raise ValueError(f"{label}: unknown key(s) {unknown}; allowed: {sorted(fields)}")
        # Fill the fields as ``__init__`` would, then validate once under
        # this block's path rather than its default one.
        block = object.__new__(cls)
        for name, (field, _) in fields.items():
            if name in data:
                value = data[name]
            elif field.default is not dataclasses.MISSING:
                value = field.default
            elif field.default_factory is not dataclasses.MISSING:
                value = field.default_factory()
            else:
                raise ValueError(f"{label}: missing required key {name!r}")
            object.__setattr__(block, name, value)
        block._validate(where)
        return block


# ---------------------------------------------------------------------------
# spec blocks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StimulusSpec(_Block):
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

    _PATH = "stimulus"

    bit_pattern: str = _field("010", _pattern)
    bit_time: float = _field(2e-9, _number, _POSITIVE)
    edge_time: float = _field(1e-10, _number, _POSITIVE)


@dataclasses.dataclass(frozen=True)
class DeviceSpec(_Block):
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
        fields (e.g. ``{"vdd": 2.5}``); keys are validated, and each value
        takes its field's type (``dynamic_order`` is an integer).
    driver, receiver:
        Embedded macromodel dictionaries (``source="inline"`` only).
    """

    _PATH = "devices"

    source: str = _field("library", _one_of("library", "identified", "inline"))
    n_centers: Optional[int] = _field(None, _integer, _POSITIVE)
    seed: int = _field(0, _integer)
    params: Mapping[str, float] = _field(dict, _device_params)
    driver: Optional[Mapping[str, Any]] = _field(None, _json_object)
    receiver: Optional[Mapping[str, Any]] = _field(None, _json_object)

    def _check(self, where: str) -> None:
        embedded = self.driver is not None or self.receiver is not None
        if self.source == "inline" and not embedded:
            raise ValueError(f"{where}.source='inline' needs a driver and/or receiver model")
        if self.source != "inline" and embedded:
            raise ValueError(f"embedded driver/receiver models require {where}.source='inline'")


@dataclasses.dataclass(frozen=True)
class LinkSpec(_Block):
    """The driver → interconnect → load validation link.

    Mirrors :class:`repro.core.cosim.LinkDescription` (the stimulus and
    duration live in their own spec blocks).  ``source_resistance`` is
    used by the linear sweep family only; the 3-D FDTD engine takes its
    interconnect from the structure block and ignores ``z0``/``delay``.
    ``segments`` discretises the circuit-engine interconnect into an
    LC ladder (0 keeps the ideal line; ``N > 0`` adds ~2N MNA unknowns,
    which run on the sparse backend above 70 unknowns).
    """

    _PATH = "link"

    z0: float = _field(131.0, _number, _POSITIVE)
    delay: float = _field(0.4e-9, _number, _POSITIVE)
    load: str = _field("rc", _one_of("rc", "receiver"))
    load_resistance: float = _field(500.0, _number, _POSITIVE)
    load_capacitance: float = _field(1e-12, _number, _NON_NEGATIVE)
    source_resistance: float = _field(50.0, _number, _POSITIVE)
    segments: int = _field(0, _integer, _NON_NEGATIVE)


#: the link values a scenario corner may override: every number of the link
#: block (a sweep scenario runs the job's link with its corner applied,
#: :func:`repro.sweep.links.scenario_link`)
CORNER_NAMES = ("z0", "delay", "load_resistance", "load_capacitance", "source_resistance")


@dataclasses.dataclass(frozen=True)
class StructureSpec(_Block):
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

    _PATH = "structure"

    name: str = _field("validation_line", _one_of("validation_line"))
    scale: float = _field(1.0, _number, _UNIT_INTERVAL)


@dataclasses.dataclass(frozen=True)
class ScenarioSpec(_Block):
    """One scenario of a ``sweep`` job (mirrors :class:`repro.sweep.scenario.Scenario`).

    ``corner`` overrides link values named in :data:`CORNER_NAMES`.
    """

    _PATH = "scenario"

    name: str = _field(_REQUIRED, _string, _NON_EMPTY)
    bit_pattern: Optional[str] = _field(None, _pattern)
    drive_strength: float = _field(1.0, _number)
    corner: Mapping[str, float] = _field(
        dict, _mapping_of(_number),
        (lambda v: set(v) <= set(CORNER_NAMES), f"may only set {list(CORNER_NAMES)}"),
    )

    def to_scenario(self):
        """The runtime :class:`~repro.sweep.scenario.Scenario` of this block."""
        from repro.sweep.scenario import Scenario

        return Scenario(
            name=self.name,
            bit_pattern=self.bit_pattern,
            drive_strength=self.drive_strength,
            corner=dict(self.corner),
        )


@dataclasses.dataclass(frozen=True)
class DistributionSpec(_Block):
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

    _PATH = "distribution"

    kind: str = _field(_REQUIRED, _one_of(*DISTRIBUTION_KINDS))
    low: Optional[float] = _field(None, _number)
    high: Optional[float] = _field(None, _number)
    mean: Optional[float] = _field(None, _number)
    std: Optional[float] = _field(None, _number)
    # The types of ``values`` and ``bits`` depend on the kind: ``_check``
    # converts them for the kinds that use them.
    values: Tuple[Any, ...] = _field((), _tuple_of(_unchecked))
    weights: Tuple[float, ...] = _field((), _tuple_of(_number))
    bits: Optional[int] = _field(None, _unchecked)

    def _check(self, where: str) -> None:
        if self.kind == "uniform":
            if self.low is None or self.high is None:
                raise ValueError(f"{where}: uniform distribution needs low and high")
            if not self.low < self.high:
                raise ValueError(
                    f"{where}: uniform distribution needs low < high, "
                    f"got [{self.low}, {self.high}]"
                )
        elif self.kind == "normal":
            if self.mean is None or self.std is None:
                raise ValueError(f"{where}: normal distribution needs mean and std")
            if self.std <= 0:
                raise ValueError(f"{where}: normal distribution needs std > 0")
            if self.low is not None and self.high is not None \
                    and not self.low < self.high:
                raise ValueError(f"{where}: normal clip bounds need low < high")
        elif self.kind == "choice":
            if not self.values:
                raise ValueError(f"{where}: choice distribution needs a non-empty values list")
            # all numbers (numeric targets), else all 0/1 strings (bit_pattern)
            numeric = all(
                not isinstance(v, bool) and isinstance(v, (int, float)) for v in self.values
            )
            convert = _tuple_of(_number if numeric else _pattern)
            object.__setattr__(self, "values", convert(self.values, f"{where}.values"))
            if self.weights:
                if len(self.weights) != len(self.values):
                    raise ValueError(
                        f"{where}: choice weights ({len(self.weights)}) must match values "
                        f"({len(self.values)})"
                    )
                if any(w <= 0 for w in self.weights):
                    raise ValueError(f"{where}: choice weights must be positive")
        else:  # pattern
            if self.bits is None:
                raise ValueError(f"{where}: pattern distribution needs bits")
            bits = _integer(self.bits, f"{where}.bits")
            if bits < 1:
                raise ValueError(f"{where}: pattern distribution needs bits >= 1")

    @property
    def is_numeric(self) -> bool:
        """Whether draws are numbers (vs 0/1 pattern strings)."""
        if self.kind == "pattern":
            return False
        if self.kind == "choice":
            return not self.values or isinstance(self.values[0], float)
        return True

    def to_dict(self) -> dict:
        # Only the fields a kind sets are written, so each kind's document
        # (and hash) holds its own fields alone.
        return {
            key: value for key, value in super().to_dict().items()
            if value is not None and value != []
        }


#: the scenario dimensions a stats distribution may target besides
#: ``corner.<name>``
_STATS_DIRECT_TARGETS = ("bit_pattern", "drive_strength")


@dataclasses.dataclass(frozen=True)
class StatsSpec(_Block):
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
        ``"corner.<name>"`` for a name in :data:`CORNER_NAMES`
        (static-affecting corner values, e.g. ``corner.load_resistance``,
        ``corner.delay`` for launch-timing skew), ``"drive_strength"``
        (linear family only) and
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

    _PATH = "stats"

    samples: int = _field(_REQUIRED, _integer, _at_least(1))
    seed: int = _field(0, _integer)
    distributions: Mapping[str, DistributionSpec] = _field(
        dict, _mapping_of(_block(DistributionSpec)), _NON_EMPTY
    )
    corner_groups: Optional[int] = _field(None, _integer, _at_least(1))
    node: str = _field("far", _string, _NON_EMPTY)
    low: float = _field(0.0, _number)
    high: float = _field(1.8, _number)
    t_start: float = _field(0.0, _number, _NON_NEGATIVE)
    bins: int = _field(20, _integer, _at_least(2))
    refine_rounds: int = _field(0, _integer, _NON_NEGATIVE)
    refine_samples: int = _field(16, _integer, _at_least(1))
    refine_shrink: float = _field(0.5, _number, _UNIT_INTERVAL)

    def _check(self, where: str) -> None:
        for target, dist in self.distributions.items():
            at = f"{where}.distributions[{target!r}]"
            if target == "bit_pattern":
                if dist.is_numeric:
                    raise ValueError(
                        f"{at}: bit_pattern needs a 'pattern' kind or a choice "
                        f"of 0/1 strings, got numeric {dist.kind!r}"
                    )
            elif target == "drive_strength" or target.startswith("corner."):
                if not dist.is_numeric:
                    raise ValueError(
                        f"{at}: {target} needs a numeric distribution, got {dist.kind!r}"
                    )
                if target.startswith("corner.") \
                        and target[len("corner."):] not in CORNER_NAMES:
                    raise ValueError(
                        f"{at}: unknown corner value; allowed: {list(CORNER_NAMES)}"
                    )
            else:
                raise ValueError(
                    f"{where}.distributions: unknown target {target!r}; expected "
                    f"'corner.<name>' or one of {list(_STATS_DIRECT_TARGETS)}"
                )
        if not self.low < self.high:
            raise ValueError(f"{where} logic thresholds need low < high")

    def corner_targets(self) -> dict:
        """The ``corner.<name>`` distributions, keyed by bare parameter name."""
        return {
            target[len("corner."):]: dist
            for target, dist in self.distributions.items()
            if target.startswith("corner.")
        }


@dataclasses.dataclass(frozen=True)
class EngineOptions(_Block):
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
        load, lane sets with shared-LU block solves) or ``"rbf"``
        (macromodel link, one Newton run per scenario on shared static
        stamps).
    max_retries:
        Step retries of the SPICE-class engines' resilience layer
        (``TransientOptions.max_retries``): a failing time step is
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

    _PATH = "engine"

    dt: Optional[float] = _field(None, _number, _POSITIVE)
    fast: Optional[bool] = _field(None, _flag)
    n_cells: int = _field(100, _integer, _at_least(4))
    variant: str = _field("rbf", _one_of("rbf", "transistor"))
    sweep_family: str = _field("rbf", _one_of("linear", "rbf"))
    max_retries: int = _field(0, _integer, _NON_NEGATIVE)
    on_nonconvergence: str = _field("raise", _one_of("raise", "warn", "ignore"))
    workers: Optional[int] = _field(None, _integer, _at_least(1))
    shards: Optional[int] = _field(None, _integer, _at_least(1))


# ---------------------------------------------------------------------------
# the spec itself
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimulationSpec(_Block):
    """A complete, serialisable description of one simulation job.

    A spec is *data*: frozen, strictly validated at construction, exact
    under the JSON round-trip (``spec_from_dict(spec.to_dict()) == spec``)
    and stably hashed by :meth:`content_hash` — which is how the service
    daemon (:mod:`repro.service`) deduplicates identical jobs across
    clients and restarts.  ``docs/job-spec.md`` documents every block and
    field; ``examples/jobs/`` holds runnable fixtures for all four kinds.

    Every block field also accepts the block's JSON form (a dict, or a
    list of dicts for ``scenarios``), decoded exactly as ``spec_from_dict``
    decodes it.

    Attributes
    ----------
    kind:
        Engine kind: ``"circuit"``, ``"fdtd1d"``, ``"fdtd3d"`` or
        ``"sweep"`` (see :data:`repro.api.engines.ENGINES`).
    label:
        Free-form human label (part of the content hash).
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
    """

    kind: str = _field(_REQUIRED, _one_of(*ENGINE_KINDS))
    label: str = _field("", _string)
    duration: float = _field(5e-9, _number, _POSITIVE)
    stimulus: StimulusSpec = _field(StimulusSpec, _block(StimulusSpec))
    devices: DeviceSpec = _field(DeviceSpec, _block(DeviceSpec))
    link: LinkSpec = _field(LinkSpec, _block(LinkSpec))
    structure: StructureSpec = _field(StructureSpec, _block(StructureSpec))
    scenarios: Tuple[ScenarioSpec, ...] = _field((), _tuple_of(_block(ScenarioSpec)))
    engine: EngineOptions = _field(EngineOptions, _block(EngineOptions))
    stats: Optional[StatsSpec] = _field(None, _block(StatsSpec))

    def _check(self, where: str) -> None:
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
                try:
                    self._fold_start()
                except ValueError as exc:
                    raise ValueError(
                        f"duration: {self.duration:g} s leaves no "
                        f"stimulus.bit_time ({self.stimulus.bit_time:g} s) eye "
                        f"to fold after stats.t_start ({self.stats.t_start:g} s): {exc}"
                    ) from None
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
        doc = {"format_version": FORMAT_VERSION, **super().to_dict()}
        if self.stats is None:
            del doc["stats"]
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
    def _fold_start(self) -> tuple:
        """:func:`~repro.waveforms.eye.fold_start` of a Monte Carlo spec's eye.

        Applied to the time grid the sweep samples, with the fold's
        ``bit_time`` and ``t_start``.
        """
        import numpy as np

        from repro.waveforms.eye import fold_start

        dt = self.resolved_dt()
        times = dt * np.arange(int(round(self.duration / dt)) + 1)
        return fold_start(times, self.stimulus.bit_time, self.stats.t_start)

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

        Caps the simulated span at two bit times (at least 50 steps, and
        for a Monte Carlo spec at least four unit intervals of eye fold
        after the fold start, within the spec's own span) and shrinks a 3-D
        structure to the smallest supported scale.  Meant for CI smoke
        tests — the waveforms are shorter, not different.
        """
        duration = min(self.duration, max(2.0 * self.stimulus.bit_time,
                                          50.0 * self.resolved_dt()))
        changes: dict = {"duration": duration}
        if self.kind == "fdtd3d" and self.structure.scale > 0.125:
            changes["structure"] = dataclasses.replace(self.structure, scale=0.125)
        if self.stats is not None:
            # A Monte Carlo smoke keeps the generator and four unit
            # intervals of eye fold, but caps the batch: one interval folds
            # one trace, and an eye height needs a HIGH and a LOW one.
            start, n_phase, _ = self._fold_start()
            folds = (start + 4 * n_phase - 1) * self.resolved_dt()
            changes["duration"] = min(self.duration, max(duration, folds))
            changes["stats"] = dataclasses.replace(
                self.stats,
                samples=min(self.stats.samples, 8),
                refine_rounds=min(self.stats.refine_rounds, 1),
                refine_samples=min(self.stats.refine_samples, 4),
            )
        return dataclasses.replace(self, **changes)


def spec_from_dict(data: Any) -> SimulationSpec:
    """Rebuild a :class:`SimulationSpec` from its ``to_dict`` form (strict)."""
    data = dict(_require_mapping(data, "spec"))
    version = data.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported spec format_version {version!r} (this build reads {FORMAT_VERSION})"
        )
    return SimulationSpec.from_dict(data)


def load_spec(path: str) -> SimulationSpec:
    """Read and validate a JSON job file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return spec_from_dict(data)
