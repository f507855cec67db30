"""The uniform result container of the job API.

Every engine kind historically returned its own shape —
:class:`repro.circuits.transient.CircuitResult`,
:class:`repro.core.cosim.SimulationResult`, probe arrays from the 3-D
solver, :class:`repro.sweep.result.SweepResult` — which made generic
tooling (caching, CLI output, report generation, remote workers)
impossible.  :class:`Result` wraps each of them behind one interface
without breaking them: the native object stays available as ``.raw`` and
the existing result classes are untouched.

Waveform naming
---------------
* single-run kinds: voltage probes keep their names (``"near_end"``,
  ``"far_end"``); current probes are prefixed ``"i:"``;
* sweeps: every scenario's node waveforms appear as
  ``"<scenario>/<node>"`` (branch currents as ``"<scenario>/<key>"``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Optional

import numpy as np

__all__ = ["Result"]


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of stats/metadata payloads to JSON values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    return repr(value)


class Result:
    """Uniform view over the output of any engine.

    The two export forms are the service's wire formats:
    :meth:`to_json_bytes` (the encoded :meth:`to_dict`) is what
    ``GET /jobs/<id>/result`` serves and the CLI's ``--output`` writes,
    :meth:`save_npz` the archive behind ``GET /jobs/<id>/waveforms``.  A
    solver process encodes each once, and the content-addressed store keeps
    those bytes — see ``docs/service.md``.

    Parameters
    ----------
    times:
        Common time axis of every waveform (seconds).
    waveforms:
        Mapping waveform name -> samples on ``times``.
    engine:
        Engine label (e.g. ``"spice-rbf"``, ``"sweep-linear"``).
    perf_stats:
        Engine counters (factorizations, batched evaluations, ...).
    meta:
        Free-form metadata: spec kind/label/hash, time step, Newton
        statistics, wall time.
    raw:
        The engine's native result object (kept, not copied).
    """

    def __init__(
        self,
        times: np.ndarray,
        waveforms: Dict[str, np.ndarray],
        engine: str = "",
        perf_stats: Optional[dict] = None,
        meta: Optional[dict] = None,
        raw: object = None,
    ):
        self.times = np.asarray(times, dtype=float)
        self._waveforms: Dict[str, np.ndarray] = {}
        for name, wave in waveforms.items():
            wave = np.asarray(wave, dtype=float)
            if wave.shape != self.times.shape:
                raise ValueError(
                    f"waveform {name!r} has shape {wave.shape}, expected {self.times.shape}"
                )
            self._waveforms[str(name)] = wave
        self.engine = engine
        self.perf_stats = perf_stats or {}
        self.meta = meta or {}
        self.raw = raw

    # -- uniform read interface -------------------------------------------
    def names(self) -> list[str]:
        """Every waveform name, sorted."""
        return sorted(self._waveforms)

    def waveform(self, name: str) -> np.ndarray:
        """One waveform by name, with a discoverable error."""
        try:
            return self._waveforms[name]
        except KeyError:
            raise KeyError(
                f"no waveform named {name!r}; available: {self.names()}"
            ) from None

    def voltage(self, name: str) -> np.ndarray:
        """Alias of :meth:`waveform` (SimulationResult compatibility)."""
        return self.waveform(name)

    def resampled_voltage(self, name: str, new_times: np.ndarray) -> np.ndarray:
        """A waveform linearly interpolated onto another time axis.

        Same contract as
        :meth:`repro.core.cosim.SimulationResult.resampled_voltage`, so the
        cross-engine report helpers accept a :class:`Result` directly.
        """
        new_times = np.asarray(new_times, dtype=float)
        return np.interp(new_times, self.times, self.waveform(name))

    @property
    def dt(self) -> float:
        """Time step of the result (assumes a uniform axis)."""
        if self.times.size < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def __repr__(self) -> str:
        return (
            f"Result(engine={self.engine!r}, {len(self._waveforms)} waveforms x "
            f"{self.times.size} samples)"
        )

    # -- export ------------------------------------------------------------
    def to_dict(self, include_waveforms: bool = True) -> dict:
        """JSON-compatible form (the CLI's ``--output`` artifact)."""
        out = {
            "engine": self.engine,
            "n_samples": int(self.times.size),
            "dt": self.dt,
            "meta": _jsonable(self.meta),
            "perf_stats": _jsonable(self.perf_stats),
        }
        if include_waveforms:
            out["times"] = self.times.tolist()
            out["waveforms"] = {k: v.tolist() for k, v in self._waveforms.items()}
        else:
            out["waveforms"] = self.names()
        return out

    def to_json_bytes(self) -> bytes:
        """:meth:`to_dict` as UTF-8 JSON: the bytes ``/result`` serves."""
        return json.dumps(self.to_dict()).encode("utf-8")

    def save_json(self, path: str) -> None:
        """Write the full result (times + waveforms + stats) as :meth:`to_json_bytes`."""
        with open(path, "wb") as handle:
            handle.write(self.to_json_bytes())

    def save_npz(self, path) -> None:
        """Write the waveforms as an uncompressed NPZ archive (``np.savez``).

        Array keys: ``times`` plus one ``w:<name>`` entry per waveform;
        the JSON metadata travels in a ``meta_json`` string array.
        ``path`` may be a filename or any binary file-like object (a
        solver process writes into a buffer, whose bytes the result store
        keeps and ``/waveforms`` serves).  Compression would save ~20% of
        the bytes for ten times the encoding time.
        """
        payload = {"times": self.times}
        for name, wave in self._waveforms.items():
            payload[f"w:{name}"] = wave
        payload["meta_json"] = np.array(
            json.dumps(self.to_dict(include_waveforms=False))
        )
        np.savez(path, **payload)

    # -- constructors from the native result shapes ------------------------
    @classmethod
    def from_simulation_result(cls, result, meta: Optional[dict] = None) -> "Result":
        """Wrap a :class:`repro.core.cosim.SimulationResult`."""
        from repro.core.cosim import CURRENT_WAVEFORM_PREFIX

        waveforms: Dict[str, np.ndarray] = dict(result.voltages)
        for name, wave in result.currents.items():
            waveforms[CURRENT_WAVEFORM_PREFIX + name] = wave
        full_meta = dict(result.metadata)
        # Solver/backend counters (factorizations, pattern reuses, ...)
        # travel in the native result's metadata; surface them uniformly.
        stats = dict(full_meta.pop("solver_stats", {}))
        if result.newton_stats is not None:
            full_meta["newton_mean_iterations"] = result.newton_stats.mean_iterations
            full_meta["newton_max_iterations"] = result.newton_stats.max_iterations
        full_meta.update(meta or {})
        return cls(
            times=result.times,
            waveforms=waveforms,
            engine=result.engine,
            perf_stats=stats,
            meta=full_meta,
            raw=result,
        )

    @classmethod
    def from_sweep_result(
        cls, sweep, engine: str = "sweep", meta: Optional[dict] = None
    ) -> "Result":
        """Wrap a :class:`repro.sweep.result.SweepResult` (flattened names).

        A partial sweep (quarantined scenarios that also failed their solo
        retry) wraps cleanly: failed scenarios contribute no waveforms and
        are reported in ``meta["scenario_status"]`` / ``meta["failures"]``.
        """
        waveforms: Dict[str, np.ndarray] = {}
        for scenario in sweep.scenarios:
            if scenario.name not in sweep.results:
                continue
            result = sweep.result(scenario.name)
            for node, wave in result.node_voltages.items():
                waveforms[f"{scenario.name}/{node}"] = wave
            for key, wave in result.branch_currents.items():
                waveforms[f"{scenario.name}/{key}"] = wave
        full_meta = {
            "n_scenarios": sweep.n_scenarios,
            "wall_time": sweep.wall_time,
            "amortised_wall_time": sweep.amortised_wall_time(),
            "scenario_names": [sc.name for sc in sweep.scenarios],
        }
        status = getattr(sweep, "status", None)
        if status:
            full_meta["scenario_status"] = dict(status)
        failures = getattr(sweep, "failures", None)
        if failures:
            full_meta["failures"] = dict(failures)
        full_meta.update(meta or {})
        return cls(
            times=sweep.times,
            waveforms=waveforms,
            engine=engine,
            perf_stats=dict(sweep.perf_stats),
            meta=full_meta,
            raw=sweep,
        )
