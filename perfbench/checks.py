"""Output checks shared by the in-process and service workloads."""

from __future__ import annotations

import numpy as np

#: largest relative deviation a fast-path job may show against its
#: ``engine.fast=false`` oracle
ORACLE_RTOL = 1e-9


def waveform_problems(times, waveforms: dict, duration: float) -> list:
    """Why a result's waveforms are unusable; empty when they are fine.

    Every waveform must be finite and sampled on the whole time axis,
    and the axis must be increasing and end within a step and a half of
    the simulated duration.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        return ["time axis has fewer than two samples"]
    steps = np.diff(times)
    problems = []
    if not (np.all(np.isfinite(times)) and np.all(steps > 0)):
        problems.append("time axis is not finite and increasing")
    elif abs(times[-1] - duration) > 1.5 * steps.max():
        problems.append(f"time axis ends at {times[-1]:.6g} s, expected {duration:.6g} s")
    if not waveforms:
        problems.append("no waveforms")
    for name, wave in waveforms.items():
        wave = np.asarray(wave, dtype=float)
        if wave.shape != times.shape:
            problems.append(f"{name}: {wave.size} samples, expected {times.size}")
        elif not np.all(np.isfinite(wave)):
            problems.append(f"{name}: non-finite samples")
    return problems


def relative_error(fast: dict, oracle: dict) -> float:
    """Largest ``max|fast - oracle| / max|oracle|`` over the waveforms."""
    if sorted(fast) != sorted(oracle):
        return float("inf")
    worst = 0.0
    for name, reference in oracle.items():
        reference = np.asarray(reference, dtype=float)
        scale = max(float(np.max(np.abs(reference))), 1e-300)
        worst = max(worst, float(np.max(np.abs(np.asarray(fast[name]) - reference))) / scale)
    return worst


def arrays_equal(json_doc: dict, npz) -> list:
    """Why an NPZ artifact differs from its JSON result document."""
    problems = []
    if not np.array_equal(np.asarray(json_doc["times"], dtype=float), npz["times"]):
        problems.append("times differ between /result and /waveforms")
    names = sorted(key[2:] for key in npz.files if key.startswith("w:"))
    if names != sorted(json_doc["waveforms"]):
        problems.append("waveform names differ between /result and /waveforms")
        return problems
    for name in names:
        if not np.array_equal(np.asarray(json_doc["waveforms"][name], dtype=float),
                              npz[f"w:{name}"]):
            problems.append(f"{name}: /waveforms differs from /result")
    return problems
