"""Eye-diagram construction for signal-integrity analysis.

The paper motivates the hybrid method with signal-integrity analysis of
driver/receiver links.  Eye diagrams are the standard SI summary of a long
bit stream; this module folds a sampled waveform modulo the bit period and
reports eye height/width so that examples, sweep reports and the Monte
Carlo statistical layer (:mod:`repro.sweep.montecarlo`) can quantify link
quality instead of eyeballing overlaid traces.

Folding is exact: each unit interval starts at its true bit boundary
``t_start + k * bit_time`` (per-trace start index ``round(k * bit_time / dt)``),
so a ``bit_time`` that is not an integer multiple of the sampling step
never accumulates phase drift across traces — the per-trace alignment
error is bounded by ``dt / 2`` for every trace, and the reported
``bit_time`` is exactly the one the caller asked for.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["EyeDiagram", "eye_diagram", "fold_start"]


@dataclasses.dataclass(frozen=True)
class EyeDiagram:
    """A folded eye diagram.

    Attributes
    ----------
    phase:
        Sample phases within the unit interval, in seconds.  Anchored to
        the true bit boundary: ``phase[0]`` is the offset of the first
        kept sample past the boundary (0 when ``t_start`` falls exactly
        on a sample), so all phases lie in ``[0, bit_time)``.
    traces:
        2-D array, one row per folded bit period.
    bit_time:
        Folding period in seconds — exactly the period requested from
        :func:`eye_diagram` (the phase axis holds
        ``floor(bit_time / dt)`` samples of it).
    """

    phase: np.ndarray
    traces: np.ndarray
    bit_time: float

    @property
    def n_traces(self) -> int:
        """Number of folded unit intervals."""
        return self.traces.shape[0]

    def eye_height(self, low: float, high: float, window: float = 0.2) -> float:
        """Vertical eye opening around the centre of the unit interval.

        The opening is measured in a window of fractional width ``window``
        centred at half the bit time: the gap between the lowest trace that
        should be HIGH and the highest trace that should be LOW, estimated
        as ``min(samples above midline) - max(samples below midline)``.
        Returns 0 when the eye is closed.
        """
        mid = 0.5 * (low + high)
        centre = 0.5 * self.bit_time
        half_win = 0.5 * window * self.bit_time
        mask = (self.phase >= centre - half_win) & (self.phase <= centre + half_win)
        if not np.any(mask):
            raise ValueError("window too narrow for the sampling step")
        windowed = self.traces[:, mask]
        highs = windowed[windowed.mean(axis=1) >= mid]
        lows = windowed[windowed.mean(axis=1) < mid]
        if highs.size == 0 or lows.size == 0:
            return 0.0
        opening = float(highs.min() - lows.max())
        return max(0.0, opening)

    def metrics(self, low: float, high: float) -> dict:
        """The standard summary of the folded eye, as one plain dict.

        Keys: ``eye_height``, ``eye_width``, ``v_min``, ``v_max`` and
        ``n_traces`` — the quantities the sweep reports tabulate per
        scenario (:mod:`repro.sweep.report`).
        """
        return {
            "eye_height": self.eye_height(low, high),
            "eye_width": self.eye_width(low, high),
            "v_min": float(self.traces.min()),
            "v_max": float(self.traces.max()),
            "n_traces": self.n_traces,
        }

    def eye_width(self, low: float, high: float) -> float:
        """Horizontal eye opening at the logic midpoint, in seconds.

        Measured as the phase span over which every trace is away from
        the midline by at least 5 % of the swing.  The phase axis is
        treated *circularly*: an eye centred at the unit-interval
        boundary (one contiguous clear arc that wraps from the end of
        the UI back to its start) is measured as one run, not split in
        two.  The span of a run of ``k`` clear samples is the phase
        distance between its first and last sample — ``(k - 1) * dt``
        for a non-wrapping run — and a fully clear axis reports the
        whole unit interval.  Returns 0 when the eye is closed.
        """
        mid = 0.5 * (low + high)
        guard = 0.05 * (high - low)
        clear = np.all(np.abs(self.traces - mid) >= guard, axis=0)
        if not np.any(clear):
            return 0.0
        if np.all(clear):
            return float(self.bit_time)
        # Longest circular run of clear phases: scan the doubled axis so a
        # run wrapping the UI boundary is seen as one contiguous stretch.
        n = clear.size
        doubled = np.concatenate([clear, clear])
        best_len = 0
        best_start = 0
        run = 0
        for i, flag in enumerate(doubled):
            if flag:
                run += 1
                if run > best_len:
                    best_len = run
                    best_start = i - run + 1
            else:
                run = 0
        start = best_start % n
        end = (best_start + best_len - 1) % n
        if end >= start:
            span = self.phase[end] - self.phase[start]
        else:  # wrapped run: go through the UI boundary once
            span = (self.phase[end] + self.bit_time) - self.phase[start]
        return float(span)


def eye_diagram(
    times: np.ndarray, values: np.ndarray, bit_time: float, t_start: float = 0.0
) -> EyeDiagram:
    """Fold a uniformly sampled waveform into an eye diagram.

    Each trace starts at its *true* bit boundary ``t_start + k * bit_time``
    (nearest-sample index ``round(k * bit_time / dt)``), so non-integer
    ``bit_time / dt`` ratios never accumulate drift across traces, and the
    returned :attr:`EyeDiagram.bit_time` is exactly the requested period.
    When ``t_start`` falls between samples the phase axis is anchored to
    the offset of the first kept sample past the boundary instead of
    silently starting at 0.

    Parameters
    ----------
    times, values:
        Uniformly sampled waveform.
    bit_time:
        Folding period.
    t_start:
        Time of the first bit boundary; earlier samples are discarded
        (a boundary before ``times[0]`` is advanced by whole bit periods
        until it enters the sampled span).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    start_idx, n_phase, t_start = fold_start(times, bit_time, t_start)
    bit_time = float(bit_time)
    dt = float(times[1] - times[0])
    ratio = bit_time / dt
    v = values[start_idx:]
    # Per-trace start index: round(k * bit_time / dt) — the k-th true bit
    # boundary, so alignment error is <= dt/2 for *every* trace instead of
    # drifting by k * (bit_time - round(ratio) * dt).
    max_k = int(np.floor((v.size - n_phase) / ratio)) + 2
    ks = np.arange(max(max_k, 0) + 1)
    starts = np.rint(ks * ratio).astype(np.int64)
    starts = starts[starts + n_phase <= v.size]  # trace 0 always fits
    folded = v[starts[:, None] + np.arange(n_phase)[None, :]]
    # Anchor the phase axis to the actual first-sample offset past the
    # boundary (0 only when t_start lies exactly on a sample).
    offset = max(0.0, float(times[start_idx] - t_start))
    phase = offset + dt * np.arange(n_phase)
    return EyeDiagram(phase=phase, traces=folded, bit_time=bit_time)


def fold_start(times: np.ndarray, bit_time: float, t_start: float = 0.0) -> tuple:
    """Where folding ``times`` into ``bit_time`` periods from ``t_start`` starts.

    Returns ``(start_idx, n_phase, t_start)``: the first sample at or
    after the first bit boundary, the samples of one unit interval
    (``floor(bit_time / dt)``, near-integer ratios snapped up), and that
    boundary, advanced by whole bit periods when ``t_start`` predates the
    data.  Raises ``ValueError`` unless the samples from the boundary on
    span one unit interval.  :func:`eye_diagram` folds through it, and a
    Monte Carlo spec is validated with it
    (:class:`repro.api.spec.SimulationSpec`), so the two cannot disagree.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise ValueError("need at least three samples")
    dt = float(times[1] - times[0])
    if dt <= 0 or not np.allclose(np.diff(times), dt, rtol=1e-6, atol=1e-18):
        raise ValueError("times must be uniformly spaced")
    if bit_time <= dt:
        raise ValueError("bit_time must exceed the sampling step")
    bit_time = float(bit_time)
    # Tolerate float fuzz: a sample within a relative hair of the boundary
    # is *on* it (times built as arange(n) * dt rarely hit t_start exactly).
    tol = 1e-6 * dt
    if times[0] > t_start + tol:
        # First boundary predates the data: advance by whole bit periods.
        t_start += bit_time * int(np.ceil((times[0] - t_start - tol) / bit_time))
    start_idx = int(np.searchsorted(times, t_start - tol))
    # Samples per unit interval; snap near-integer ratios up so e.g.
    # 2e-9 / 5e-12 = 399.9999... still folds 400-wide.
    n_phase = int(np.floor(bit_time / dt * (1.0 + 1e-9)))
    if times.size - start_idx < n_phase:
        raise ValueError("waveform shorter than one bit period")
    return start_idx, n_phase, t_start
