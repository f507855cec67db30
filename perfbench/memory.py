"""Peak memory of a process tree, sampled from ``/proc``.

A forked pool worker shares most of its pages with its parent, so summing
the RSS of the tree would count those pages once per process.  Each process's
proportional set size (``Pss`` in ``/proc/<pid>/smaps_rollup``: a shared
page divided among its sharers) is summed instead, which counts each
resident page once.
"""

from __future__ import annotations

import threading

PERIOD_S = 0.05


def _children(pid: int) -> list:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:  # it ended
        return []


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_mb(pid: int) -> float:
    """Summed PSS of ``pid`` and all its descendants, in MB."""
    total, todo = 0, [pid]
    while todo:
        current = todo.pop()
        total += _pss_kb(current)
        todo.extend(_children(current))
    return total / 1024.0


class PeakSampler:
    """Samples ``tree_mb(pid)`` every ``PERIOD_S`` from a thread until stopped."""

    def __init__(self, pid: int):
        self.pid = pid
        self.peak = tree_mb(pid)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.peak = max(self.peak, tree_mb(self.pid))

    def stop(self) -> float:
        """Stop sampling; the peak seen, in MB."""
        self._stop.set()
        self._thread.join()
        return max(self.peak, tree_mb(self.pid))
