"""Seeded job streams of the three benchmark workloads.

Every job is a plain dict in the ``SimulationSpec`` JSON form.  The shapes
follow the repository's job fixtures (``rbf_link``, ``sparse_ladder``,
``fdtd1d_link``, ``validation_line_3d``, ``montecarlo_sweep``,
``linear_link``, ``pattern_corner_sweep``) but are written out here, so the
benchmark's inputs do not move when the fixtures do.  Only keys that differ
from the spec defaults are written; the devices block is never varied, so
every job of a shape asks for identical device models.

A stream is a pure function of its seed: ``random.Random(seed)`` is
consumed in a fixed order, and the cycle of shapes is fixed, so the share
of each shape in a run does not depend on the seed.
"""

from __future__ import annotations

import copy
import random

FORMAT_VERSION = 1

#: segments on each side of the 256-unknown dense/sparse MNA crossover
#: (a ladder of 125 sections still assembles dense, 130 goes sparse);
#: narrow ranges, because dense cost grows with the square of the size
DENSE_SEGMENTS = (105, 120)
SPARSE_SEGMENTS = (140, 170)

#: link_jobs: one cycle of shapes, cheapest and dearest interleaved
LINK_CYCLE = (
    "rbf_link", "ladder_dense", "fdtd1d_link", "rbf_link", "ladder_sparse",
    "rbf_link", "fdtd1d_link", "ladder_dense", "ladder_sparse", "fdtd3d_link",
)

#: service_mix: one cycle of requests.  ``repeat:<shape>`` resubmits an
#: earlier fresh spec of that shape (a store hit), ``dup`` submits a fresh
#: ``rbf_link`` twice back to back (single-flight: one solve, one hit),
#: ``variant`` resubmits an earlier ``linear_link`` with only
#: ``engine.workers`` changed (a miss today).  Repeats name their shape
#: so that what runs beside them does not depend on the seed.
SERVICE_CYCLE = (
    "linear_link", "rbf_link", "repeat:linear_link", "linear_link", "dup",
    "linear_link", "repeat:rbf_link", "pattern_corner_sweep", "variant",
    "repeat:linear_link", "linear_link", "rbf_link", "repeat:pattern_corner_sweep",
)

def _spec(kind: str, label: str, **blocks) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "label": label}
    doc.update(blocks)
    return doc


def _pattern(rng: random.Random, bits: int) -> str:
    """A random bit pattern that starts low and has at least one rising edge.

    Every fixture pattern starts with ``0``: the RBF driver's Newton
    solve fails to converge on its first step when the line starts high.
    """
    while True:
        pattern = "0" + "".join(rng.choice("01") for _ in range(bits - 1))
        if "1" in pattern:
            return pattern


def _line(rng: random.Random, load: str = "rc") -> dict:
    link = {
        "z0": round(rng.uniform(110.0, 150.0), 3),
        "delay": round(rng.uniform(3.8e-10, 4.2e-10), 14),
        "load": load,
    }
    if load == "rc":
        link["load_resistance"] = round(rng.uniform(300.0, 700.0), 3)
        link["load_capacitance"] = round(rng.uniform(0.5e-12, 2.0e-12), 16)
    return link


# ---------------------------------------------------------------------------
# single-link shapes
# ---------------------------------------------------------------------------

def rbf_link(rng: random.Random, duration: float = 5e-9) -> dict:
    """Paper Fig. 5 link: RBF driver, ideal line, RBF receiver (MNA)."""
    return _spec(
        "circuit", "perfbench rbf_link", duration=duration,
        stimulus={"bit_pattern": _pattern(rng, 3)},
        link=_line(rng, load="receiver"), engine={"dt": 5e-12},
    )


def ladder(rng: random.Random, segments: int, duration: float = 6e-9) -> dict:
    """RBF link over an LC ladder; the MNA backend is chosen by size."""
    link = _line(rng)
    link["segments"] = segments
    return _spec(
        "circuit", "perfbench sparse_ladder", duration=duration,
        stimulus={"bit_pattern": _pattern(rng, 3)},
        devices={"n_centers": 40}, link=link, engine={"dt": 1e-11},
    )


def fdtd1d_link(rng: random.Random, duration: float = 5e-9) -> dict:
    """Paper Fig. 4 link: 1-D FDTD line with an RC load."""
    return _spec(
        "fdtd1d", "perfbench fdtd1d_link", duration=duration,
        stimulus={"bit_pattern": _pattern(rng, 3)}, link=_line(rng),
    )


def fdtd3d_link(rng: random.Random, duration: float = 1.5e-9) -> dict:
    """Quarter-scale validation-line structure on the 3-D Yee hybrid."""
    return _spec(
        "fdtd3d", "perfbench validation_line_3d", duration=duration,
        stimulus={"bit_pattern": _pattern(rng, 3), "bit_time": 5e-10},
        link=_line(rng), structure={"scale": 0.25},
    )


def _link_job(shape: str, rng: random.Random) -> dict:
    if shape == "ladder_dense":
        spec = ladder(rng, rng.randint(*DENSE_SEGMENTS))
    elif shape == "ladder_sparse":
        spec = ladder(rng, rng.randint(*SPARSE_SEGMENTS))
    else:
        spec = {"rbf_link": rbf_link, "fdtd1d_link": fdtd1d_link,
                "fdtd3d_link": fdtd3d_link}[shape](rng)
    return {"shape": shape, "spec": spec}


# ---------------------------------------------------------------------------
# sweep shapes
# ---------------------------------------------------------------------------

def montecarlo_sweep(stats_seed: int, workers: int = 2, samples: int = 16,
                     duration: float = 6e-9) -> dict:
    """A statistical sweep of the linear link, sharded over ``workers``."""
    stats = {
        "samples": samples,
        "seed": stats_seed,
        "distributions": {
            "bit_pattern": {"kind": "pattern", "bits": 3},
            "corner.load_resistance": {"kind": "uniform", "low": 300.0, "high": 700.0},
            "corner.z0": {"kind": "normal", "low": 110.0, "high": 150.0,
                          "mean": 131.0, "std": 6.0},
            "drive_strength": {"kind": "normal", "low": 0.85, "high": 1.15,
                               "mean": 1.0, "std": 0.05},
        },
        "corner_groups": 2,
        "node": "far",
        "low": 0.0,
        "high": 1.8,
        "t_start": 2e-9,
        "bins": 16,
        "refine_rounds": 2,
        "refine_samples": 4,
        "refine_shrink": 0.5,
    }
    return _spec(
        "sweep", "perfbench montecarlo_sweep", duration=duration,
        engine={"sweep_family": "linear", "workers": workers}, stats=stats,
    )


def linear_link(rng: random.Random, duration: float = 6e-9) -> dict:
    """Bit-pattern x corner sweep of the linear link (shared-LU family)."""
    scenarios = []
    for k in range(4):
        corner = {}
        if k % 2:
            corner["load_resistance"] = round(rng.uniform(300.0, 700.0), 3)
        if k >= 2:
            corner["z0"] = round(rng.uniform(100.0, 150.0), 3)
        scenarios.append({"name": f"s{k}", "bit_pattern": _pattern(rng, 3), "corner": corner})
    return _spec(
        "sweep", "perfbench linear_link", duration=duration, link=_line(rng),
        scenarios=scenarios, engine={"dt": 1e-11, "sweep_family": "linear"},
    )


def pattern_corner_sweep(rng: random.Random, duration: float = 6e-9) -> dict:
    """Two bit patterns x two line corners on the RBF link."""
    patterns = [_pattern(rng, 8), _pattern(rng, 8)]
    z_alt = round(rng.uniform(95.0, 105.0), 3)
    scenarios = [
        {"name": f"p{i}/{tag}", "bit_pattern": pattern, "corner": corner}
        for i, pattern in enumerate(patterns)
        for tag, corner in (("nominal", {}), ("zalt", {"z0": z_alt}))
    ]
    return _spec(
        "sweep", "perfbench pattern_corner_sweep", duration=duration,
        link=_line(rng), scenarios=scenarios, engine={"dt": 1e-11},
    )


# ---------------------------------------------------------------------------
# the streams
# ---------------------------------------------------------------------------

def link_stream(seed: int):
    """link_jobs: an endless stream of single-link jobs."""
    rng = random.Random(seed)
    while True:
        for shape in LINK_CYCLE:
            yield _link_job(shape, rng)


def mc_stream(seed: int):
    """mc_sweep: Monte Carlo sweeps whose ``stats.seed`` come from the seed."""
    rng = random.Random(seed)
    while True:
        yield {"shape": "montecarlo_sweep", "spec": montecarlo_sweep(rng.randrange(1, 2**31))}


def service_stream(seed: int):
    """service_mix: requests indexed from 0; ``ref`` names an earlier index.

    The client sends a ``repeat`` only once the spec it repeats has
    completed, so it is served from the store.
    """
    rng = random.Random(seed)
    fresh: dict = {}           # shape -> indexes of its fresh items
    unvaried: list = []        # fresh linear_link indexes not yet varied
    specs: dict = {}
    index = 0
    while True:
        for slot in SERVICE_CYCLE:
            item = {"index": index, "kind": "fresh", "ref": None, "copies": 1}
            if slot.startswith("repeat:"):
                ref = rng.choice(fresh[slot[len("repeat:"):]])
                item.update(kind="repeat", ref=ref, shape=specs[ref][0], spec=specs[ref][1])
            elif slot == "variant":
                ref = unvaried.pop(rng.randrange(len(unvaried)))
                spec = copy.deepcopy(specs[ref][1])
                spec["engine"]["workers"] = 1
                item.update(kind="variant", ref=ref, shape=specs[ref][0], spec=spec)
            else:
                shape = "rbf_link" if slot == "dup" else slot
                spec = {"linear_link": linear_link, "rbf_link": rbf_link,
                        "pattern_corner_sweep": pattern_corner_sweep}[shape](rng)
                item.update(shape=shape, spec=spec)
                if slot == "dup":
                    item.update(kind="dup", copies=2)
                fresh.setdefault(shape, []).append(index)
                specs[index] = (shape, spec)
                if shape == "linear_link":
                    unvaried.append(index)
            item["scenarios"] = len(item["spec"].get("scenarios", ())) or 1  # a link is one
            yield item
            index += 1


def stream(workload: str, seed: int):
    """The job stream of a workload."""
    return {"link_jobs": link_stream, "mc_sweep": mc_stream,
            "service_mix": service_stream}[workload](seed)


# ---------------------------------------------------------------------------
# warm-up: one short job per engine path a workload uses
# ---------------------------------------------------------------------------

def warmup_specs(workload: str) -> list:
    """Short jobs run once before timing, fixed whatever the seed.

    They pay for lazy imports and first-call costs on every engine path
    the workload uses; their labels and small device models keep them
    apart from timed jobs.
    """
    rng = random.Random(0)
    if workload == "link_jobs":
        specs = [rbf_link(rng, 1e-9), ladder(rng, DENSE_SEGMENTS[0], 1e-9),
                 ladder(rng, SPARSE_SEGMENTS[0], 1e-9), fdtd1d_link(rng, 1e-9),
                 fdtd3d_link(rng, 2e-10)]
    elif workload == "mc_sweep":
        specs = [montecarlo_sweep(1, samples=4, duration=4e-9)]
    else:
        specs = [linear_link(rng, 1e-9), rbf_link(rng, 1e-9),
                 pattern_corner_sweep(rng, 1e-9)]
    for spec in specs:
        spec["label"] = "perfbench warm-up"
        if spec["kind"] != "sweep" or spec["engine"].get("sweep_family") != "linear":
            # small models: the fitting code runs, without the full fit cost
            spec["devices"] = {"n_centers": 30}
    return specs
