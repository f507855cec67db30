"""Shared fixtures: reference device parameters, library macromodels and
the shard pool's decision.

The library macromodels take a second or two to fit, so they are built once
per test session.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.macromodel.library import (
    ReferenceDeviceParameters,
    make_reference_driver_macromodel,
    make_reference_receiver_macromodel,
)


@pytest.fixture(scope="session")
def params() -> ReferenceDeviceParameters:
    """Default synthetic 1.8 V CMOS technology parameters."""
    return ReferenceDeviceParameters()


@pytest.fixture(scope="session")
def driver_model(params):
    """Session-wide analytic reference driver macromodel."""
    return make_reference_driver_macromodel(params)


@pytest.fixture(scope="session")
def receiver_model(params):
    """Session-wide analytic reference receiver macromodel."""
    return make_reference_receiver_macromodel(params)


#: the core count the pool-decision fixtures pin with ``os.cpu_count``
CORES = 4


@pytest.fixture()
def cores(monkeypatch):
    """Pin ``os.cpu_count``, so a sweep's pool decision does not follow the host."""
    monkeypatch.setattr(os, "cpu_count", lambda: CORES)
    return CORES


@pytest.fixture()
def paying_steps(cores):
    """``steps(n_groups, n_shards)``: a linear sweep length whose pool pays.

    1.25 times the break-even of :func:`repro.sweep.shard.linear_pool_pays`
    on the pinned core count, derived from its constants, so the shape
    follows any re-measurement of them.
    """
    from repro.sweep.shard import LANE_GROUP_STEP_S, POOL_ROUND_S, linear_pool_pays

    def steps(n_groups: int, n_shards: int) -> int:
        k = min(n_shards, cores)
        per_step = n_groups * LANE_GROUP_STEP_S * (1.0 - 1.0 / k)
        count = math.ceil(1.25 * POOL_ROUND_S / per_step)
        assert linear_pool_pays(n_groups, count, n_shards)
        assert not linear_pool_pays(n_groups, count // 2, n_shards)
        return count

    return steps


@pytest.fixture()
def no_pool(monkeypatch):
    """Fail the test if a shard pool starts."""
    import repro.sweep.shard as shard_mod

    def refuse(payloads, workers):
        raise AssertionError("a shard pool was started")

    monkeypatch.setattr(shard_mod, "_run_pool", refuse)
