"""Shared fixtures: the rooms and corridor scan logs and a recorder of
likelihood deltas."""

import dataclasses
import hashlib

import pytest

from prfmap.cli import cmd_simulate
from prfmap.config import RunConfig
from prfmap.scanlog import read_scanlog
from prfmap.sensors import ObservationCache


@pytest.fixture(scope="session")
def rooms_log(tmp_path_factory):
    """The rooms world's sonar log for sim seed 0, simulated once per session."""
    cfg = dataclasses.replace(RunConfig(), world="rooms", sim_seed=0)
    prefix = str(tmp_path_factory.mktemp("rooms") / "rooms")
    assert cmd_simulate(cfg, prefix) == 0
    return read_scanlog(prefix + ".log")


@pytest.fixture(scope="session")
def corridor_log(tmp_path_factory):
    """The corridor world's laser log for sim seed 0, simulated once per session."""
    cfg = dataclasses.replace(RunConfig(), world="corridor", sim_seed=0)
    prefix = str(tmp_path_factory.mktemp("corridor") / "corridor")
    assert cmd_simulate(cfg, prefix) == 0
    return read_scanlog(prefix + ".log")


class DeltaStream:
    """Every ``ObservationCache.delta_for_edit`` result, in call order."""

    def __init__(self):
        self.deltas: list[float] = []

    def digest(self) -> str:
        """First 16 hex digits of the sha256 of the deltas' ``float.hex``."""
        text = repr([float(d).hex() for d in self.deltas])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture
def delta_stream(monkeypatch):
    """Records the deltas of every ObservationCache for the test's duration."""
    stream = DeltaStream()
    inner = ObservationCache.delta_for_edit

    def recorded(self, col, result):
        d = inner(self, col, result)
        stream.deltas.append(d)
        return d

    monkeypatch.setattr(ObservationCache, "delta_for_edit", recorded)
    return stream
