"""The crash flight recorder: ring bounds, dump artifacts, the ambient
install, and the never-raise dump contract."""

import json
import os

import pytest

from repro.observability import flightrecorder
from repro.observability.flightrecorder import (
    NULL_FLIGHT_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
)


@pytest.fixture(autouse=True)
def _reset_ambient():
    yield
    flightrecorder.install(None)


def test_ring_is_bounded_and_keeps_the_newest_events():
    recorder = FlightRecorder("t", capacity=3, clock=lambda: 1.0)
    for i in range(10):
        recorder.record("tick", n=i)
    events = recorder.snapshot()
    assert [e["n"] for e in events] == [7, 8, 9]
    assert recorder.recorded_total == 10
    assert recorder.as_dict()["buffered"] == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder("t", capacity=0)


def test_dump_writes_the_ring_with_pid_in_the_name(tmp_path):
    recorder = FlightRecorder(
        "daemon", artifacts_dir=str(tmp_path), clock=lambda: 42.0
    )
    recorder.record("admission.accepted", job_id="j-1")
    recorder.record("breaker.open", trips=2)
    path = recorder.dump("breaker-open")
    assert path is not None
    assert os.path.basename(path) == (
        f"flight-daemon-{os.getpid()}-breaker-open-001.json"
    )
    with open(path) as handle:
        doc = json.load(handle)
    assert doc["recorder"] == "daemon"
    assert doc["reason"] == "breaker-open"
    assert doc["pid"] == os.getpid()
    assert [e["kind"] for e in doc["events"]] == [
        "admission.accepted",
        "breaker.open",
    ]
    assert all(e["t"] == 42.0 for e in doc["events"])

    # A second dump gets its own sequence number — nothing overwritten.
    second = recorder.dump("breaker-open")
    assert second != path and second.endswith("-002.json")


def test_sibling_processes_cannot_collide_on_dump_names(tmp_path):
    # Same recorder name, same reason: the pid segment keeps a cluster's
    # three daemons from overwriting each other's black boxes.
    recorder = FlightRecorder("daemon", artifacts_dir=str(tmp_path))
    path = recorder.dump("sigterm-drain")
    assert f"-{os.getpid()}-" in os.path.basename(path)


def test_dump_reason_is_slugged_for_the_filesystem(tmp_path):
    recorder = FlightRecorder("r", artifacts_dir=str(tmp_path))
    path = recorder.dump("Engine Crash/j 9!")
    assert os.path.exists(path)
    assert "engine-crash-j-9" in os.path.basename(path)


def test_dump_without_artifacts_dir_is_a_noop():
    recorder = FlightRecorder("t")
    recorder.record("x")
    assert recorder.dump("whatever") is None


def test_dump_never_raises_on_an_unwritable_directory():
    recorder = FlightRecorder("t", artifacts_dir="/proc/definitely/not/writable")
    recorder.record("x")
    assert recorder.dump("crash") is None  # swallowed, not raised


def test_ambient_install_and_reset():
    assert flightrecorder.ambient() is NULL_FLIGHT_RECORDER
    mine = FlightRecorder("mine")
    previous = flightrecorder.install(mine)
    assert previous is NULL_FLIGHT_RECORDER
    assert flightrecorder.ambient() is mine
    flightrecorder.ambient().record("seen")
    assert [e["kind"] for e in mine.snapshot()] == ["seen"]
    flightrecorder.install(None)
    assert flightrecorder.ambient() is NULL_FLIGHT_RECORDER


def test_null_recorder_swallows_everything(tmp_path):
    null = NullFlightRecorder()
    null.record("anything", detail=1)
    assert null.snapshot() == []
    assert null.dump("reason", artifacts_dir=str(tmp_path)) is None
    assert list(tmp_path.iterdir()) == []
    assert null.enabled is False
