"""Tests for the exception hierarchy contract."""

from __future__ import annotations

import pytest

from repro.util import (
    CollectiveIOError,
    CommunicatorError,
    ConfigurationError,
    DatatypeError,
    FileSystemError,
    FileViewError,
    MemoryPressureError,
    PartitionError,
    PlacementError,
    ReproError,
    SimulationError,
    StripingError,
    WorkloadError,
)

ALL_ERRORS = [
    ConfigurationError,
    SimulationError,
    FileSystemError,
    StripingError,
    DatatypeError,
    FileViewError,
    CommunicatorError,
    CollectiveIOError,
    PartitionError,
    PlacementError,
    MemoryPressureError,
    WorkloadError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        raise exc("boom")


def test_value_error_compatibility():
    """Config/validation errors double as ValueError for stdlib callers."""
    for exc in (ConfigurationError, DatatypeError, FileViewError, WorkloadError, StripingError):
        assert issubclass(exc, ValueError)


def test_runtime_error_compatibility():
    for exc in (SimulationError, FileSystemError, CommunicatorError, CollectiveIOError):
        assert issubclass(exc, RuntimeError)


def test_specialization_chains():
    assert issubclass(PartitionError, CollectiveIOError)
    assert issubclass(PlacementError, CollectiveIOError)
    assert issubclass(MemoryPressureError, CollectiveIOError)
    assert issubclass(StripingError, FileSystemError)
