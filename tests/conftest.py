"""Fixtures shared across the test suite."""

from __future__ import annotations

import pytest

from repro.profile import codegen


@pytest.fixture
def cold_code_table():
    """The process's code table of source-tier units, emptied: for tests
    that count what a run compiles or finds already compiled."""
    codegen.CODE.clear()
    return codegen.CODE
