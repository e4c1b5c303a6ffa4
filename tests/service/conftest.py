"""Service-test fixtures.

The front-end serves GOP-cache hits on its event loop, so a coroutine
or task that goes wrong there must fail a test, not just log. asyncio
reports a task exception that nobody retrieved only through its
logger; this fixture turns such a record into a test failure.
"""

from __future__ import annotations

import logging

import pytest


@pytest.fixture(autouse=True)
def _asyncio_logs_no_errors(caplog):
    yield
    errors = [record.getMessage() for record in caplog.get_records("call")
              if record.name == "asyncio"
              and record.levelno >= logging.ERROR]
    assert errors == []
