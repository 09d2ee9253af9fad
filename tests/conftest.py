"""Fixtures for every test module."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_process_left():
    """Every child process a test starts, forked workers included, is reaped by the end of the test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
