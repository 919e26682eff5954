"""Run a Python script in a session of its own, so that a hang kills what
it forked (a stuck reader) along with it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import botgrid

SOURCE_ROOT = Path(botgrid.__file__).resolve().parents[1]


def run_in_own_session(script: str, *args: str, hang: str, flags=(), timeout=120):
    """(returncode, stdout, stderr) of `python *flags -c script *args`, run
    from the source root; on a timeout, kill the session and fail the test
    with `hang`."""
    with subprocess.Popen(
        [sys.executable, *flags, "-c", script, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=SOURCE_ROOT, start_new_session=True,
    ) as run:
        try:
            out, err = run.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            pytest.fail(hang)
    return run.returncode, out, err
