"""The exit-code contract at the process boundary: whatever the argv and
whatever becomes of stdout and stderr, the CLI ends in 0, 2, 3 or 4 and
never in a traceback.

``test_cli_fuzz.py`` checks the contract in process, with ``StringIO``
streams that cannot fail.  Here Hypothesis draws an argv from that file's
pools, or ``--help`` on a command, and a fate for each stream: a pipe,
``/dev/full``, or closed by a shell wrapper.  The CLI runs in a new
interpreter, once with both streams piped and once with the fates drawn.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_cli import run_process
from test_cli_fuzz import COMMAND_FLAGS, argvs, paths  # noqa: F401 (paths is the pools' file fixture)
from tierplan.cli import EXIT_ARGUMENT, EXIT_CONFIG, EXIT_IO, EXIT_OK

pytestmark = pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")

FATES = ("pipe", "full", "closed")
HELP = [["--help"], *([command, "--help"] for command in sorted(COMMAND_FLAGS))]


def _run(argv: list[str], stdout_fate: str, stderr_fate: str) -> subprocess.CompletedProcess:
    closing = " ".join(redirect for fate, redirect in ((stdout_fate, ">&-"), (stderr_fate, "2>&-"))
                       if fate == "closed")
    prefix = ("sh", "-c", f'exec "$@" {closing}', "sh") if closing else ()
    with open("/dev/full", "w") as full:
        stdout, stderr = (full if fate == "full" else subprocess.PIPE for fate in (stdout_fate, stderr_fate))
        return run_process(argv, prefix=prefix, stdout=stdout, stderr=stderr)


def _assert_documented(process: subprocess.CompletedProcess) -> None:
    """A documented exit code, no traceback, and one stderr line at most
    unless it is argparse's usage block, ``usage:`` text then an
    ``error:`` line."""
    assert process.returncode in (EXIT_OK, EXIT_ARGUMENT, EXIT_CONFIG, EXIT_IO), process.stderr
    errors = process.stderr or ""
    assert "Traceback" not in errors
    if process.returncode == EXIT_ARGUMENT and errors.startswith("usage:"):
        assert ": error: " in errors.splitlines()[-1], errors
    else:
        assert errors.count("\n") <= 1, errors


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_argv_and_stream_fate_ends_in_a_documented_exit_code(paths, data):  # noqa: F811
    argv = data.draw(st.one_of(argvs(paths), st.sampled_from(HELP)))
    stdout_fate, stderr_fate = data.draw(st.sampled_from(FATES)), data.draw(st.sampled_from(FATES))
    piped = _run(argv, "pipe", "pipe")
    _assert_documented(piped)
    fated = _run(argv, stdout_fate, stderr_fate)
    _assert_documented(fated)
    # a failing stdout fails only a run that writes to it; a failing stderr
    # loses the message, not the exit code
    failed_write = bool(piped.stdout) and stdout_fate != "pipe"
    assert fated.returncode == (EXIT_IO if failed_write else piped.returncode), (fated.stderr, piped.stderr)
