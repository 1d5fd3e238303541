"""Pinned simulator output: any change to the engine that moves one bit of a
report or trace fails here.

Each digest is the sha256 of ``simulate PRESET --duration 8 --seed 811``
output without its manifest: the JSON payload as the CLI lays it out, and
the ``--trace`` CSV after its manifest line.  The values were recorded with
the event-loop engine that preceded the stage-wise one.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tierplan.cli import EXIT_OK, main

GOLDEN = {
    "cloud": ("09fd882dcc541dc0e2a0044b33c18be8ef77943c785ae844bfbe6e354a47b0ef",
              "072d252e1a9fa18945c2787cd30b1f451a55eb43bf0cfe38de21508bea4e4c88"),
    "edge-large": ("7b122b3afe8b72db58f4f415f218e7694fc902003115add565ff7674ccd86310",
                   "3f7e0056190d821ddfcd6231eabcf8b1be1704ad0f49403a659d76d56afd20d6"),
    "edge-small": ("a9678caab1483404b44213759c4ece1df31c7ac8b17963ff9fc1482b86f7230a",
                   "daa3dde8dab15db561fac5d50ea411e56d2b730af2ad631e96852c59b8931b87"),
    "mist": ("9639b23018925bdd9519566c2e125e323511bb6bda77e5b491ac5cff2e462fe7",
             "55fd36e8898214a32d7ab439f586a00fd8ac3762e3263f12e3363ae6030249b5"),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_simulate_output_is_unchanged(preset, capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["simulate", preset, "--duration", "8", "--seed", "811", "--json", "--trace", str(trace)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    body = {key: value for key, value in payload.items() if key != "manifest"}
    report_digest = hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()
    trace_digest = hashlib.sha256(trace.read_bytes().partition(b"\n")[2]).hexdigest()
    assert (report_digest, trace_digest) == GOLDEN[preset]
