"""Pinned simulator output: any change to the engine that moves one bit of a
report or trace fails here.

Each digest is the sha256 of ``simulate PRESET --duration 8 --seed 811``
output without its manifest: the JSON payload as the CLI lays it out, and
the ``--trace`` CSV after its manifest line.  The values were recorded with
the event-loop engine that preceded the stage-wise one.

The report digests were re-recorded once, when "after warmup" came to mean
``t >= warmup`` everywhere (metrics exclude ``[0, warmup)``): the elements
generated at the warmup instant, 0.8 s here, moved out of
``backlog_at_warmup``, which halved on every preset (cloud and edge-large
80 -> 40, edge-small 40 -> 20, mist 20 -> 10).  No other report field and
no trace digest changed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tierplan.cli import EXIT_OK, main

GOLDEN = {
    "cloud": ("41391a13f75c00b6850dc8371c8d78dc3d27c044a981290877d4203f3276e731",
              "072d252e1a9fa18945c2787cd30b1f451a55eb43bf0cfe38de21508bea4e4c88"),
    "edge-large": ("aa722258bd30662959046b301efb89882e7c34611c2776ba11e2ec82404369ae",
                   "3f7e0056190d821ddfcd6231eabcf8b1be1704ad0f49403a659d76d56afd20d6"),
    "edge-small": ("162b22bf3ed69605cd41e33a8e9697126cb86db3e8ae94f7859a50591a3759fe",
                   "daa3dde8dab15db561fac5d50ea411e56d2b730af2ad631e96852c59b8931b87"),
    "mist": ("f0f122cdd8470cfb395a98c5079a58bc7d22cb2b1bb5ebeebd755319f913b556",
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
