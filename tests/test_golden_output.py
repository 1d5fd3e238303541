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

``predict`` and ``heatmap`` are pinned the same way, by the sha256 of their
``--json`` payload without its manifest: ``predict PRESET`` on every preset,
``heatmap`` on the reference family and ``heatmap mist --resolution 51``,
whose only option is a peer "endpoint" that replaces the local check.  The
analytic model behind them has been rewritten more than once for less code;
these digests hold every verdict and every grid cell to the bit, so such a
rewrite cannot move a load, a failed condition or a class unnoticed.  They
were recorded before the model's verdicts came from one builder and its
placements from one walk.

Three more argvs pin what the command line feeds those models: every
workload flag on ``predict mist`` and ``simulate edge-small``, each with a
rate other than the default 5 Hz, and ``compare`` over all four presets
with three repeats, whose rows average ``simulate`` reports.  They were
recorded before each command took its topology, workload and manifest
record from one call.
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

ANALYTIC_GOLDEN = {
    ("predict", "cloud", "--json"): "ce37329358c0c6b31fd9f48f5ca910d93af390c0c8f741e426443cbadf0aa591",
    ("predict", "edge-large", "--json"): "a2de783e3db14f8c1c47af829ddc5514a5819068283088e0f21dd4241dd44929",
    ("predict", "edge-small", "--json"): "dd3f139c7e2b5fe779dc4fa2a166391c169bd68952196ef142a2c9c00aa56cc4",
    ("predict", "mist", "--json"): "db78e0826b76944de0021a51de086193bfbeb9dd89cb39a88afd8dcf76b65c0d",
    ("heatmap", "--json"): "c11fbd71e41a06a05764b57ccf860cd6a52361c37acf0f9aa8202569ace270d0",
    ("heatmap", "mist", "--resolution", "51", "--json"):
        "24ea090c6ac3471c731aa03c3ca6a64f0926f8c08738f3c69abbb593f68a14e0",
    ("compare", "cloud", "edge-large", "edge-small", "mist", "--repeats", "3", "--duration", "8", "--seed", "811",
     "--json"): "647980173082d3b41b21470bac8561a89dab881b0b005700b145f16dae1e7ca1",
    ("predict", "mist", "--tpre", "0.3", "--rate", "7", "--size", "0.9", "--tproc", "endpoint=0.2", "--json"):
        "7abfb54b3c09de2c1d93fe28a4f80444db14d364bb0d6f74619710f7b2139719",
    ("simulate", "edge-small", "--tpre", "0.05", "--rate", "7", "--size", "0.9", "--tproc", "edge=0.2",
     "--duration", "8", "--seed", "811", "--json"):
        "e0c86231cbbdcdc19bf2f85bed00c7af9028441f1f705b73e235e81ab95f06a9",
}


def _body_digest(out: str) -> str:
    payload = json.loads(out)
    body = {key: value for key, value in payload.items() if key != "manifest"}
    return hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_simulate_output_is_unchanged(preset, capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["simulate", preset, "--duration", "8", "--seed", "811", "--json", "--trace", str(trace)])
    assert code == EXIT_OK
    report_digest = _body_digest(capsys.readouterr().out)
    trace_digest = hashlib.sha256(trace.read_bytes().partition(b"\n")[2]).hexdigest()
    assert (report_digest, trace_digest) == GOLDEN[preset]


@pytest.mark.parametrize("argv", sorted(ANALYTIC_GOLDEN), ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != "--json"))
def test_analytic_output_is_unchanged(argv, capsys):
    assert main(list(argv)) == EXIT_OK
    assert _body_digest(capsys.readouterr().out) == ANALYTIC_GOLDEN[argv]
