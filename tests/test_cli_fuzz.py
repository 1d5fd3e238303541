"""An argv fuzzer: every input ends in a documented exit code.

Hypothesis drives ``main()`` in process over all five subcommands, mixing
flags with NaN, infinities, -0, 1e308, subnormals, empty strings, unknown
presets, a file that is not UTF-8 and sizes over the element and cell
budgets.  Over-bound sizes are refused before anything is allocated, and
``simulate`` and ``compare`` always get a ``--duration`` from the pool
below, so each example stays fast.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tierplan.cli import EXIT_ARGUMENT, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from tierplan.config import PRESET_NAMES, load_preset, render_config

WORKLOAD_FLAGS = ("--rate", "--tpre", "--size", "--tproc", "--seed")
COMMAND_FLAGS = {
    "validate": ("--seed",),
    "predict": WORKLOAD_FLAGS,
    "heatmap": WORKLOAD_FLAGS + ("--rmax", "--tmax", "--resolution"),
    "simulate": WORKLOAD_FLAGS + ("--duration", "--warmup", "--max-elements"),
    "compare": WORKLOAD_FLAGS + ("--duration", "--warmup", "--repeats"),
}
# usable values are repeated, extreme ones most, so that two in three
# values drawn are accepted
EXTREME = ("1e308", "1e307", "5e-324", "-0")
REFUSED = ("nan", "inf", "-inf", "-5e-324", "", "x", "-1")
NUMBERS = ("0", "0.5", "2") * 2 + EXTREME * 2 + REFUSED
# 1e9 s is over the element budget unless the rate is near zero or capped
DURATIONS = ("0.5", "2") * 5 + EXTREME + REFUSED + ("1e9",)
FLAG_VALUES = {
    "--rate": NUMBERS,
    "--tpre": NUMBERS,
    "--size": NUMBERS,
    "--tproc": tuple(f"{tier}={value}" for tier in ("cloud", "edge", "endpoint") for value in NUMBERS)
               + ("fog=1", "=1", "edge=", "edge"),
    "--seed": ("0", "7") * 3 + ("-1", "1e308", ""),
    "--duration": DURATIONS,
    "--warmup": NUMBERS,
    "--max-elements": ("1", "2", "50") * 2 + ("-3", "0", "100000000", "", "x"),
    "--repeats": ("1", "2") * 3 + ("-1", "0", "100000000", "", "x"),
    "--rmax": NUMBERS,
    "--tmax": NUMBERS,
    "--resolution": ("2", "3", "5") * 2 + ("-1", "0", "1", "1001", "100000000", "", "x"),
}
NON_FINITE_TOKEN = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("fuzz")
    (root / "binary.conf").write_bytes(b"\xff\xfe\x00bad")
    (root / "edge-small.conf").write_text(render_config(load_preset("edge-small")))
    # parses into two errors, which the CLI lists after a line naming the file
    (root / "listing.conf").write_text(render_config(load_preset("edge-small")).replace(
        "devices_per_tier = 1,10,20", "devices_per_tier = 1,10\nunknown_key = 1"))
    names = ("binary.conf", "edge-small.conf", "listing.conf", "absent.conf", "out.txt", "trace.csv",
             "no-dir/out.txt", "no-dir/trace.csv")
    return {"dir": str(root), **{name: str(root / name) for name in names}}


def _rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 0


@st.composite
def argvs(draw, paths: dict[str, str]) -> list[str]:
    """Mostly the flags of the command drawn, sometimes any flag, an
    unknown command or no target."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) + ([""] if _rarely(draw) else [])))
    odd_targets = ("fog", "", *(paths[name] for name in ("binary.conf", "edge-small.conf", "listing.conf",
                                                          "absent.conf", "dir")))
    targets = st.sampled_from(PRESET_NAMES * (4 if command == "compare" else 1) + odd_targets)
    argv = [command, *draw(st.lists(targets, min_size=0 if _rarely(draw) else 1,
                                    max_size=4 if command == "compare" else 1))]
    if command in ("simulate", "compare"):
        argv += ["--duration", draw(st.sampled_from(DURATIONS))]
    flags = sorted(FLAG_VALUES) if _rarely(draw) else COMMAND_FLAGS.get(command, ())
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)) if flags else ():
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    if draw(st.booleans()):
        argv.append("--json")
    for flag, name in (("--out", "out.txt"), ("--trace", "trace.csv")):
        if flag == "--trace" and command == "simulate" and draw(st.booleans()) or _rarely(draw):
            argv += [flag, draw(st.sampled_from((paths[name],) * 3 + (paths[f"no-dir/{name}"], paths["dir"])))]
    return argv


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(paths, data):
    argv = data.draw(argvs(paths))
    out_file = paths["out.txt"]
    Path(out_file).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ARGUMENT, EXIT_CONFIG, EXIT_IO), (code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()

    output = stdout.getvalue()
    if "--out" in argv and argv[argv.index("--out") + 1] == out_file and Path(out_file).exists():
        output = Path(out_file).read_text()
    if not output:
        return
    if "--json" in argv:
        json.loads(output, parse_constant=_reject_constant)
    else:
        assert not NON_FINITE_TOKEN.search(output), output
