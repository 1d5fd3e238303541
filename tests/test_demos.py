"""Every demo runs to completion, so an API a demo uses cannot disappear
unnoticed.  Each runs in a subprocess from a copy of ``demos/``, so the
files the demos write never land in the checkout."""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tierplan

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name: str, tmp_path: Path) -> tuple[Path, subprocess.CompletedProcess]:
    """Run ``demos/<name>`` from a fresh copy; returns the copy's directory
    and the finished process."""
    copy = tmp_path / "demos"
    shutil.copytree(DEMOS, copy, ignore=shutil.ignore_patterns("*.csv", "*.png", "__pycache__"))
    package_root = str(Path(tierplan.__file__).resolve().parents[1])
    env = {**os.environ, "MPLBACKEND": "Agg",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(copy / name)], cwd=copy, capture_output=True, text=True,
                          timeout=120, env=env)
    return copy, proc


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(name, tmp_path):
    _, proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is None, reason="matplotlib is not installed")
def test_heatmap_demo_draws_the_png(tmp_path):
    copy, proc = run_demo("placement_heatmap.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (copy / "placement_heatmap.png").stat().st_size > 0
