from __future__ import annotations

import os
import tempfile

import pytest

# A full deployment file exercising every key class: emulation-only keys,
# per-tier triples, the same tier pair as a latency entry (two values) and a
# throughput entry (one value), comments, and a benchmark section.
FULL_CONFIG = """\
[infrastructure]
hypervisor = qemu
thread_pinning = True

# counts for cloud,edge,endpoint
devices_per_tier = 10,0,40
cores_per_device = 4,0,1
quota_per_cpu = 1.0,0,0.5

# one-way latency in ms: average,variability
cloud_to_cloud = 1,0
cloud_to_endpoint = 45,5

# throughput in Mbit/s
cloud_to_cloud = 1000
cloud_to_endpoint = 8

machine_address = 192.168.1.1,192.168.1.2

[benchmark]
use_benchmark = True
data_generation_frequency = 5
application = image_classification
resource_manager = kubernetes
"""

MINIMAL_CONFIG = """\
[infrastructure]
devices_per_tier = 0,1,2
cores_per_device = 0,2,1
quota_per_cpu = 0,0.75,0.5
edge_to_endpoint = 7.5,0
edge_to_endpoint = 8
"""


@pytest.fixture
def full_config_text() -> str:
    return FULL_CONFIG


@pytest.fixture
def minimal_config_text() -> str:
    return MINIMAL_CONFIG


@pytest.fixture
def full_config_file(tmp_path, full_config_text):
    path = tmp_path / "deployment.conf"
    path.write_text(full_config_text)
    return path


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """Every ``os.fork`` made, counted, with two CPUs on any machine and the
    temporary directory in ``tmp_path / "spool"``; after the test, no child
    is left.  ``simulate`` forks for runs of ``_FORK_MEASURED`` measured
    elements or more, so a test that counts the trace writer's forks
    simulates fewer."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (tmp_path / "spool").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "spool"))
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
