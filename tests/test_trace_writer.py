"""The column-wise trace CSV writer against the ``csv.writer`` one it
replaced (``tests/trace_oracle.py``), byte for byte, through the forked
and the in-process path, and its memory bound."""

from __future__ import annotations

import io
import os
import random
import threading
import tracemalloc

import pytest
import trace_oracle as oracle
from hypothesis import example, given, settings, strategies as st
from test_engine_oracle import run_params, topologies, workloads

from tierplan import simulator
from tierplan.cli import EXIT_IO, main
from tierplan.config import load_preset, tier_pair
from tierplan.simulator import SimParams, _truncated_normal, simulate, write_trace_csv
from tierplan.topology import DEFAULT_WORKLOAD, Device, Link, Topology, WorkloadProfile, build_topology

# ids csv.writer has to quote (a comma, a quote, a line break) or leaves as
# they are (a space, the empty id)
ids = st.text(alphabet=st.sampled_from([",", '"', " ", "\n", "\r", "a", "b"]), max_size=4)


@st.composite
def hand_built_topologies(draw):
    """Workers with odd ids, either each processing its own elements or
    each serving a few offloaded sources."""
    names = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    cores, quota = draw(st.integers(min_value=1, max_value=3)), draw(st.sampled_from([0.5, 1.0]))
    if draw(st.booleans()):  # local: every device is a worker assigned to itself
        devices = tuple(Device(name, "endpoint", cores, quota, "worker") for name in names)
        return Topology(devices, None, {name: (name,) for name in names})
    n_workers = draw(st.integers(min_value=1, max_value=len(names) - 1))
    workers, sources = names[:n_workers], names[n_workers:]
    link = Link(tier_pair("edge", "endpoint"), draw(st.sampled_from([0.0, 20.0])),
                draw(st.sampled_from([0.0, 30.0])), 8.0)
    devices = tuple(Device(name, "edge", cores, quota, "worker") for name in workers) + tuple(
        Device(name, "endpoint", 1, 0.5, "source") for name in sources)
    assignment = {w: tuple(sources[i::n_workers]) for i, w in enumerate(workers)}
    return Topology(devices, link, assignment)


ODD_SOURCES = ('say "hi"', "line\nbreak", "", " cr\r")
ODD_IDS = Topology(
    (Device("a,b", "edge", 1, 1.0, "worker"), *(Device(i, "endpoint", 1, 0.5, "source") for i in ODD_SOURCES)),
    Link(tier_pair("edge", "endpoint"), 20.0, 30.0, 8.0), {"a,b": ODD_SOURCES})

# processing and preprocessing times of -0.0 put -0.0 and 0.0 in one column
signed_zero_workloads = st.builds(
    lambda proc, pre, rate: WorkloadProfile({"cloud": proc, "edge": proc, "endpoint": proc}, pre, rate, 0.54),
    st.sampled_from([-0.0, 0.0, 0.1, 0.25]), st.sampled_from([-0.0, 0.0, 0.001]),
    st.sampled_from([0.0, 2.0, 5.0]))


def assert_same_bytes(topology, workload, params):
    report = simulate(topology, workload, params)
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    write_trace_csv(report, got)
    oracle.write_trace_csv(report, want)
    assert got.getvalue() == want.getvalue()
    return report


class TestMatchesCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(topologies, workloads, run_params())
    def test_built_and_local_topologies(self, topology, workload, params):
        assert_same_bytes(topology, workload, params)

    @settings(max_examples=150, deadline=None)
    @given(hand_built_topologies(), signed_zero_workloads | workloads, run_params())
    @example(ODD_IDS, WorkloadProfile({"edge": 0.3}, 0.001, 5.0, 0.54), SimParams(duration=3.0, warmup=0.0, seed=5))
    def test_hand_built_topologies_with_odd_ids(self, topology, workload, params):
        assert_same_bytes(topology, workload, params)

    # 30 s is several chunks of whole rounds on every preset, the last one short
    @pytest.mark.parametrize("name", ["cloud", "edge-large", "edge-small", "mist"])
    @pytest.mark.parametrize("params", [
        SimParams(duration=30.0, seed=811),
        SimParams(duration=30.0, warmup=0.0, seed=7, max_elements=40),
    ], ids=["default", "warmup-0-capped"])
    def test_presets(self, name, params):
        assert_same_bytes(build_topology(load_preset(name)), OVERLOAD, params)

    def test_rate_zero_writes_the_header_only(self):
        report = assert_same_bytes(build_topology(load_preset("cloud")), DEFAULT_WORKLOAD.with_rate(0.0),
                                   SimParams(duration=10.0))
        buffer = io.StringIO(newline="")
        write_trace_csv(report, buffer)
        assert buffer.getvalue().count("\r\n") == 1

    def test_no_sources_writes_the_header_only(self):
        worker = Device("edge-0", "edge", 2, 0.75, "worker")
        report = assert_same_bytes(Topology((worker,), None, {}), DEFAULT_WORKLOAD, SimParams(duration=10.0))
        buffer = io.StringIO(newline="")
        write_trace_csv(report, buffer)
        assert buffer.getvalue() == ("source,worker,index,generated_s,preprocess_s,transfer_s,propagation_s,"
                                     "queue_wait_s,service_s,end_to_end_s,completed_s,phase\r\n")

    def test_signed_zeros_keep_their_sign(self):
        # -0.0 service for completed elements, 0.0 for the others
        workload = WorkloadProfile({"edge": -0.0}, 0.0, 5.0, 0.54)
        report = assert_same_bytes(build_topology(load_preset("edge-small")), workload, SimParams(duration=2.0))
        assert {repr(r.service) for r in report.elements} == {"0.0", "-0.0"}


# 0.16 s at the edge overloads edge-small, so queues and backlog grow
OVERLOAD = WorkloadProfile({"cloud": 0.14, "edge": 0.16, "endpoint": 0.11}, 0.001, 5.0, 0.54)


def fail_in_the_child(monkeypatch):
    """Make the chunk formatter raise in any process but this one."""
    parent, format_rounds = os.getpid(), simulator._format_rounds

    def formatter(*args):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed")
        return format_rounds(*args)

    monkeypatch.setattr(simulator, "_format_rounds", formatter)


def assert_no_child_left(tmp_path):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list((tmp_path / "spool").iterdir()) == []


class TestSplitAcrossTwoProcesses:
    """A trace of two chunks or more is formatted half in a forked child,
    half in process, and either way writes the oracle's bytes."""

    @pytest.mark.parametrize("path", ["fork", "in-process"])
    def test_several_chunks_match_the_oracle(self, path, forks, monkeypatch, tmp_path):
        if path == "in-process":
            monkeypatch.delattr(os, "fork")
        # 500 rounds of 20 endpoints: twenty chunks of 25 rounds
        assert_same_bytes(build_topology(load_preset("edge-small")), OVERLOAD, SimParams(duration=100.0, seed=4))
        assert len(forks) == (path == "fork")
        assert_no_child_left(tmp_path)

    def test_one_chunk_is_formatted_in_process(self, forks):
        # 20 rounds of 20 endpoints: one chunk of 400 rows
        assert_same_bytes(build_topology(load_preset("edge-small")), OVERLOAD, SimParams(duration=4.0, seed=4))
        assert forks == []

    def test_odd_ids_survive_the_child(self, forks):
        sources = (*ODD_SOURCES, "lone \ud800 surrogate")
        topology = Topology(
            (Device("a,b", "edge", 1, 1.0, "worker"), *(Device(i, "endpoint", 1, 0.5, "source") for i in sources)),
            Link(tier_pair("edge", "endpoint"), 20.0, 30.0, 8.0), {"a,b": sources})
        # 1,001 rounds of 5 endpoints: eleven chunks of 100 rounds
        assert_same_bytes(topology, WorkloadProfile({"edge": 0.3}, 0.001, 5.0, 0.54),
                          SimParams(duration=200.0, seed=5))
        assert len(forks) == 1

    def test_child_failure_raises_oserror_and_leaves_nothing(self, forks, monkeypatch, tmp_path):
        fail_in_the_child(monkeypatch)
        report = simulate(build_topology(load_preset("edge-small")), OVERLOAD, SimParams(duration=100.0))
        assert report.measured < simulator._FORK_MEASURED and forks == []
        with pytest.raises(OSError, match="exited with 1"):
            write_trace_csv(report, io.StringIO(newline=""))
        assert len(forks) == 1
        assert_no_child_left(tmp_path)

    def test_child_failure_exits_with_the_io_code(self, forks, monkeypatch, tmp_path, capsys):
        fail_in_the_child(monkeypatch)
        code = main(["simulate", "edge-small", "--duration", "100", "--tproc", "edge=0.16",
                     "--trace", str(tmp_path / "trace.csv")])
        assert code == EXIT_IO
        assert "cannot write" in capsys.readouterr().err
        assert len(forks) == 1
        assert_no_child_left(tmp_path)

    def test_stream_failure_reaps_the_child(self, forks, tmp_path):
        report = simulate(build_topology(load_preset("edge-small")), OVERLOAD, SimParams(duration=100.0))
        assert report.measured < simulator._FORK_MEASURED and forks == []

        class Full:
            def write(self, text):
                if text.startswith("source,"):
                    return len(text)
                raise OSError("no space left")

        with pytest.raises(OSError, match="no space left"):
            write_trace_csv(report, Full())
        assert len(forks) == 1
        assert_no_child_left(tmp_path)

    def test_failed_fork_formats_both_halves_in_process(self, forks, monkeypatch, tmp_path):
        def refused():
            forks.append(os.getpid())
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        assert_same_bytes(build_topology(load_preset("edge-small")), OVERLOAD, SimParams(duration=100.0, seed=4))
        assert len(forks) == 1
        assert_no_child_left(tmp_path)

    def test_second_thread_keeps_the_formatting_in_process(self, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert_same_bytes(build_topology(load_preset("edge-small")), OVERLOAD, SimParams(duration=100.0))
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert forks == []


class _Sink:
    """A stream that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


def test_writer_memory_is_bounded_by_a_chunk():
    """The trace is written in chunks of about 500 rows: writing a 12.6 MB
    trace peaks at about 0.3 MiB in this process (1.05 MiB with chunks of
    2,000 rows)."""
    report = simulate(build_topology(load_preset("cloud")), DEFAULT_WORKLOAD, SimParams(duration=400.0, seed=1))
    sink = _Sink()
    tracemalloc.start()
    try:
        write_trace_csv(report, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 10_000_000
    assert peak < 2**19


class TestTruncatedNormal:
    """The inlined draw against ``random.Random.normalvariate``, value for
    value, redraws included."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 811, 2**32])
    @pytest.mark.parametrize("mu, sigma", [(0.045, 0.005), (0.001, 0.005), (0.0, 0.03), (0.02, 1e-9)])
    def test_same_values_as_normalvariate(self, seed, mu, sigma):
        reference = random.Random(seed)
        want, draws = [], 0
        while len(want) < 500:
            value = reference.normalvariate(mu, sigma)
            draws += 1
            if value >= 0:
                want.append(value)
        got = _truncated_normal(random.Random(seed).random, mu, sigma, 500)
        assert [repr(v) for v in got] == [repr(v) for v in want]
        if mu < sigma:  # more than a seventh of the draws are negative
            assert draws > 550

    def test_stream_continues_across_calls(self):
        reference = random.Random(9)
        want = [reference.normalvariate(0.01, 0.02) for _ in range(200)]
        want = [v for v in want if v >= 0][:20]
        uniform = random.Random(9).random
        got = _truncated_normal(uniform, 0.01, 0.02, 7) + _truncated_normal(uniform, 0.01, 0.02, 13)
        assert got == want
