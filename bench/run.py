"""End-to-end benchmark of the tierplan CLI, with a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark runs the package in ``src/`` next to this
directory and writes only under ``bench/out/``.  Workloads are defined in
``workloads.py``.

``--trace 0`` is a closed loop with one client: one CLI process at a time,
each started after the previous one exits, alternating the set-up command
(work set to zero) and the full command until the next pair would pass
``--seconds``.  It reports the medians of the end-to-end metrics.

``--trace 1`` repeats passes of three processes: the untraced full command;
``traced.py pipeline``, which runs the same command through the package's
functions with a span around each; and ``traced.py probes`` (device
lookups, the rate-0 simulation and the endpoint sweep).  It reports the
median per-layer self times and counts.

Every output is checked (see ``workloads.py``); a failed check counts in
``failed``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run's environment, digests,
operations and spans also go to ``bench/out/result-*.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from traced import SWEEP_ENDPOINTS, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "import.numpy_s": "s",
    "import.tierplan_s": "s",
    "config.load_s": "s",
    "topology.build_s": "s",
    "topology.lookup_s": "s",
    **{f"topology.build_s.n{n}": "s" for n in SWEEP_ENDPOINTS},
    **{f"topology.lookup_s.n{n}": "s" for n in SWEEP_ENDPOINTS},
    "simulator.simulate_s": "s",
    "simulator.elements": "count",
    "simulator.elements_per_s": "elements/s",
    "simulator.simulate_s.rate0": "s",
    "simulator.rss_growth_mb": "MiB",
    "simulator.bytes_per_element": "B",
    "simulator.completed": "count",
    "simulator.backlog": "count",
    "simulator.to_dict_s": "s",
    "simulator.trace_csv_s": "s",
    "simulator.trace_bytes": "B",
    "analytic.reference_family_s": "s",
    "analytic.heatmap_s": "s",
    "analytic.cells_per_s": "cells/s",
    "cli.json_s": "s",
    "cli.output_bytes": "B",
    "run.traced_total_s": "s",
    "run.untraced_wall_s": "s",
    "run.tracing_overhead_s": "s",
    "run.unaccounted_s": "s",
}


@dataclass
class Op:
    """One process the benchmark started and waited for."""

    kind: str
    wall_s: float
    rss_mib: float
    exit_code: int
    digest: str | None = None
    failures: tuple[str, ...] = ()


class Launcher:
    """The small process that starts every measured process (see launch.py),
    so that each one's peak RSS is its own."""

    def __init__(self) -> None:
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stdout: Path) -> tuple[float, float, int]:
        """Run ``argv`` with the package on the path and stdout to a file;
        return (wall seconds from start to exit, peak RSS in MiB, exit code)."""
        request = {"argv": argv, "stdout": str(stdout), "cwd": str(ROOT), "env": self.env}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall_s"], reply["rss_mib"], reply["exit_code"]


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "tierplan.cli", *args]


class Run:
    """The operations of one benchmark run on one plan, and their checks."""

    def __init__(self, plan, out_dir: Path, launcher: Launcher):
        self.plan = plan
        self.out_dir = out_dir
        self.spawn = launcher.run
        self.ops: list[Op] = []
        self.first_digest: dict[str, str] = {}

    def record(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    def command(self, kind: str) -> Op:
        """Run the full or set-up command once and check what it printed."""
        stdout = self.out_dir / f"{self.plan.workload.name}-{kind}.json"
        wall, rss, code = self.spawn(cli(self.plan.full if kind == "full" else self.plan.setup), stdout)
        return self.record(self.checked(kind, kind, wall, rss, code, stdout))

    def checked(self, label: str, kind: str, wall: float, rss: float, code: int, stdout: Path) -> Op:
        """An Op for a process that printed the output of the ``kind`` command.
        Every run of a command with one seed must give the same result."""
        digest, failures = self.plan.check(kind, code, stdout.read_bytes() if stdout.exists() else b"")
        first = self.first_digest.setdefault(kind, digest)
        if digest is not None and digest != first:
            failures = [*failures, f"result {digest[:12]} differs from the first {kind} run's {first[:12]}"]
        return Op(label, wall, rss, code, digest, tuple(failures))

    def prepare(self) -> None:
        """Validate generated inputs, then warm the file cache and bytecode
        with one set-up command; neither is timed."""
        if self.plan.validate:
            from workloads import check_validate

            stdout = self.out_dir / f"{self.plan.workload.name}-validate.json"
            wall, rss, code = self.spawn(cli(self.plan.validate), stdout)
            self.record(Op("validate", wall, rss, code, None,
                           tuple(check_validate(code, stdout.read_bytes()))))
        self.command("setup")

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Medians over pairs of set-up and full commands run for ``seconds``.
        On a shared host, spells of stolen or boosted CPU move single runs
        either way; the median of a run moves least."""
        pairs = repeat(seconds, lambda: (self.command("setup"), self.command("full")))
        wall = statistics.median(full.wall_s for _, full in pairs)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(setup.wall_s for setup, _ in pairs),
            "items_per_s": self.plan.items / wall,
            "peak_rss_mb": statistics.median(full.rss_mib for _, full in pairs),
        }

    def traced_pass(self, index: int, spans: list) -> dict[str, float]:
        name = self.plan.workload.name
        untraced = self.command("full")
        result, payload = self.out_dir / f"{name}-pipeline.spans", self.out_dir / f"{name}-traced.json"
        wall, rss, code = self.spawn(
            [sys.executable, str(BENCH / "traced.py"), "pipeline", str(result), str(payload), "--",
             *self.plan.full],
            self.out_dir / f"{name}-pipeline.out")
        self.record(self.checked("traced", "full", wall, rss, code, payload))
        pipeline = json.loads(result.read_text()) if code == 0 else {"spans": [], "counts": {}}
        probe_result = self.out_dir / f"{name}-probes.spans"
        probe_wall, probe_rss, code = self.spawn(
            [sys.executable, str(BENCH / "traced.py"), "probes", str(probe_result), "--", *self.plan.full],
            self.out_dir / f"{name}-probes.out")
        self.record(Op("probes", probe_wall, probe_rss, code, None,
                       () if code == 0 else (f"probes exit code {code}",)))
        probes = json.loads(probe_result.read_text()) if code == 0 else {"spans": []}
        for process, data in (("pipeline", pipeline), ("probes", probes)):
            spans.extend({"workload": name, "pass": index, "process": process, "name": n,
                          "start": s, "end": e, "parent": p} for n, s, e, p in data["spans"])
        own, probed, counts = self_times(pipeline["spans"]), self_times(probes["spans"]), pipeline["counts"]
        simulate_s, heatmap_s = own.get("simulator.simulate", 0.0), own.get("analytic.heatmap", 0.0)
        elements, cells = counts.get("simulator.elements", 0), counts.get("analytic.cells", 0)
        rss_growth = counts.get("simulator.rss_growth_mb", 0.0)
        return {
            "import.numpy_s": own.get("import.numpy", 0.0),
            "import.tierplan_s": own.get("import.tierplan", 0.0),
            "config.load_s": own.get("config.load", 0.0),
            "topology.build_s": own.get("topology.build", 0.0),
            "topology.lookup_s": probed.get("topology.lookup", 0.0),
            **{f"topology.build_s.n{n}": probed.get(f"topology.build.n{n}", 0.0) for n in SWEEP_ENDPOINTS},
            **{f"topology.lookup_s.n{n}": probed.get(f"topology.lookup.n{n}", 0.0) for n in SWEEP_ENDPOINTS},
            "simulator.simulate_s": simulate_s,
            "simulator.elements": elements,
            "simulator.elements_per_s": elements / simulate_s if simulate_s else 0.0,
            "simulator.simulate_s.rate0": probed.get("simulator.simulate.rate0", 0.0),
            "simulator.rss_growth_mb": rss_growth,
            "simulator.bytes_per_element": rss_growth * 2**20 / elements if elements else 0.0,
            "simulator.completed": counts.get("simulator.completed", 0),
            "simulator.backlog": counts.get("simulator.backlog", 0),
            "simulator.to_dict_s": own.get("simulator.to_dict", 0.0),
            "simulator.trace_csv_s": own.get("simulator.trace_csv", 0.0),
            "simulator.trace_bytes": counts.get("simulator.trace_bytes", 0),
            "analytic.reference_family_s": own.get("analytic.reference_family", 0.0),
            "analytic.heatmap_s": heatmap_s,
            "analytic.cells_per_s": cells / heatmap_s if heatmap_s else 0.0,
            "cli.json_s": own.get("cli.json", 0.0),
            "cli.output_bytes": counts.get("cli.output_bytes", 0),
            "run.traced_total_s": wall,
            "run.untraced_wall_s": untraced.wall_s,
            "run.tracing_overhead_s": wall - untraced.wall_s,
            "run.unaccounted_s": wall - sum(own.values()),
        }

    def per_layer(self, seconds: float, spans: list) -> dict[str, float]:
        """Median per-layer metrics of traced passes for ``seconds``."""
        index = itertools.count()
        passes = repeat(seconds, lambda: self.traced_pass(next(index), spans))
        return {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}


def repeat(seconds: float, step) -> list:
    """Results of ``step()``, called once and then again while another call,
    as long as the median call so far, would end within ``seconds``."""
    results, times = [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() + statistics.median(times) <= deadline:
        start = time.perf_counter()
        results.append(step())
        times.append(time.perf_counter() - start)
    return results


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def benchmark(workload, seed: int, seconds: float, trace: bool, out_dir: Path,
              launcher: Launcher) -> dict:
    """One benchmark run; prints the report and returns the result line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload.prepare(out_dir, seed), out_dir, launcher)
    run.prepare()
    spans: list = []
    metrics = run.per_layer(seconds, spans) if trace else run.end_to_end(seconds)
    units = PER_LAYER if trace else END_TO_END
    env = environment()
    failed = [op for op in run.ops if op.failures]

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload.name} seed {seed}: {len(run.ops)} processes, one at a time "
          f"(closed loop, 1 client)")
    for kind in dict.fromkeys(op.kind for op in run.ops):
        walls = [op.wall_s for op in run.ops if op.kind == kind]
        print(f"{kind}: {len(walls)} runs, wall s fastest {min(walls):.4f} median "
              f"{statistics.median(walls):.4f} slowest {max(walls):.4f}")
    for kind, digest in run.first_digest.items():
        print(f"digest {workload.name} seed={seed} {kind}={digest}")
    for op in failed:
        for failure in op.failures:
            print(f"FAILED {op.kind}: {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops_attempted = {len(run.ops)} count")
    print(f"ops_failed = {len(failed)} count")

    (out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "environment": env,
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "digests": run.first_digest,
        "ops": [op.__dict__ for op in run.ops],
        "spans": spans,
    }, indent=1, default=list))
    return {
        "correct": not failed,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tierplan" / "cli.py").is_file():
        print(f"bench: no tierplan sources at {SRC}", file=sys.stderr)
        return 2

    with Launcher() as launcher:  # started before the benchmark grows
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                           OUT, launcher)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
