"""Follow elements through the simulated pipeline.

Runs the small edge deployment for 40 simulated seconds, prints the latency
breakdown and per-worker loads, and writes the full per-element trace to
pipeline_trace.csv for inspection.
"""

from pathlib import Path

from tierplan.config import load_preset
from tierplan.simulator import SimParams, simulate, write_trace_csv
from tierplan.topology import DEFAULT_WORKLOAD, build_topology


def main() -> None:
    topology = build_topology(load_preset("edge-small"))
    params = SimParams(duration=40.0, seed=42)
    report = simulate(topology, DEFAULT_WORKLOAD, params)

    print(f"simulated {params.duration:g} s, warmup {params.warmup_s:g} s, seed {params.seed}")
    print(f"elements: {report.generated} generated, {report.completed} completed, "
          f"{report.measured} measured after warmup")
    print(f"throughput: {report.throughput_eps:.1f} elements/s\n")

    print(f"mean end-to-end latency: {report.latency_mean_s * 1000:7.1f} ms "
          f"(sd {report.latency_sd_s * 1000:.1f} ms)")
    print(f"  communication          {report.communication_mean_s * 1000:7.1f} ms")
    print(f"  compute                {report.compute_mean_s * 1000:7.1f} ms")
    print(f"  queueing               {report.queueing_mean_s * 1000:7.1f} ms\n")

    print("per-worker measured load (analytic prediction: 93.3%):")
    for worker_id, load in report.worker_load_percent.items():
        busy = report.worker_busy_fraction[worker_id]
        print(f"  {worker_id}: {load:6.2f}% of quota, cores busy {busy * 100:5.1f}% of the time")

    slowest = max((r for r in report.elements if r.phase == "done"), key=lambda r: r.end_to_end)
    print(f"\nslowest element: {slowest.source} #{slowest.index}, "
          f"{slowest.end_to_end * 1000:.1f} ms "
          f"(queued {slowest.queue_wait * 1000:.1f} ms at {slowest.worker})")

    out = Path(__file__).with_name("pipeline_trace.csv")
    with out.open("w", newline="", encoding="utf-8") as stream:
        write_trace_csv(report, stream)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
