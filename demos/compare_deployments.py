"""Put the four built-in deployments side by side.

For each preset: the analytic worker load, then three seeded simulation runs
averaged into a latency breakdown. Shows why the edge deployments answer
faster than the cloud even though the cloud runs at lower load.
"""

from tierplan.analytic import family_from_topology, offload_viability
from tierplan.config import PRESET_NAMES, load_preset
from tierplan.simulator import SimParams, latency_summary, simulate
from tierplan.topology import DEFAULT_WORKLOAD, build_topology

REPEATS = 3
DURATION = 40.0
BASE_SEED = 42


def main() -> None:
    print(f"{REPEATS} runs per preset, {DURATION:g} simulated seconds each, "
          f"seeds {BASE_SEED}..{BASE_SEED + REPEATS - 1}\n")
    header = (f"{'preset':<12}{'load %':>8}  {'total ms':>9}{'sd':>6}  "
              f"{'comm':>7}{'compute':>9}{'queue':>7}")
    print(header)
    print("-" * len(header))

    for name in PRESET_NAMES:
        topology = build_topology(load_preset(name))
        family = family_from_topology(topology)
        placement, option = next(iter(family.options.items()))
        verdict = offload_viability(DEFAULT_WORKLOAD, family.endpoint, option.worker,
                                    option.endpoints_per_worker, option.link)

        runs = [simulate(topology, DEFAULT_WORKLOAD, SimParams(duration=DURATION, seed=BASE_SEED + i))
                for i in range(REPEATS)]
        summary = latency_summary(*zip(*((r.latency_mean_s, r.communication_mean_s, r.compute_mean_s,
                                          r.queueing_mean_s) for r in runs)))
        total, sd, comm, compute, queue = (value * 1000 for value in summary.values())

        print(f"{name:<12}{verdict.load_percent:>8.1f}  {total:>9.1f}{sd:>6.2f}  "
              f"{comm:>7.1f}{compute:>9.1f}{queue:>7.1f}")

    print("\nthe cloud pays ~15 ms more propagation than the large edge;")
    print("the small edge and the peer-to-peer split trade hardware for compute time.")


if __name__ == "__main__":
    main()
