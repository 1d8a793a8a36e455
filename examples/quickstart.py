#!/usr/bin/env python
"""Quickstart: train GPT-2 100B on 16 simulated p4d machines with GEMINI.

Runs one hour of simulated training, injects a software failure and a
hardware failure, and prints how GEMINI recovers from each — entirely from
in-memory checkpoints.

Usage:
    python examples/quickstart.py
"""

from repro.core.system import GeminiConfig, GeminiSystem
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.cluster import P4D_24XLARGE
from repro.training import GPT2_100B
from repro.units import HOUR, fmt_seconds


def main():
    system = GeminiSystem(
        GPT2_100B,
        P4D_24XLARGE,
        num_machines=16,
        config=GeminiConfig(num_replicas=2, num_standby=1),
    )
    print(f"cluster:    {system.cluster}")
    print(f"placement:  {system.policy.placement}")
    print(f"iteration:  {fmt_seconds(system.iteration_time)} "
          f"(checkpointing to CPU memory every iteration)")
    shard_gb = system.spec.checkpoint_bytes_per_machine / 1e9
    print(f"shard:      {shard_gb:.1f} GB per machine, "
          f"{system.spec.checkpoint_bytes_per_gpu / 1e9:.1f} GB per GPU\n")

    # A software failure at t=20 min and a hardware failure at t=40 min.
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [
            FailureEvent(20 * 60.0, FailureType.SOFTWARE, ranks=[5]),
            FailureEvent(40 * 60.0, FailureType.HARDWARE, ranks=[11]),
        ],
        system.inject_failure,
    )

    result = system.run(duration=1 * HOUR)

    print(f"simulated:  {fmt_seconds(result.elapsed)} of wall-clock training")
    print(f"progress:   {result.final_iteration} durable iterations")
    print(f"efficiency: {result.effective_ratio:.1%} effective training time\n")

    for index, record in enumerate(result.recoveries, 1):
        phases = ", ".join(
            f"{name} {fmt_seconds(duration)}"
            for name, duration in record.phase_durations().items()
        )
        print(
            f"recovery #{index}: {record.failure_type.value} failure of ranks "
            f"{record.failed_ranks}\n"
            f"  source: {record.source.value} (CPU memory: {record.from_cpu_memory})\n"
            f"  rolled back to iteration {record.rollback_iteration}; "
            f"total overhead {fmt_seconds(record.total_overhead)}\n"
            f"  phases: {phases}"
        )


if __name__ == "__main__":
    main()
