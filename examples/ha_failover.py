#!/usr/bin/env python3
"""Store-backed high availability with heterogeneous auto-restart.

A checkpoint store daemon runs in the background; a workload VM pushes
periodic checkpoints to it (content-addressed, so consecutive
checkpoints of a slowly-changing heap dedup heavily).  A supervisor
kills the machine at random instruction budgets and restarts the
program from the store's latest manifest on a platform differing in
*both* endianness and word size — every recovery exercises the paper's
full heterogeneous conversion path — until the program completes with
output bit-identical to an uninterrupted run.

Run:  python examples/ha_failover.py
"""

from __future__ import annotations

import tempfile

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.store import ChunkStore, FleetClient, FleetNode, HASupervisor

# The same bounded-sum workload as periodic_fault_tolerance.py: enough
# iterations for several checkpoint intervals, small enough to stay
# within 31-bit ints on the 32-bit machines.
SOURCE = """
let limit = 40000;;
let total = ref 0;;
let i = ref 0;;
while !i < limit do
  i := !i + 1;
  total := !total + !i
done;;
print_string "sum = ";;
print_int !total
"""


def main() -> None:
    code = compile_source(SOURCE)

    # The reference: one uninterrupted run on the starting platform.
    vm = VirtualMachine(
        get_platform("rodrigo"), code, VMConfig(chkpt_state="disable")
    )
    expected = vm.run().stdout

    # A live store daemon on an ephemeral port, plus a client for it.
    server = FleetNode(ChunkStore(tempfile.mkdtemp(prefix="repro-store-")))
    host, port = server.start()
    try:
        with FleetClient([(host, port)]) as client:
            supervisor = HASupervisor(
                code,
                client,
                "ha-demo",
                start_platform="rodrigo",
                checkpoint_every=20_000,
                fault_budgets=(30_000, 80_000),
                max_faults=3,
                seed=7,
            )
            report = supervisor.run()
    finally:
        server.stop()

    print(f"completed: {report.completed} (exit {report.exit_code})")
    print(f"faults injected : {report.faults_injected}")
    print(f"restarts        : {report.restarts} warm, "
          f"{report.cold_restarts} cold")
    print(f"platform path   : {' -> '.join(report.platforms_visited)}")
    print(f"checkpoints     : {report.checkpoints} "
          f"({len(report.generations)} generation(s) stored)")
    print(f"dedup ratio     : {report.upload_stats.dedup_ratio:.2f}x")
    print(f"work lost       : {report.work_lost_instructions} instructions")
    if report.restart_latencies:
        worst = max(report.restart_latencies) * 1e3
        print(f"restart latency : worst {worst:.1f} ms")
    print(f"output          : {report.stdout.decode()!r}")

    assert report.completed
    assert report.stdout == expected, "HA output diverged from reference"
    assert report.upload_stats.dedup_ratio > 2.0
    print("bit-identical to the uninterrupted run; no work repeated or lost.")


if __name__ == "__main__":
    main()
