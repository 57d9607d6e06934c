"""Simulator toolbox tour: analysis, cost model, waveforms, saved partitions.

Covers the substrate features around the core algorithm:

1. structural analysis of a design (why partitioners behave as they do),
2. the virtual cluster's cost model (testbed ratios, not host timings),
3. dumping a VCD waveform of a simulation run,
4. saving a partition to JSON and reusing it.

Run:  python examples/waveforms_and_analysis.py [outdir]
"""

import sys
import tempfile
from pathlib import Path

from repro.circuits import load_circuit, natural_schedule, random_vectors
from repro.core import design_driven_partition, load_partition, save_partition
from repro.hypergraph import analyze_netlist
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    VcdWriter,
    compile_circuit,
    run_partitioned,
)


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    outdir.mkdir(parents=True, exist_ok=True)

    netlist = load_circuit("cpu-test")
    circuit = compile_circuit(netlist)

    # 1. structural analysis
    print("=== structural analysis (cpu-test) ===")
    print(analyze_netlist(netlist).summary())

    # 2. the cost model: modeled seconds from the paper's testbed ratios,
    # so every modeled time is the same on any host
    schedule = natural_schedule(netlist)
    events = random_vectors(netlist, 40, seed=1, schedule=schedule)
    spec = ClusterSpec(num_machines=2)
    print("\n=== cost model ===")
    print(f"gate event {spec.event_cost * 1e6:.2f} us "
          f"({1 / spec.event_cost:,.0f} events/s), message "
          f"{spec.msg_cpu_overhead * 1e6:.0f} us CPU + "
          f"{spec.msg_latency * 1e6:.0f} us latency, checkpoint "
          f"{spec.save_cost * 1e9:.1f} ns/byte")

    # 3. VCD waveform of a short run
    sim = SequentialSimulator(circuit)
    vcd = VcdWriter(netlist)  # primary I/O by default
    vcd.attach(sim)
    sim.add_inputs(random_vectors(netlist, 10, seed=2, schedule=schedule))
    sim.run()
    wave_path = outdir / "cpu.vcd"
    vcd.write(wave_path)
    print(f"\n=== waveform ===\nwrote {wave_path} "
          f"({len(wave_path.read_text().splitlines())} lines; open in GTKWave)")

    # 4. partition once, save, reuse
    part = design_driven_partition(netlist, k=2, b=15.0, seed=0)
    part_path = outdir / "cpu_k2.json"
    save_partition(part, part_path)
    reloaded = load_partition(part_path, netlist)
    clusters, machines = reloaded.to_simulation()
    report = run_partitioned(circuit, clusters, machines, events, spec)
    print(f"\n=== saved partition reuse ===")
    print(f"partition file: {part_path}")
    print(f"cut={reloaded.cut_size}, speedup={report.speedup:.2f} "
          f"(modeled), verified={report.verified}")


if __name__ == "__main__":
    main()
