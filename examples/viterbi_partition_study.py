"""The paper's Table 1 / Table 2 comparison in miniature.

Partitions the synthetic Viterbi decoder with (a) the design-driven
hierarchy-aware algorithm and (b) the multilevel k-way engine on the
flattened netlist, across the paper's (k, b) grid, and prints both cut
tables side by side.

Run:  python examples/viterbi_partition_study.py [--full]
      --full uses the paper-shaped 388-instance single decoder (~1 min).
"""

import argparse

from repro.bench import format_table
from repro.circuits import load_circuit
from repro.core import (
    PAPER_B_VALUES,
    PAPER_K_VALUES,
    design_driven_partition,
    multilevel_kway_partition,
)
from repro.hypergraph import flat_hypergraph


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="use the 388-instance paper-shaped single decoder")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    name = "viterbi-paper-single" if args.full else "viterbi-single"
    netlist = load_circuit(name)
    print(f"workload: {name} -> {netlist.num_gates} gates, "
          f"{len(netlist.hierarchy.children)} top-level instances\n")

    flat = flat_hypergraph(netlist)
    rows = []
    for k in PAPER_K_VALUES:
        for b in PAPER_B_VALUES:
            design = design_driven_partition(netlist, k=k, b=b, seed=args.seed)
            ml = multilevel_kway_partition(flat, k, b, seed=args.seed,
                                           refiner="fm")
            rows.append([
                k, b, design.cut_size,
                "yes" if design.balanced else "NO",
                design.flatten_steps, ml.cut_size,
                f"{ml.cut_size / max(design.cut_size, 1):.1f}x",
            ])
            print(f"  k={k} b={b}: design={design.cut_size} "
                  f"multilevel={ml.cut_size}")
    print()
    print(format_table(
        ["k", "b", "design cut", "balanced", "flattened", "multilevel cut",
         "ratio"],
        rows,
        title="Design-driven (Table 1) vs multilevel-on-flat (Table 2)",
    ))
    total_d = sum(r[2] for r in rows)
    total_m = sum(r[5] for r in rows)
    print(f"\naggregate cut ratio: {total_m / max(total_d, 1):.1f}x "
          f"(paper reports ~4.5x on the 1.2M-gate netlist)")


if __name__ == "__main__":
    main()
