"""Bring-your-own-Verilog: every step of the pipeline on user source.

Demonstrates the individual substrates a downstream project would use:
parsing, elaboration, hierarchy inspection, hypergraph export (hMetis
.hgr interchange), partitioning at two granularities, and simulation
with a custom testbench stimulus.

Run:  python examples/custom_verilog_flow.py
"""

import tempfile
from pathlib import Path

from repro.core import design_driven_partition, multilevel_kway_partition
from repro.circuits import detect_clocks
from repro.hypergraph import (
    Clustering,
    flat_hypergraph,
    hierarchy_hypergraph,
    write_hgr,
)
from repro.sim import (
    ClusterSpec,
    InputEvent,
    SequentialSimulator,
    compile_circuit,
    run_partitioned,
)
from repro.verilog import compile_verilog, parse_source, write_netlist_verilog

SOURCE = """
// A 4-bit synchronous gray-code generator built from a binary counter
// stage and a bin->gray converter stage.
module bin_counter (clk, rst, q);
  input clk, rst; output [3:0] q;
  wire [3:0] d; wire c1, c2;
  not (d[0], q[0]);
  xor (d[1], q[1], q[0]);
  and (c1, q[1], q[0]);
  xor (d[2], q[2], c1);
  and (c2, q[2], c1);
  xor (d[3], q[3], c2);
  dffr f0 (q[0], d[0], clk, rst);
  dffr f1 (q[1], d[1], clk, rst);
  dffr f2 (q[2], d[2], clk, rst);
  dffr f3 (q[3], d[3], clk, rst);
endmodule

module bin2gray (b, g);
  input [3:0] b; output [3:0] g;
  buf (g[3], b[3]);
  xor (g[2], b[3], b[2]);
  xor (g[1], b[2], b[1]);
  xor (g[0], b[1], b[0]);
endmodule

module graygen (clk, rst, gray);
  input clk, rst;
  output [3:0] gray;
  wire [3:0] bin;
  bin_counter cnt (.clk(clk), .rst(rst), .q(bin));
  bin2gray conv (.b(bin), .g(gray));
endmodule
"""


def main() -> None:
    # parse + elaborate
    source = parse_source(SOURCE)
    print("modules:", ", ".join(source.modules))
    netlist = compile_verilog(SOURCE)
    print("elaborated:", netlist)
    for node in netlist.hierarchy.walk():
        indent = "  " * len(node.path)
        print(f"{indent}{node.name} ({node.module}): {node.total_gates} gates")

    # hypergraph views + hMetis interchange
    hier = hierarchy_hypergraph(netlist)
    flat = flat_hypergraph(netlist)
    print(f"\nhierarchy hypergraph: {hier}")
    print(f"flat hypergraph:      {flat}")
    out = Path(tempfile.mkdtemp()) / "graygen.hgr"
    write_hgr(flat, out)
    print(f"wrote hMetis interchange file: {out}")

    # partition both ways
    design = design_driven_partition(netlist, k=2, b=10.0, seed=0)
    ml = multilevel_kway_partition(flat, 2, 10.0, seed=0, refiner="fm")
    print(f"\ndesign-driven cut: {design.cut_size}  "
          f"(loads {design.part_weights.tolist()})")
    print(f"multilevel (flat) cut: {ml.cut_size}  "
          f"(loads {ml.part_weights.tolist()})")

    # a custom testbench: explicit reset sequence + 20 clock periods
    clk = detect_clocks(netlist)[0]
    rst = next(n for n in netlist.inputs if netlist.net_name(n) == "rst")
    events = [InputEvent(0, clk, 0), InputEvent(0, rst, 1),
              InputEvent(4, clk, 1), InputEvent(8, clk, 0),
              InputEvent(10, rst, 0)]
    for i in range(20):
        events += [InputEvent(12 + 8 * i, clk, 1),
                   InputEvent(16 + 8 * i, clk, 0)]

    circuit = compile_circuit(netlist)
    seq = SequentialSimulator(circuit)
    seq.add_inputs(events)
    seq.run()
    gray = sum(v << i for i, v in enumerate(seq.output_values()))
    print(f"\nafter 20 clocks the gray output is {gray:04b} "
          f"(binary count 20 % 16 = {20 % 16} -> gray {(20 % 16) ^ ((20 % 16) >> 1):04b})")

    # the same testbench on the 2-machine virtual cluster
    clusters, machines = design.to_simulation()
    report = run_partitioned(
        circuit, clusters, machines, events, ClusterSpec(num_machines=2)
    )
    print(f"parallel run verified={report.verified}, "
          f"speedup={report.speedup:.2f}, rollbacks={report.rollbacks}")

    # and back out to Verilog (flat) for other tools
    text = write_netlist_verilog(netlist)
    print(f"\nflattened Verilog is {len(text.splitlines())} lines; first three:")
    for line in text.splitlines()[:3]:
        print("  " + line)


if __name__ == "__main__":
    main()
