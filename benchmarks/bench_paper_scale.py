"""Paper-scale partitioning study: the 388-instance decoder.

`viterbi-paper` reproduces the RPI netlist's *module structure* exactly
(388 top-level instances; ~93k gates vs the paper's 1.2M — gate count
only stretches wall clock).  This benchmark runs Table 1 vs Table 2 at
the paper's module count, the closest structural match to the original
experiment in this reproduction.  A second block runs the design-driven
algorithm at the paper's *gate* count as well: `viterbi-xl` (1.2 M
gates, 984 instances) through the text front end, k in {2, 3, 4, 8} x
b in {5, 10}, beside the flat multilevel cut the scale ladder committed
for the same gates.  It stops at partitioning by choice,
not by budget: a 388-instance decoder simulates 10 vectors over 390
LPs, verified, in ~6 s (ROADMAP.md, "Simulation at the paper's shape"
— which is also why the simulation tables belong on a single-channel
config and not on this four-channel one).
"""

import json
import time

from _shared import CFG, OUT_DIR, emit, table_rows

from repro.baselines import multilevel_partition
from repro.bench import format_table
from repro.circuits import XL_CONFIG, load_circuit, viterbi_verilog
from repro.core import design_driven_partition
from repro.hypergraph import Clustering, flat_hypergraph
from repro.obs.sampler import ResourceSampler
from repro.verilog import compile_verilog

XL_KS = (2, 3, 4, 8)
XL_BS = (5.0, 10.0)


def _flat_xl_rung() -> tuple[dict, dict]:
    """The committed flat-multilevel XL row of the scale ladder and its
    host channel — read, never re-run (13.8 s, 1 GB)."""
    doc = json.loads((OUT_DIR / "BENCH_scale_ladder.json").read_text())
    row = next(r for r in doc["rows"] if r["rung"] == "viterbi-xl")
    return {**row, "b": doc["params"]["b"]}, doc["host_timings"]


def xl_design_driven():
    """Design-driven multiway at the paper's gate count.

    ``viterbi-xl`` goes through the *text* front end (the streamed form
    carries no hierarchy), so the partitioner sees the design as the
    paper does: ~1 000 weighted visible nodes instead of 1.2 M anonymous
    vertices.  Returns ``(title, headers, rows, host walls)``.
    """
    walls = {}
    with ResourceSampler() as sampler:
        t0 = time.perf_counter()
        netlist = compile_verilog(viterbi_verilog(XL_CONFIG))
        walls["xl.elaborate_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        clustering = Clustering.top_level(netlist)
        walls["xl.top_level_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        hg = clustering.hypergraph()
        walls["xl.hypergraph_s"] = time.perf_counter() - t0
        rows = []
        for k in XL_KS:
            for b in XL_BS:
                t0 = time.perf_counter()
                d = design_driven_partition(clustering, k=k, b=b,
                                            seed=CFG.seed)
                walls[f"xl.partition.k{k}.b{b}_s"] = time.perf_counter() - t0
                rows.append([k, b, d.cut_size, d.balanced, d.flatten_steps])
    walls["xl.peak_rss_kb"] = sampler.peak_rss_kb
    title = (
        f"Design-driven at the paper's gate count (viterbi-xl as Verilog "
        f"text: {netlist.num_gates} gates, "
        f"{len(netlist.hierarchy.children)} instances -> "
        f"{hg.num_vertices} visible nodes, {hg.num_edges} hyperedges, "
        f"{hg.num_pins} pins)"
    )
    return title, ["k", "b", "design cut", "balanced", "flattened"], rows, walls


def test_paper_scale_partitioning(benchmark):
    netlist = load_circuit("viterbi-paper")
    flat = flat_hypergraph(netlist)

    def sweep():
        rows = []
        for k in (2, 3, 4):
            for b in (2.5, 10.0):
                d = design_driven_partition(netlist, k=k, b=b, seed=CFG.seed)
                ml = multilevel_partition(flat, k, b, seed=CFG.seed)
                rows.append(
                    [k, b, d.cut_size, d.balanced, d.flatten_steps,
                     ml.cut_size,
                     f"{ml.cut_size / max(d.cut_size, 1):.1f}x"]
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["k", "b", "design cut", "balanced", "flattened",
               "multilevel cut", "ratio"]
    paper_table = format_table(
        headers,
        rows,
        title=(
            f"Paper-scale study ({netlist.num_gates} gates, "
            f"{len(netlist.hierarchy.children)} instances — the RPI "
            f"netlist's module count)"
        ),
    )
    params = {"circuit": "viterbi-paper",
              "num_gates": netlist.num_gates,
              "num_instances": len(netlist.hierarchy.children)}
    del netlist, flat  # the XL block below peaks at ~0.5 GB on its own

    xl_title, xl_headers, xl_rows, walls = xl_design_driven()
    flat_xl, ladder_walls = _flat_xl_rung()
    partition_walls = [v for name, v in walls.items()
                       if name.startswith("xl.partition.")]
    xl_text = "\n".join([
        format_table(xl_headers, xl_rows, title=xl_title),
        f"flat multilevel + batch refiner on the same gates as "
        f"{flat_xl['gates']} anonymous vertices (scale ladder, "
        f"k={flat_xl['k']}, b={flat_xl['b']}): cut {flat_xl['cut']}",
        "k=2 and k=4 are cut 4 by construction (XL_CONFIG has four "
        "independent channels); k=3 and k=8 test the algorithm",
        "host walls (quarantined):",
        f"  design-driven: parse + elaborate "
        f"{walls['xl.elaborate_s']:.1f}s, top-level clustering "
        f"{walls['xl.top_level_s']:.2f}s, hypergraph "
        f"{walls['xl.hypergraph_s']:.2f}s, partition "
        f"{min(partition_walls):.2f}-{max(partition_walls):.2f}s per "
        f"(k, b), peak RSS {walls['xl.peak_rss_kb'] / 1024:.0f} MB "
        f"(over the paper's 512 MB node: 1.2 M gate-name strings)",
        f"  flat (committed ladder run): partition "
        f"{ladder_walls['rung.viterbi-xl.partition_s']:.1f}s, peak RSS "
        f"{ladder_walls['rung.viterbi-xl.peak_rss_kb'] / 1024:.0f} MB",
    ])
    emit(
        "paper_scale",
        paper_table + "\n\n" + xl_text,
        rows=table_rows(headers, rows) + [
            {"circuit": "viterbi-xl", **row}
            for row in table_rows(xl_headers, xl_rows)
        ],
        params={**params, "xl_flat_cut": flat_xl["cut"],
                "xl_flat_k": flat_xl["k"], "xl_flat_b": flat_xl["b"]},
        host_timings=walls,
    )
    # the paper's headline at the paper's module count: the design
    # algorithm is never worse (ties happen where the channel structure
    # hands both the natural split) and wins by a wide factor at k=4
    assert all(r[2] <= r[5] for r in rows)
    assert all(r[3] for r in rows), "design-driven must meet Formula 1"
    ratios = [r[5] / max(r[2], 1) for r in rows]
    assert max(ratios) >= 3.0, f"expected a multi-x gap somewhere: {ratios}"
    # ... and at the paper's gate count: balanced without flattening a
    # single super-gate, and below the flat engine where k does not
    # divide the channel count
    assert all(r[3] for r in xl_rows), "XL design-driven must meet Formula 1"
    assert all(r[2] < flat_xl["cut"] for r in xl_rows if r[0] == flat_xl["k"])
