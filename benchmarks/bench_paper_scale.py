"""Paper-scale partitioning study: design-driven at the paper's gate count.

`viterbi-xl` (1.2 M gates, 984 instances) goes through the text front
end and is partitioned design-driven over k in {2, 3, 4, 8} x b in
{5, 10}, beside the flat multilevel cut the scale ladder committed for
the same gates.  Its peak RSS is gated below the paper's 512 MB node,
as the flat XL rung's is (`bench_scale_ladder.XL_PEAK_RSS_MB`): names
are stored as the hierarchy, not as 1.2 M gate-name strings.  The block
runs in a fresh interpreter, as each ladder rung does, so the peak RSS
(VmHWM, a process-lifetime high-water mark) is its own and not what
earlier benchmarks of the same pytest session left behind.  Its walls
and peak RSS are host facts: they live in the document's
``host_timings``, not in the committed table.  It stops at partitioning by
choice, not by budget (ROADMAP.md, "Simulation at the paper's shape").

Table 1 against Table 2 at the paper's module count (388 instances) is
`bench_table2_cutsize_hmetis`, on the single-channel
`viterbi-paper-single`.  It used to run here on the four-channel
`viterbi-paper`, whose k=2 and k=4 rows are cut 4 by construction.
"""

import json
import subprocess
import sys
import time

from _shared import CFG, OUT_DIR, emit, table_rows
from bench_scale_ladder import XL_PEAK_RSS_MB

from repro.bench import format_table
from repro.circuits import XL_CONFIG, viterbi_verilog
from repro.core import design_driven_partition
from repro.hypergraph import Clustering
from repro.obs.sampler import ResourceSampler
from repro.verilog import compile_verilog

XL_KS = (2, 3, 4, 8)
XL_BS = (5.0, 10.0)


def _flat_xl_rung() -> dict:
    """The committed flat-multilevel XL row of the scale ladder — read,
    never re-run (the ladder's child peaks near 1 GB)."""
    doc = json.loads((OUT_DIR / "BENCH_scale_ladder.json").read_text())
    row = next(r for r in doc["rows"] if r["rung"] == "viterbi-xl")
    return {**row, "b": doc["params"]["b"]}


def xl_design_driven():
    """Design-driven multiway at the paper's gate count, measured in a
    fresh interpreter (:func:`child`).  Returns ``(title, headers, rows,
    host walls)``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"design-driven XL failed:\n{proc.stdout}\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["title"], doc["headers"], doc["rows"], doc["walls"]


def child() -> None:
    """Build, cluster and partition ``viterbi-xl``; print one JSON line.

    ``viterbi-xl`` goes through the *text* front end, so the partitioner
    sees the design as the paper does: ~1 000 weighted visible nodes
    instead of 1.2 M anonymous vertices.  (The streamed build carries
    the same hierarchy, but numbers viterbi's nets differently, which
    could move the committed cut rows.)
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
                rows.append([k, b, int(d.cut_size), bool(d.balanced),
                             int(d.flatten_steps)])
    walls["xl.peak_rss_kb"] = sampler.peak_rss_kb
    title = (
        f"Design-driven at the paper's gate count (viterbi-xl as Verilog "
        f"text: {netlist.num_gates} gates, "
        f"{len(netlist.hierarchy.children)} instances -> "
        f"{hg.num_vertices} visible nodes, {hg.num_edges} hyperedges, "
        f"{hg.num_pins} pins)"
    )
    print(json.dumps({
        "title": title,
        "headers": ["k", "b", "design cut", "balanced", "flattened"],
        "rows": rows,
        "walls": walls,
    }))


def test_paper_scale_partitioning(benchmark):
    xl_title, xl_headers, xl_rows, walls = benchmark.pedantic(
        xl_design_driven, rounds=1, iterations=1)
    flat_xl = _flat_xl_rung()
    xl_text = "\n".join([
        format_table(xl_headers, xl_rows, title=xl_title),
        f"flat multilevel + batch refiner on the same gates as "
        f"{flat_xl['gates']} anonymous vertices (scale ladder, "
        f"k={flat_xl['k']}, b={flat_xl['b']}): cut {flat_xl['cut']}",
        "k=2 and k=4 are cut 4 by construction (XL_CONFIG has four "
        "independent channels); k=3 and k=8 test the algorithm",
        f"peak RSS of the design-driven block, in a fresh process, is "
        f"gated below the paper's {XL_PEAK_RSS_MB} MB node; it and the "
        f"walls are in BENCH_paper_scale.json's host_timings",
    ])
    emit(
        "paper_scale",
        xl_text,
        rows=[{"circuit": "viterbi-xl", **row}
              for row in table_rows(xl_headers, xl_rows)],
        params={"circuit": "viterbi-xl", "num_gates": flat_xl["gates"],
                "num_instances": XL_CONFIG.instances,
                "xl_flat_cut": flat_xl["cut"],
                "xl_flat_k": flat_xl["k"], "xl_flat_b": flat_xl["b"]},
        host_timings=walls,
    )
    # at the paper's gate count: balanced without flattening a single
    # super-gate, and below the flat engine where k does not divide the
    # channel count
    assert all(r[3] for r in xl_rows), "XL design-driven must meet Formula 1"
    peak_mb = walls["xl.peak_rss_kb"] / 1024
    assert peak_mb < XL_PEAK_RSS_MB, (
        f"XL design-driven peak RSS {peak_mb:.0f} MB is over the paper's "
        f"{XL_PEAK_RSS_MB} MB node")
    assert all(r[2] < flat_xl["cut"] for r in xl_rows if r[0] == flat_xl["k"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--child"]:
        raise SystemExit("usage: bench_paper_scale.py --child "
                         "(the benchmark itself runs under pytest)")
    child()
