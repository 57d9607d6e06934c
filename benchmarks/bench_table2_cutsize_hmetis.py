"""Table 2 — hyperedge cut of a flat multilevel partitioner on the
flattened netlist, beside the design-driven cut, same (k, b) grid.

Paper values: ~2670 (k=2) to ~3190 (k=4), nearly flat in b, sitting
~4.5x above Table 1 everywhere.  Both sides run on
``viterbi-paper-single``: the paper's module count (388 top-level
instances) as one decoder of ~91k gates, so no k is cut along
independent channels.  The flat side is the repo's own multilevel
k-way engine, ``multilevel_kway_partition(refiner="fm")``, in the role
the paper gave hMetis: it sees 91k anonymous vertices where the
design-driven algorithm sees ~400 weighted visible nodes, and it is held
to the same global Formula-1 bound.

Asserted (``shape_checks_cutsize``): the design-driven cut is
competitive in aggregate, shrinks as b relaxes, grows with k, wins in
aggregate at k=4, and meets Formula 1 everywhere.  The paper's ~4.5x
aggregate gap is printed as measured and not asserted.
"""

from _shared import emit, table_rows

from repro.bench import (
    PAPER_TABLE2,
    ExperimentConfig,
    format_table,
    shape_check_counters,
    shape_checks_cutsize,
    table1_cutsize_design,
    table2_cutsize_multilevel,
)

#: the paper's module count as a single decoder; partitioning only
TABLE2_CFG = ExperimentConfig(circuit="viterbi-paper-single", seed=1)


def test_table2_cutsize_multilevel(benchmark):
    rows = benchmark.pedantic(table2_cutsize_multilevel, args=(TABLE2_CFG,),
                              rounds=1, iterations=1)
    design = {(r.k, r.b): r for r in table1_cutsize_design(TABLE2_CFG)}
    headers = ["k", "b", "design cut", "flat cut", "flat formula 1",
               "cut (paper hMetis)"]
    cells = [[r.k, r.b, design[(r.k, r.b)].cut, r.cut, r.balanced,
              PAPER_TABLE2[(r.k, r.b)]] for r in rows]
    table = format_table(
        headers,
        cells,
        title=(f"Table 2: multilevel k-way cut on the flat netlist "
               f"({TABLE2_CFG.circuit}) beside the design-driven cut"),
    )
    flat = {(r.k, r.b): r.cut for r in rows}
    checks = shape_checks_cutsize(
        {key: r.cut for key, r in design.items()},
        flat,
        design_balanced={key: r.balanced for key, r in design.items()},
        multilevel_balanced={(r.k, r.b): r.balanced for r in rows},
    )
    d_sum = sum(r.cut for r in design.values())
    ratio = sum(flat.values()) / max(d_sum, 1)
    wins = sum(design[key].cut <= cut for key, cut in flat.items())
    block = "\n".join(
        [table, "",
         f"aggregate flat/design cut ratio: {ratio:.2f}x (paper: ~4.5x on "
         f"the 1.2M-gate netlist; not reproduced)",
         f"design cut <= flat cut at {wins} of {len(flat)} points", ""]
        + [str(c) for c in checks]
    )
    emit(
        "table2_cutsize_hmetis",
        block,
        rows=table_rows(headers, cells),
        params={"circuit": TABLE2_CFG.circuit,
                "comparator": "multilevel_kway_partition(refiner=fm)"},
        counters=shape_check_counters(checks),
    )
    assert all(c.passed for c in checks), [str(c) for c in checks]
