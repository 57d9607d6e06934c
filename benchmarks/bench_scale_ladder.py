"""Scale ladder: build + partition from 10k to 1.2M gates.

The paper's circuit is a 1.2M-gate decoder; everything below the
benchmark suite's 100k studies is comfortable, but the million-gate
rung only works because the whole pipeline is array-native end to end:
the streamed generators (:mod:`repro.circuits.stream`) emit
:class:`NetlistCSR` directly (no Verilog text, no parse, no object
netlist), the chunked hypergraph build keeps peak RSS at O(pins) with
a small constant, and the multilevel + batch-refine partitioner runs
on the int64 substrate throughout.

Each rung runs in a fresh subprocess so its peak RSS (VmHWM is a
process-lifetime high-water mark) is its own, sampled with the PR 7
:class:`~repro.obs.sampler.ResourceSampler`.  Two structural gates are
asserted:

* **bytes-per-pin budget** — build-phase RSS growth over the
  interpreter baseline, divided by pin count, stays under
  ``BUILD_BYTES_PER_PIN`` on every rung large enough for the ratio to
  be meaningful (the O(pins) claim, made load-bearing);
* **ladder completes** — every rung partitions to a balanced k-way
  assignment;
* **XL fits the paper's node** — the ``viterbi-xl`` rung's peak RSS
  (build and flat partition, one process) stays under
  ``XL_PEAK_RSS_MB``.

Deterministic columns (gates/nets/pins/edges/cut/cut med8/balanced)
land in the metrics rows and gate byte-for-byte under
``make_experiments_md.py --check --baseline``.  One seed's cut is a
chaotic draw (the same rung spans 471-727 over twelve seeds), so ``cut
med8`` — the median over seeds 1-8, partitioned in the rung's child
after its RSS sample, ``-`` on the XL rung — is the column to compare
across revisions.  So do each rung's batch-refiner round and
re-scored-vertex counts (``rung.<name>.part.batch.*`` counters: a
regression of the refiner's invalidation rule is a count diff, whatever
the host); walls and RSS are host facts and live only in the
quarantined ``host_timings`` channel, never in the table.  ``--rungs
N`` caps the ladder (``tools/run_checks.py`` runs the 10k smoke rung
in tier-1 time); a capped run prints the table and the rungs' walls and
asserts, but does not overwrite the committed full-ladder document.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: (registry name, k) per rung, smallest first — the ladder
RUNGS: list[tuple[str, int]] = [
    ("viterbi-s10k", 8),
    ("viterbi-s100k", 8),
    ("noc-scale", 8),
    ("memctrl-scale", 8),
    ("viterbi-xl", 8),
]

B = 5.0
SEED = 1
#: seeds of the ``cut med8`` column
MEDIAN_SEEDS = range(1, 9)
#: the one rung too large to partition eight more times
NO_MEDIAN = {"viterbi-xl"}
#: build-phase RSS growth per pin (bytes), asserted per rung.  The CSR
#: itself is ~28 B/pin (int64 pin + amortized ptr/output/code), the
#: hypergraph adds pins + the transposed vertex index and a sort
#: scratch; 160 B leaves ~2x headroom over the measured ~70-90 B.
BUILD_BYTES_PER_PIN = 160

#: rungs below this many pins are interpreter-noise dominated — the
#: budget gate applies above it
MIN_PINS_FOR_BUDGET = 1_000_000

#: the paper's node memory: the XL rung's peak RSS must stay below it
XL_PEAK_RSS_MB = 512

#: recorder phases reported per rung as the partition wall breakdown
#: (host_timings only, with the other host walls; asserted present in
#: smoke mode by tools/run_checks.py's --rungs 1 step)
PARTITION_PHASES = (
    "partition.coarsen",
    "partition.initial",
    "partition.uncoarsen",
    "partition.batch_refine",
)

#: batch-refiner counters kept per rung instead of summed over the
#: ladder (the XL rung would drown a regression on a small one)
RUNG_COUNTERS = ("part.batch.gathered", "part.batch.rounds")


def run_rung(name: str, k: int) -> dict:
    """One ladder rung, measured in a fresh interpreter (clean VmHWM)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", name, str(k)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"rung {name} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def child(name: str, k: int) -> None:
    """Build, hypergraph, partition; print one JSON result line."""
    import statistics
    import time

    from repro.circuits import load_stream_circuit
    from repro.core import multilevel_kway_partition
    from repro.hypergraph.build import streamed_flat_hypergraph
    from repro.obs import MetricsRecorder
    from repro.obs.sampler import ResourceSampler, _read_rss_kb

    baseline_kb = _read_rss_kb()
    rec = MetricsRecorder()
    with ResourceSampler() as sampler:
        t0 = time.perf_counter()
        csr = load_stream_circuit(name, recorder=rec)
        t1 = time.perf_counter()
        hg = streamed_flat_hypergraph(csr, recorder=rec)
        t2 = time.perf_counter()
        sampler._sample_once()
        build_peak_kb = sampler.peak_rss_kb
        result = multilevel_kway_partition(
            hg, k, B, seed=SEED, recorder=rec, refiner="batch"
        )
        t3 = time.perf_counter()
    phase_walls = rec.host_timings()
    # outside the sampler: the seed sweep must not touch the rung's RSS
    cut_median = None
    if name not in NO_MEDIAN:
        cut_median = statistics.median([result.cut_size] + [
            multilevel_kway_partition(
                hg, k, B, seed=seed, refiner="batch").cut_size
            for seed in MEDIAN_SEEDS if seed != SEED
        ])
    print(json.dumps({
        "rung": name,
        "k": k,
        "gates": int(csr.num_gates),
        "nets": int(csr.num_nets),
        "pins": int(csr.num_pins),
        "edges": int(hg.num_edges),
        "cut": int(result.cut_size),
        "cut_med8": cut_median,
        "balanced": bool(result.balanced),
        "build_s": t1 - t0,
        "hypergraph_s": t2 - t1,
        "partition_s": t3 - t2,
        "baseline_rss_kb": baseline_kb,
        "build_peak_rss_kb": build_peak_kb,
        "peak_rss_kb": sampler.peak_rss_kb,
        # per-phase partition wall breakdown (recorder phases) — the
        # coarsen/refine split the vectorization work is gated on
        "phase_s": {
            phase: phase_walls.get(phase, 0.0)
            for phase in PARTITION_PHASES
        },
        "counters": {
            key: int(val) for key, val in sorted(rec.counters.items())
            if key.startswith(("circ.", "part.build."))
            or key in RUNG_COUNTERS
        },
    }))


def build_bytes_per_pin(r: dict) -> float:
    return (r["build_peak_rss_kb"] - r["baseline_rss_kb"]) * 1024 / r["pins"]


def assert_gates(results: list[dict]) -> None:
    for r in results:
        assert r["balanced"], f"rung {r['rung']} missed Formula 1 balance"
        assert r["cut"] > 0, f"rung {r['rung']} produced a trivial cut"
        missing = [p for p in PARTITION_PHASES if p not in r["phase_s"]]
        assert not missing, (
            f"rung {r['rung']} phase breakdown missing {missing}"
        )
        if r["pins"] >= MIN_PINS_FOR_BUDGET:
            bpp = build_bytes_per_pin(r)
            assert bpp <= BUILD_BYTES_PER_PIN, (
                f"rung {r['rung']} build overhead {bpp:.0f} B/pin exceeds "
                f"the {BUILD_BYTES_PER_PIN} B/pin budget"
            )
        if r["rung"] == "viterbi-xl":
            peak_mb = r["peak_rss_kb"] / 1024
            assert peak_mb < XL_PEAK_RSS_MB, (
                f"rung viterbi-xl peaks at {peak_mb:.0f} MB, not under "
                f"the paper's {XL_PEAK_RSS_MB} MB node"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", type=int, default=len(RUNGS),
                        help="run only the first N rungs (smoke mode)")
    parser.add_argument("--child", nargs=2, metavar=("NAME", "K"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]))
        return 0

    sys.path.insert(0, str(Path(__file__).parent))
    from _shared import emit, table_rows

    from repro.bench import format_table

    selected = RUNGS[: max(1, args.rungs)]
    results = [run_rung(name, k) for name, k in selected]
    assert_gates(results)

    headers = ["rung", "gates", "nets", "pins", "edges", "k", "cut",
               "cut med8", "balanced"]
    rows = [
        [r["rung"], r["gates"], r["nets"], r["pins"], r["edges"],
         r["k"], r["cut"],
         "-" if r["cut_med8"] is None else format(r["cut_med8"], "g"),
         r["balanced"]]
        for r in results
    ]
    text = format_table(
        headers, rows,
        title=(f"Scale ladder (b={B}, seed={SEED}, multilevel + batch "
               f"refiner, one fresh process per rung)"),
    )

    if len(selected) < len(RUNGS):
        # smoke mode: print + gate only — never overwrite the
        # committed full-ladder document with a partial one; the walls
        # are printed here, never written into a table
        walls = "\n".join(
            f"  {r['rung']:>14}: build {r['build_s']:.1f}s + hg "
            f"{r['hypergraph_s']:.1f}s + partition {r['partition_s']:.1f}s "
            f"(coarsen {r['phase_s']['partition.coarsen']:.1f}s, "
            f"refine {r['phase_s']['partition.batch_refine']:.1f}s), "
            f"peak RSS {r['peak_rss_kb'] / 1024:.0f} MB "
            f"({build_bytes_per_pin(r):.0f} B/pin build overhead)"
            for r in results
        )
        print(f"{text}\nhost walls:\n{walls}")
        print(f"(smoke mode: {len(selected)}/{len(RUNGS)} rungs, "
              f"document not written)")
        return 0

    host_timings = {}
    counters: dict[str, int] = {}
    for r in results:
        host_timings[f"rung.{r['rung']}.build_s"] = r["build_s"]
        host_timings[f"rung.{r['rung']}.hypergraph_s"] = r["hypergraph_s"]
        host_timings[f"rung.{r['rung']}.partition_s"] = r["partition_s"]
        host_timings[f"rung.{r['rung']}.peak_rss_kb"] = r["peak_rss_kb"]
        for phase, wall in r["phase_s"].items():
            host_timings[f"rung.{r['rung']}.{phase}_s"] = wall
        for key, val in r["counters"].items():
            if key in RUNG_COUNTERS:
                counters[f"rung.{r['rung']}.{key}"] = val
            else:
                counters[key] = counters.get(key, 0) + val
    emit(
        "scale_ladder",
        text,
        params={"circuit": "scale-ladder", "b": B, "seed": SEED,
                "rungs": len(results),
                "build_bytes_per_pin_budget": BUILD_BYTES_PER_PIN},
        counters=counters,
        rows=table_rows(headers, rows),
        host_timings=host_timings,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
