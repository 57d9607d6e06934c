"""Partition-core speed study: vectorized core vs pre-PR bookkeeping.

The vectorized partition core (docs/performance.md) claims a large
wall-clock win with **bit-identical** refinement decisions.  This
benchmark runs one exhaustive refinement sweep — per tournament round:
snapshot, score every pair's estimated gain, FM-refine the round's
pairs — on a ~50k-vertex circuit-shaped hypergraph through both the
current core and :class:`repro.bench.LegacyPartitionState` (the
pre-optimization implementation kept runnable for exactly this
purpose).

``speed_study`` itself asserts the structural outcomes (cut trajectory,
realized gain, moves, passes, pairing estimates) are identical, so the
wall ratio is a pure like-for-like measurement.  Structural quantities
land in the metrics rows/counters and gate deterministically under
``make_experiments_md.py --check``; the walls and their ratio are
host-dependent and live in the quarantined ``host_timings`` channel.

The legacy pass runs every heap dry; the current one stops at the
locked-cut bound (docs/partitioning.md), so the parity assertion also
holds the bounded pass to an independent never-stops-early engine.

The wall-clock assertion uses a noise-tolerant floor (3x) far below the
typically measured ~50x (~7x before the bound) so a loaded host does
not flake the suite; the measured ratio is always visible in the
emitted table.
"""

from _shared import emit, table_rows

from repro.bench import format_table, speed_study

NUM_VERTICES = 50_000
NUM_EDGES = 65_000
K = 8
B = 10.0
SEED = 0
MAX_PASSES = 2

#: lower bound on the wall-clock ratio asserted by the test — well
#: under the ~50x typically measured so host noise cannot flake it
MIN_SPEEDUP = 3.0


def test_partition_core_speed(benchmark):
    fast, slow = benchmark.pedantic(
        lambda: speed_study(
            NUM_VERTICES, NUM_EDGES, k=K, seed=SEED, b=B,
            max_passes=MAX_PASSES,
        ),
        rounds=1, iterations=1,
    )

    ratio = slow.host_seconds / fast.host_seconds
    headers = ["impl", "cut before", "cut after", "connectivity", "gain",
               "moves", "passes", "estimates", "wall (s)", "speedup"]
    rows = [
        [s.impl, s.cut_before, s.cut_after, s.connectivity_after, s.gain,
         s.moves, s.passes, s.estimate_total, f"{s.host_seconds:.2f}",
         f"{slow.host_seconds / s.host_seconds:.2f}x"]
        for s in (fast, slow)
    ]
    emit(
        "partition_speed",
        format_table(
            headers,
            rows,
            title=(
                f"Partition-core speed study "
                f"({NUM_VERTICES} vertices, {NUM_EDGES} edges; "
                f"k={K}, b={B}, seed={SEED}, max_passes={MAX_PASSES}; "
                f"exhaustive sweep: snapshots + all-pair estimates + FM)"
            ),
        ),
        # wall/speedup columns are host-dependent: the JSON rows keep
        # only the structural fields, the walls go to host_timings
        rows=[
            {k: v for k, v in row.items() if k not in ("wall_s", "speedup")}
            for row in table_rows(headers, rows)
        ],
        params={"num_vertices": NUM_VERTICES, "num_edges": NUM_EDGES,
                "k": K, "b": B, "sweep_seed": SEED,
                "max_passes": MAX_PASSES},
        counters={
            "part.cut_size": fast.cut_after,
            "part.fm.gain": fast.gain,
            "part.fm.moves": fast.moves,
            "part.fm.passes": fast.passes,
            "part.core.lambda_hits": fast.lambda_hits,
            "part.core.gain_batches": fast.gain_batches,
            "part.core.gain_batch_vertices": fast.gain_batch_vertices,
            "part.core.boundary_batches": fast.boundary_batches,
        },
        host_timings={
            "part.sweep.vectorized": fast.host_seconds,
            "part.sweep.legacy": slow.host_seconds,
            "part.sweep.speedup": ratio,
        },
    )

    # structural parity already asserted inside speed_study; pin the
    # study actually exercised the batch machinery
    assert fast.lambda_hits > 0
    assert fast.gain_batches > 0
    assert fast.boundary_batches > 0
    # refinement did real work on this workload
    assert fast.cut_after < fast.cut_before
    # the headline: the vectorized core is multiple times faster on the
    # identical sweep (floor is noise-tolerant; measured ratio ~50x)
    assert ratio >= MIN_SPEEDUP, (
        f"vectorized core only {ratio:.2f}x faster than legacy "
        f"(floor {MIN_SPEEDUP}x)"
    )
