"""Extension — optimistic (Time Warp) vs conservative simulation.

DVS is optimistic; the classic PDES question is what that optimism
buys.  Two conservative numbers are reported:

* **idealized bound** — the engine's conservative mode executes only at
  the exact global safe time, with global knowledge standing in for any
  synchronization protocol.  Zero rollbacks, zero protocol overhead: an
  upper bound no real conservative implementation reaches.  Time Warp
  lands within a few percent of it (the rollbacks it pays roughly buy
  back the latency it hides).
* **CMB estimate** — what an actual null-message (Chandy–Misra–Bryant)
  protocol would add: with gate-level lookahead of ONE tick, every
  inter-machine channel needs on the order of one null message per tick
  of virtual time.  That flood is costed at ``msg_cpu_overhead`` each
  and added to the idealized wall time — this is precisely why
  gate-level simulators (DVS included) went optimistic.
"""

from _shared import CFG, emit, table_rows

from repro.bench import format_table
from repro.circuits import load_circuit, random_vectors
from repro.core import design_driven_partition
from repro.sim import ClusterSpec, TimeWarpConfig, compile_circuit, run_partitioned


def _inter_machine_channels(circuit, clusters, machines) -> int:
    """Directed machine-to-machine LP channels (null-message carriers)."""
    lp_of_gate = {}
    for lid, cl in enumerate(clusters):
        for g in cl:
            lp_of_gate[g] = lid
    channels = set()
    for lid, cl in enumerate(clusters):
        for g in cl:
            out = int(circuit.gate_output[g])
            lo, hi = circuit.sink_offsets[out], circuit.sink_offsets[out + 1]
            for s in circuit.sink_gate[lo:hi].tolist():
                dst = lp_of_gate[s]
                if machines[dst] != machines[lid]:
                    channels.add((lid, dst))
    return len(channels)


def test_optimistic_vs_conservative(benchmark):
    netlist = load_circuit(CFG.circuit)
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, CFG.presim_vectors, seed=CFG.seed)

    def sweep():
        rows = []
        for k in (2, 3, 4):
            part = design_driven_partition(netlist, k=k, b=10.0, seed=CFG.seed)
            clusters, machines = part.to_simulation()
            spec = ClusterSpec(num_machines=k)
            reps = {}
            for conservative in (False, True):
                reps[conservative] = run_partitioned(
                    circuit, clusters, machines, events, spec,
                    TimeWarpConfig(conservative=conservative),
                )
            tw, cons = reps[False], reps[True]
            assert cons.rollbacks == 0
            # CMB null-message flood estimate: one null per channel per
            # virtual tick (lookahead = 1), CPU cost amortized over k
            channels = _inter_machine_channels(circuit, clusters, machines)
            end_time = tw.seq_stats.end_time
            nulls = channels * end_time
            cmb_wall = cons.parallel_wall_time + nulls * spec.msg_cpu_overhead / k
            cmb_speedup = cons.sequential_wall_time / cmb_wall
            rows.append(
                [k, f"{tw.speedup:.2f}", tw.rollbacks,
                 f"{cons.speedup:.2f}", f"{nulls/1e6:.1f}M",
                 f"{cmb_speedup:.2f}"]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["k", "TW speedup", "TW rollbacks", "ideal-cons speedup",
               "est. null msgs", "CMB-est speedup"]
    emit(
        "ext_conservative",
        format_table(
            headers,
            rows,
            title=(
                f"Extension: Time Warp vs conservative "
                f"(b=10, {CFG.circuit})"
            ),
        ),
        rows=table_rows(headers, rows),
        params={"b": 10.0},
    )
    for k, tw_s, _, cons_s, _, cmb_s in rows:
        # within a few percent of the unreachable idealized bound...
        assert float(tw_s) >= float(cons_s) * 0.93, (k, tw_s, cons_s)
        # ...and far above any realizable null-message protocol
        assert float(tw_s) > float(cmb_s) * 2, (k, tw_s, cmb_s)
