"""Golden digests of the simulation stack, computed on the commit before
the table-driven step kernel landed and pinned here.

They replace the retained copy of the old engines (``bench/sim_speed``)
as the evidence that a simulator rewrite changed nothing observable:

* the per-point rows of a small pre-simulation sweep (committed /
  processed events, messages, anti-messages, rollbacks, modeled walls,
  chosen best),
* the sequential ``change_log`` and the Time Warp committed change
  stream of three circuits at a fixed stimulus seed,
* the ordered message trail (send time, net, destination, uid) of one
  rollback-heavy run — uids are handed out in evaluation order, so this
  pins the order gates are visited in, not just what they compute.

Everything is built from the public API only.
"""

import hashlib
import json

import pytest

from repro.circuits import load_circuit, random_vectors
from repro.core import brute_force_presim
from repro.hypergraph import Clustering
from repro.obs.trace import TraceBuffer
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    compile_circuit,
)

STIMULUS_SEED = 5
VECTORS = 12


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _timewarp(name: str, k: int, trace=None, **config):
    netlist = load_circuit(name)
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, VECTORS, seed=STIMULUS_SEED)
    clusters = Clustering.top_level(netlist).gate_clusters()
    engine = TimeWarpEngine(
        circuit, clusters, [i % k for i in range(len(clusters))],
        ClusterSpec(num_machines=k),
        TimeWarpConfig(record_changes=True, gvt_interval=30, **config),
        trace=trace,
    )
    engine.load_inputs(events)
    stats = engine.run()
    return circuit, events, engine, stats


PRESIM_ROWS_SHA = (
    "0cc08f49678b66c6aaebc2e0598dc1b21006ebdf664c38d9fab4b9bea6d4e193"
)


def test_presim_sweep_rows_are_pinned():
    netlist = load_circuit("viterbi-test")
    events = random_vectors(netlist, 10, seed=1)
    study = brute_force_presim(
        netlist, events, ks=(2, 3), bs=(7.5, 12.5), seed=1, workers=1,
        config=TimeWarpConfig(gvt_interval=32),
    )
    rows = []
    for p in study.points:
        stats = p.report.run_stats
        rows.append({
            "k": p.k, "b": p.b, "cut": p.cut_size,
            "committed": stats.committed_events,
            "processed": stats.processed_events,
            "messages": stats.messages,
            "antis": stats.anti_messages,
            "rollbacks": stats.rollbacks,
            "undone": stats.rolled_back_events,
            "gvt_rounds": stats.gvt_rounds,
            "straggler_depth": stats.max_straggler_depth,
            "checkpoint_bytes": stats.peak_checkpoint_bytes,
            "wall": repr(stats.wall_time),
            "machine_walls": [repr(m.wall_time) for m in stats.machines],
            "speedup": repr(p.speedup),
        })
    rows.append({"best": [study.best.k, study.best.b]})
    assert _sha(rows) == PRESIM_ROWS_SHA


CHANGE_STREAM_SHA = {
    "viterbi-test": (
        "7a846a83fc682a3b8c7041e9e1e7e6727d5bac04f5390baf0ef5b668af82cee7",
        "7789cb408556ad17fea9973ef2919fa01b2befc2d496be018202edf221e6f03d",
    ),
    "noc-test": (
        "a5659961eae6ca37c7d90ea64ae7dfdcf99938c69cff5029f645cd980ea0d8d3",
        "fa64823461f15516cd91c90aa5e72e6b5683913ec6ce24269e6d72f79f030b55",
    ),
    "cpu-test": (
        "32dcc5fabb15010039d896ca530626b69efe83bb86b84646f5d47aaa027dcef7",
        "c7804607fc1f68a7efb8957d3bf893873bf11526a22b1fca2783020c493b0242",
    ),
}


@pytest.mark.parametrize("name", sorted(CHANGE_STREAM_SHA))
def test_change_streams_are_pinned(name):
    circuit, events, engine, stats = _timewarp(name, 3, checkpoint_interval=3)
    seq = SequentialSimulator(circuit, record_changes=True)
    seq.add_inputs(events)
    seq_stats = seq.run()
    committed = sorted(
        (t, net, v) for (t, net), v in engine.committed_changes().items()
    )
    got = (
        _sha([seq.change_log, seq_stats.gate_evals, seq_stats.net_events,
              seq_stats.end_time, seq.values.tolist()]),
        _sha([committed, stats.committed_events, stats.processed_events,
              stats.peak_checkpoint_bytes]),
    )
    assert got == CHANGE_STREAM_SHA[name]


MESSAGE_TRAIL_SHA = {
    1: "9628ffa9ebcd166135a9acb659188e3d19f13b0ea3d3524a47385f78a0e89e2b",
    8: "63eb4c7ee6050a81f269ece33123ba0049518d6dfc40c0e78fc8e4636ddec999",
}


@pytest.mark.parametrize("interval", sorted(MESSAGE_TRAIL_SHA))
def test_rollback_heavy_message_trail_is_pinned(interval):
    trace = TraceBuffer(1 << 20)
    _, _, _, stats = _timewarp(
        "cpu-test", 3, trace=trace, checkpoint_interval=interval
    )
    assert trace.dropped == 0
    assert stats.rollbacks >= 50  # the run really is rollback-heavy
    trail = [
        (e.fields["recv_time"] - 1, e.fields["net"], e.fields["dst_lp"],
         e.fields["uid"], e.fields["src_lp"], e.fields["sign"])
        for e in trace.events("send")
    ]
    assert _sha([trail, stats.rollbacks, stats.anti_messages]) == (
        MESSAGE_TRAIL_SHA[interval]
    )
