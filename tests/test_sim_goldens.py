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
    timewarp,
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


def _float_repr(obj):
    """``obj`` with every float replaced by its ``repr``."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _float_repr(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_float_repr(v) for v in obj]
    return obj


#: untraced runs, one per engine path the batch counters go through;
#: each runs under scan and under heap scheduling, which must agree
RUN_STATS_CONFIGS = {
    "default": {},
    "conservative": {"conservative": True},
    "migration": {"migration": True, "adaptive_checkpointing": True,
                  "migration_threshold": 0.1},
    "aggressive": {"lazy_cancellation": False},
    # the optimism horizon: a binding window, the emergency throttle
    # (it engages and releases dozens of times here), no window at all
    "window": {"optimism_window": 2},
    "throttle": {"optimism_window": 4, "stall_threshold": 1,
                 "gvt_interval": 5},
    "unbounded": {"optimism_window": None},
}

RUN_STATS_SHA = {
    ("cpu-test", "default"):
        "29fd816898dac964cbb2d3b7b5a6ec1aa40b11ab15b084094452b566b3473f42",
    ("cpu-test", "conservative"):
        "4a967e573c60eb7ddd2a61e629e14499a9af858bf1aefbf324f373936fd8d371",
    ("cpu-test", "migration"):
        "3e8d4c9b69eddac21402efccc511723e79da2b6fe0da5b0a22764dc85eba5668",
    ("cpu-test", "aggressive"):
        "7e650ebacfeb274dc627b412e2bddc270bc58ef66281e062def8e3293bf3b1fe",
    ("cpu-test", "window"):
        "0ab90f79b0eb7a0d716052aa59705a408c08adc653f5c0601ca1495cd746bc60",
    ("cpu-test", "throttle"):
        "6bd1aff61ecba5a9e2f90ef171c4aa681b64f976b0c155911ba02fd0239d2570",
    ("cpu-test", "unbounded"):
        "cb535c77cbb48a62940de812ef8f22411b29ac85146717f3b7138768fcf0aa7e",
    ("noc-test", "default"):
        "00d2e029aa4e6d40e07652992a9e2016e72b7f5b9cf1e11ea76df04cf4d193e8",
    ("noc-test", "conservative"):
        "e14b3ecb35f8955238c16da073c293ac7f418669e9eacc54e968fa38a86c65ac",
    ("noc-test", "migration"):
        "7245fb5353b27a4d32b7d47eb37fe7c2a41afb1372320cfcc2a6c238b0f57962",
    ("noc-test", "aggressive"):
        "a0ca769e700c1a175d5fa6732cb01efeda4675cc51d965cbb1caf69bda62247b",
    ("noc-test", "window"):
        "eefc39191d414e4184cd89688da1100349d37ee2adbb19875bb0c3686b23cc2a",
    ("noc-test", "throttle"):
        "48cdeb878d131fe12a1eeb55a8415d109f10845b9d0ea6c2ca2b3ce2f9a25553",
    ("noc-test", "unbounded"):  # the default window never binds on it
        "00d2e029aa4e6d40e07652992a9e2016e72b7f5b9cf1e11ea76df04cf4d193e8",
}


@pytest.mark.parametrize("heap", [False, True], ids=["scan", "heap"])
@pytest.mark.parametrize("config", sorted(RUN_STATS_CONFIGS))
@pytest.mark.parametrize("name", ["cpu-test", "noc-test"])
def test_run_stats_are_pinned(name, config, heap, monkeypatch):
    """Every per-machine and per-LP counter of an untraced run — the
    batch counters included, whichever way the engine keeps them."""
    if heap:  # the way tests/test_timewarp_shell.py forces the heaps
        monkeypatch.setattr(timewarp, "SCAN_SCHED_MAX_LPS", 0)
    overrides = RUN_STATS_CONFIGS[config]
    netlist = load_circuit(name)
    circuit = compile_circuit(netlist)
    clusters = Clustering.top_level(netlist).gate_clusters()
    engine = TimeWarpEngine(
        circuit, clusters, [i % 3 for i in range(len(clusters))],
        ClusterSpec(num_machines=3),
        TimeWarpConfig(**{"gvt_interval": 30, "checkpoint_interval": 3,
                          **overrides}),
    )
    assert engine._heap_sched == heap
    engine.load_inputs(random_vectors(netlist, VECTORS, seed=STIMULUS_SEED))
    stats = engine.run()
    assert sum(m.batches for m in stats.machines) \
        == sum(lp.batches for lp in stats.lps) > 0
    assert sum(m.gate_evals for m in stats.machines) \
        == sum(lp.gate_evals for lp in stats.lps) == stats.processed_events
    if overrides.get("migration"):
        assert stats.migrations > 0
    if overrides.get("conservative"):
        assert stats.rollbacks == 0
    assert _sha(_float_repr(stats.to_dict())) == RUN_STATS_SHA[name, config]
