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
    "3a4f93a44c6e6146951a6d35de09fcb1410e05cd93202f36f883b49da2f56a33"
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
        "bccf75cd88c8ec73ff4b69dd0f4ebcaf0eab5c6bfaddacd8ab92778b44c664e7",
    ),
    "noc-test": (
        "a5659961eae6ca37c7d90ea64ae7dfdcf99938c69cff5029f645cd980ea0d8d3",
        "295dfca0526ef79af9ce28e5a065bc570a0e34a952a3912d7357f17abae150bf",
    ),
    "cpu-test": (
        "32dcc5fabb15010039d896ca530626b69efe83bb86b84646f5d47aaa027dcef7",
        "6cf596040502d17c72c7df2d9b40115302bd8de69ec775b3e3aef31fb332ffa4",
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
    1: "58c4b73e725f05581a228acab09646db1da62b3569d8d8f9ee19f640452e0361",
    8: "7b182ead02f7aba67925fe3565fe70ae3f2993be7eff4d843efd8aac77f5aacc",
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
        "dafa05bae63974778f17337da7efa7a47b57712100e40504cf0db3bac8cb7851",
    ("cpu-test", "conservative"):
        "4a967e573c60eb7ddd2a61e629e14499a9af858bf1aefbf324f373936fd8d371",
    ("cpu-test", "migration"):
        "f175cfe36580392a6b924a6db6f4d788ddaccec6c83f7bf72eaa2aaa58b81e1c",
    ("cpu-test", "aggressive"):
        "90e4d8787af2b4e2a1933ffab8ffdbbbac4cd11eb9e2b47886dfb275b0999549",
    ("cpu-test", "window"):
        "96e466732a5cc55c5d5cc3152cfee8153db6ee8959f57cfe85976ef1cfe1735e",
    ("cpu-test", "throttle"):
        "d66a06fe66bb214d567aeaee87dd2f8848be57c5c504bdf47433d1704a298dc6",
    ("cpu-test", "unbounded"):
        "15db4929d15fb83a5929829760537a8b273f3dfba74b1af34f4f4f449094a97b",
    ("noc-test", "default"):
        "c7665c275a0528c3b0e14bad90416568cd508430bb0035db4c275d1c5f407b71",
    ("noc-test", "conservative"):
        "e14b3ecb35f8955238c16da073c293ac7f418669e9eacc54e968fa38a86c65ac",
    ("noc-test", "migration"):
        "7936e1606d121688283408e03f6d91ab02bb821641d533b711e0a17b20eddd25",
    ("noc-test", "aggressive"):
        "cd399dfb136034c04a0cb862f25b5297ff7c6e592b53b7a094d2e2596619b1b3",
    ("noc-test", "window"):
        "2ac4476acc4a5807c9c7c0b26d71f45c5f71aba10f1f8aa390be3df6db04b8ca",
    ("noc-test", "throttle"):
        "ad83123b79d6f9d1b76187680b4865fa4780d23e193dfa6a4ff2ee72ed5b1660",
    ("noc-test", "unbounded"):  # the default window never binds on it
        "c7665c275a0528c3b0e14bad90416568cd508430bb0035db4c275d1c5f407b71",
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
