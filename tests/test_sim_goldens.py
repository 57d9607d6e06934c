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
  pins the order gates are visited in, not just what they compute,
* every ``RunStats`` counter and the message trail of machine-share
  runs (one LP per machine, as ``to_simulation()`` groups them).

Everything is built from the public API only.
"""

import hashlib
import json

import pytest

from repro.circuits import load_circuit, random_vectors
from repro.core import brute_force_presim, partition_netlist
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


#: untraced runs, one per engine path the batch counters go through
RUN_STATS_CONFIGS = {
    "default": {},
    "conservative": {"conservative": True},
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
        "2e5b990daa848dbfbb33c70400f9e679835563f7cda256bb393b6bd80c00f09a",
    ("cpu-test", "conservative"):
        "68a771a77cb8aa95ab698bf2797896048431389bd110efeba51a4b357f038207",
    ("cpu-test", "aggressive"):
        "13ad15da4ba79c76be1fb9b772a4be3fa46e4c3ba6e109bbc88dbbcb112c26c1",
    ("cpu-test", "window"):
        "42558b11d4db93759ca6faca522a5dc1934e3be1b170d70bc5dcf69c98c42b91",
    ("cpu-test", "throttle"):
        "7b4cf3e6370aa5f105a9603bdada22d780a3762069b2f908cbf9f2a26fdc9f2a",
    ("cpu-test", "unbounded"):
        "3bb7a0f62da44534b843b3be1e61053d1723b8fbf9bc0d5208384e3fc60d5781",
    ("noc-test", "default"):
        "6fcf6a573f3571b2e4950857594441cfe167eca9e78e9b3dafc452b431b3bc07",
    ("noc-test", "conservative"):
        "5a3a5b576fddc8d759af9920e4ab8812d4633efcd07f8685118ac1d29ff9c00e",
    ("noc-test", "aggressive"):
        "bed27b556d389e64eb7c7c035a7dded2445b3738e8e0e0e70decfc9f200b5a35",
    ("noc-test", "window"):
        "cb5691ca3fe908748c050a1a228e4218b91007be11d105f21eede1156efe6d75",
    ("noc-test", "throttle"):
        "08bfa79218a8b9d55ed56fefac7d36ba8112511c52ab0ea009734e97a9529ae2",
    ("noc-test", "unbounded"):  # the default window never binds on it
        "6fcf6a573f3571b2e4950857594441cfe167eca9e78e9b3dafc452b431b3bc07",
}


@pytest.mark.parametrize("config", sorted(RUN_STATS_CONFIGS))
@pytest.mark.parametrize("name", ["cpu-test", "noc-test"])
def test_run_stats_are_pinned(name, config):
    """Every per-machine and per-LP counter of an untraced run — the
    batch counters included, whichever way the engine keeps them."""
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
    engine.load_inputs(random_vectors(netlist, VECTORS, seed=STIMULUS_SEED))
    stats = engine.run()
    assert sum(m.batches for m in stats.machines) \
        == sum(lp.batches for lp in stats.lps) > 0
    assert sum(m.gate_evals for m in stats.machines) \
        == sum(lp.gate_evals for lp in stats.lps) == stats.processed_events
    if overrides.get("conservative"):
        assert stats.rollbacks == 0
    assert _sha(_float_repr(stats.to_dict())) == RUN_STATS_SHA[name, config]


#: machine-share runs: the grouping every partition result's
#: ``to_simulation()`` hands the engine (one LP per non-empty machine,
#: design-driven at b = 10), which is the only one the pipeline runs.
#: The two bench circuits are here for their clock groups: each of their
#: LPs clocks 78-256 flip-flops from one net, where every test circuit's
#: largest group is 33
MACHINE_SHARE_RUNS = {
    "cpu-test": 3, "noc-test": 3, "noc-bench": 4, "viterbi-single": 4,
}

MACHINE_SHARE_SHA = {
    "cpu-test": (
        "3c03ce97cebf957601f25b9deaa0e35e63d9114e5d3e5ab0a71b7948fe841685",
        "8dcb0c5f0f1e4952a60c82ea6018b7729f48440c4374ba56617752220aa5a653",
    ),
    "noc-bench": (
        "38ac5e392441e19e711a112491c4c30522c1da2645b3c9e1f94fd1acc3797bce",
        "80012444062d7dd9a1bbadff4830fdd7a1128e43c9ea729f18b1fc63c5b7b457",
    ),
    "noc-test": (
        "fa7491950de7f9be83214f89bae5b85c38b44a2ea23038522e31b05a0fa1b578",
        "9df1de718e54f43dd2d00e416041b7cd6e89300135c6c82f98c3e5b6d85638ee",
    ),
    "viterbi-single": (
        "0a6ee848fe5d6691f23d85e0ce4c6b0c9af5ab887381a4e5bc5fc2dc150ad96c",
        "443fd6ebea259d5d25760f11285ca8b6353b66fc973d2679adf2c1d8bc865864",
    ),
}


@pytest.mark.parametrize("name", sorted(MACHINE_SHARE_RUNS))
def test_machine_share_runs_are_pinned(name):
    """Every counter of an untraced run and the ordered message trail
    (send time, net, destination, uid, source, sign) of a traced one."""
    k = MACHINE_SHARE_RUNS[name]
    netlist = load_circuit(name)
    circuit = compile_circuit(netlist)
    clusters, machines = partition_netlist(
        netlist, k, 10.0, algorithm="design", seed=1).to_simulation()
    assert len(clusters) == k
    events = random_vectors(netlist, VECTORS, seed=STIMULUS_SEED)
    runs = []
    for trace in (None, TraceBuffer(1 << 20)):
        engine = TimeWarpEngine(
            circuit, clusters, machines, ClusterSpec(num_machines=k),
            TimeWarpConfig(gvt_interval=30, checkpoint_interval=3),
            trace=trace,
        )
        engine.load_inputs(events)
        runs.append(engine.run())
    untraced, traced = runs
    assert trace.dropped == 0 and traced.rollbacks > 0
    trail = [
        (e.fields["recv_time"] - 1, e.fields["net"], e.fields["dst_lp"],
         e.fields["uid"], e.fields["src_lp"], e.fields["sign"])
        for e in trace.events("send")
    ]
    got = (_sha(_float_repr(untraced.to_dict())),
           _sha([trail, traced.rollbacks, traced.anti_messages]))
    assert got == MACHINE_SHARE_SHA[name]
