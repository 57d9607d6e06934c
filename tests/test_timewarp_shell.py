"""The Time Warp shell around the step kernel: engine life cycle,
stimulus hand-over and hostile kernel settings.

None of these look at *what* a run computes beyond the oracles the
other suites already apply; they pin the properties the engine loop
must keep while it is being made faster — a finished engine is inert,
bulk stimulus loading equals per-message insertion, and no combination
of extreme latency / GVT / checkpoint / cancellation / window settings
breaks the committed history.
"""

import itertools

import pytest

from repro.circuits import load_circuit, random_vectors
from repro.errors import SimulationError
from repro.hypergraph import Clustering
from repro.sim import (
    ClusterSpec,
    InputEvent,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    compile_circuit,
)
from repro.sim.events import Message
from repro.sim.lp import ClusterLP


def _engine(name, k, vectors=12, seed=5, spec=None, config=None):
    netlist = load_circuit(name)
    circuit = compile_circuit(netlist)
    clusters = Clustering.top_level(netlist).gate_clusters()
    engine = TimeWarpEngine(
        circuit, clusters, [i % k for i in range(len(clusters))],
        spec or ClusterSpec(num_machines=k), config or TimeWarpConfig(),
    )
    return engine, random_vectors(netlist, vectors, seed=seed)


class TestFinishedEngine:
    def test_second_run_returns_the_same_stats_untouched(self):
        engine, events = _engine("cpu-test", 2)
        engine.load_inputs(events)
        stats = engine.run()
        before = stats.to_dict()
        assert len(stats.machines) == 2
        assert stats.kernel_scalar_gates + stats.kernel_batch_gates \
            == stats.processed_events > 0
        assert engine.run() is stats
        assert stats.to_dict() == before and len(stats.machines) == 2

    def test_load_inputs_after_run_says_the_engine_is_finished(self):
        engine, events = _engine("cpu-test", 2)
        engine.load_inputs(events)
        stats = engine.run()
        before = stats.to_dict()
        with pytest.raises(SimulationError, match="finished engine"):
            engine.load_inputs(events)
        with pytest.raises(SimulationError, match="finished engine"):
            engine.load_inputs([])
        assert stats.to_dict() == before

    def test_load_inputs_twice_before_run_is_still_fine(self):
        split, events = _engine("cpu-test", 2)
        half = len(events) // 2
        split.load_inputs(events[:half])
        split.load_inputs(events[half:])
        whole, _ = _engine("cpu-test", 2)
        whole.load_inputs(events)
        assert split.stats.env_messages == whole.stats.env_messages
        assert split.run().to_counters() == whole.run().to_counters()


class TestBulkStimulus:
    def _lp(self):
        netlist = load_circuit("cpu-test")
        circuit = compile_circuit(netlist)
        return ClusterLP(0, circuit, range(circuit.num_gates)), netlist

    def test_preload_equals_one_insert_per_message(self):
        one_by_one, netlist = self._lp()
        at_once, _ = self._lp()
        events = random_vectors(netlist, 6, seed=3)
        # out of time order, with a repeated (time, net) and equal keys
        events = events[::-1] + events[:5]
        msgs = [Message(ev.time, ev.net, ev.value, -1, 0, ev.time - 1, uid % 7)
                for uid, ev in enumerate(events)]
        for msg in msgs:
            assert one_by_one.insert_positive(msg) is None
        at_once.preload(msgs[:9])
        at_once.preload(msgs[9:])
        assert at_once._in_msgs == one_by_one._in_msgs
        assert at_once._in_keys == one_by_one._in_keys
        assert at_once.next_vt == one_by_one.next_vt == min(e.time for e in events)
        at_once.preload([])
        assert at_once._in_msgs == one_by_one._in_msgs

    def test_preload_needs_an_lp_that_has_not_run(self):
        lp, netlist = self._lp()
        events = random_vectors(netlist, 2, seed=3)
        lp.preload([Message(ev.time, ev.net, ev.value, -1, 0, ev.time - 1, i)
                    for i, ev in enumerate(events)])
        lp.execute_batch()
        with pytest.raises(SimulationError, match="preload"):
            lp.preload([Message(99, events[0].net, 1, -1, 0, 98, 0)])

    def test_stimulus_before_time_zero_is_rejected(self):
        engine, events = _engine("cpu-test", 2)
        with pytest.raises(SimulationError, match="preload"):
            engine.load_inputs([InputEvent(-1, events[0].net, 1)])


class TestPathologicalSettings:
    """Every corner of the kernel's tuning space at once — free, nearly
    free and very slow messages; GVT after every step or never; a
    checkpoint per batch or almost none; both cancellation policies;
    no, a one-tick and the default optimism window — must leave the
    committed change stream equal to the sequential one."""

    @pytest.mark.parametrize("msg_latency", [0.0, 1e-9, 1e-2])
    @pytest.mark.parametrize("name", ["cpu-test", "viterbi-test"])
    def test_committed_history_survives(self, name, msg_latency):
        netlist = load_circuit(name)
        circuit = compile_circuit(netlist)
        events = random_vectors(netlist, 8, seed=11)
        seq = SequentialSimulator(circuit, record_changes=True)
        seq.add_inputs(events)
        seq.run()
        clusters = Clustering.top_level(netlist).gate_clusters()
        lp_machine = [i % 3 for i in range(len(clusters))]
        spec = ClusterSpec(num_machines=3, msg_latency=msg_latency)
        rolled_back = 0
        for gvt_interval, checkpoint_interval, lazy, window in itertools.product(
            (1, 10 ** 6), (1, 64), (True, False), (None, 1, 128)
        ):
            config = TimeWarpConfig(
                record_changes=True, gvt_interval=gvt_interval,
                checkpoint_interval=checkpoint_interval,
                lazy_cancellation=lazy, optimism_window=window,
            )
            engine = TimeWarpEngine(circuit, clusters, lp_machine, spec, config)
            engine.load_inputs(events)
            stats = engine.run()
            engine.verify_change_stream(seq)
            assert stats.committed_events == seq.stats.gate_evals, config
            rolled_back += stats.rollbacks
        assert rolled_back > 0  # the settings did provoke optimism
