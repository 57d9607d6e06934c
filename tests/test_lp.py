"""ClusterLP mechanics: batches, rollback, annihilation, fossil collection."""

import numpy as np
import pytest

from repro.circuits import load_circuit, random_vectors
from repro.errors import SimulationError
from repro.hypergraph import Clustering
from repro.sim import (ClusterSpec, TimeWarpConfig, TimeWarpEngine,
                       compile_circuit, kernel)
from repro.sim.events import Message
from repro.sim.lp import ClusterLP
from repro.sim.logic import VX
from repro.verilog import NetlistBuilder


def two_lp_fixture():
    """a --not(g0)--> m --not(g1)--> y, g0 in lp0, g1 in lp1."""
    nb = NetlistBuilder("t")
    a = nb.input("a")
    m = nb.net("m")
    y = nb.net("y")
    nb.gate("not", (a,), m, name="g0")
    nb.gate("not", (m,), y, name="g1")
    nb.output_net(y)
    nl = nb.build()
    cc = compile_circuit(nl)
    lp0 = ClusterLP(0, cc, [0], checkpoint_interval=1)
    lp1 = ClusterLP(1, cc, [1], checkpoint_interval=1)
    lp0.set_readers({m: (1,)})
    return nl, cc, lp0, lp1, a, m, y


def env_msg(net, value, t, uid, dst=0):
    return Message(recv_time=t, net=net, value=value, src_lp=-1,
                   dst_lp=dst, send_time=t - 1, uid=uid)


class TestBatches:
    def test_no_work_raises(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        with pytest.raises(SimulationError, match="no work"):
            lp0.execute_batch()

    def test_batch_produces_boundary_send(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        evals, sends = lp0.execute_batch()
        assert lp0.lvt == 0
        assert evals == 1
        assert len(sends) == 1
        msg = sends[0]
        assert (msg.net, msg.value, msg.recv_time, msg.dst_lp) == (m, 0, 1, 1)

    def test_local_value_tracks(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        lp0.execute_batch()  # t=0: evaluates g0, schedules m@1
        lp0.execute_batch()  # t=1: applies m=0 locally
        assert lp0.local_value(m) == 0
        assert lp0.local_value(a) == 1
        assert lp0.next_vt is None

    def test_swallowed_change_sends_nothing(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        lp0.execute_batch()
        lp0.execute_batch()
        # drive the same value again: gate output unchanged, no message
        lp0.insert_positive(env_msg(a, 1, 4, 1))
        assert lp0.execute_batch() == (0, [])

    def test_message_filter_tracks_committed_change_stream(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        # a: X->0 at 0 => m: X->1, a: 0->1 at 4 => m: 1->0
        lp0.insert_positive(env_msg(a, 0, 0, 0))
        lp0.insert_positive(env_msg(a, 1, 4, 1))
        sent = []
        while lp0.next_vt is not None:
            sent += lp0.execute_batch()[1]
        assert [(s.recv_time, s.value) for s in sent] == [(1, 1), (5, 0)]


class TestRollback:
    def test_straggler_triggers_rollback(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        while lp0.next_vt is not None:
            lp0.execute_batch()
        assert lp0.lvt == 1
        rb = lp0.insert_positive(env_msg(a, 0, 1, 1))
        assert rb is not None
        assert rb.restored_to < 1
        assert lp0.lvt == rb.restored_to

    def test_rollback_restores_values(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        lp0.execute_batch()
        lp0.execute_batch()
        assert lp0.local_value(m) == 0
        lp0.insert_positive(env_msg(a, 0, 1, 1))  # straggler at t=1
        # re-execute: now a goes 1 at 0 then 0 at 1
        while lp0.next_vt is not None:
            lp0.execute_batch()
        assert lp0.local_value(a) == 0
        assert lp0.local_value(m) == 1

    def test_future_message_no_rollback(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        lp0.execute_batch()
        assert lp0.insert_positive(env_msg(a, 0, 5, 1)) is None

    def test_unconfirmed_buffer_suppresses_identical_resend(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        sends = []
        while lp0.next_vt is not None:
            sends += lp0.execute_batch()[1]
        assert len(sends) == 1
        # a straggler at t=3 does not affect the batch at t=0;
        # its send moves to the unconfirmed buffer...
        lp0.insert_positive(env_msg(a, 0, 3, 1))
        # ...but lvt was 1 < 3 so no rollback happened at all here;
        # force one with a straggler at t=1 instead
        rb = lp0.insert_positive(env_msg(a, 1, 1, 2))
        assert rb is not None
        resends = []
        while lp0.next_vt is not None:
            resends += lp0.execute_batch()[1]
        # batch at t=0 re-emits m=0@1 identically: suppressed.
        # later batches emit the genuinely new changes.
        assert all(s.recv_time != 1 for s in resends)

    def test_anti_message_annihilates_unprocessed(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        msg = Message(recv_time=3, net=m, value=1, src_lp=0, dst_lp=1,
                      send_time=2, uid=9)
        lp1.insert_positive(msg)
        assert lp1.next_vt == 3
        lp1.insert_anti(msg.anti())
        assert lp1.next_vt is None

    def test_anti_message_rolls_back_processed(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        msg = Message(recv_time=3, net=m, value=1, src_lp=0, dst_lp=1,
                      send_time=2, uid=9)
        lp1.insert_positive(msg)
        while lp1.next_vt is not None:
            lp1.execute_batch()
        assert lp1.lvt >= 3
        rb = lp1.insert_anti(msg.anti())
        assert rb is not None
        assert lp1.next_vt is None  # the event is gone

    def test_anti_without_twin_raises(self):
        """Placement is fixed and each machine pair's channel is FIFO,
        so an anti always finds its twin; a missing one is an error
        naming the LP, the uid and the sender, and the LP is untouched."""
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        pos = Message(recv_time=3, net=m, value=1, src_lp=0, dst_lp=1,
                      send_time=2, uid=77)
        with pytest.raises(SimulationError,
                           match=r"lp1: anti-message uid=77 from src_lp=0"):
            lp1.insert_anti(pos.anti())
        assert lp1.next_vt is None and lp1.lvt == -1
        assert lp1.insert_positive(pos) is None
        assert lp1.next_vt == 3  # the positive is queued as usual


class TestFossil:
    def test_fossil_keeps_restore_point(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        for i, t in enumerate(range(0, 40, 4)):
            lp0.insert_positive(env_msg(a, (i % 2), t, i))
        while lp0.next_vt is not None:
            lp0.execute_batch()
        bytes_before = lp0.checkpoint_bytes()
        lp0.fossil_collect(gvt=30)
        assert lp0.checkpoint_bytes() < bytes_before
        # a straggler just above GVT must still be restorable
        rb = lp0.insert_positive(env_msg(a, 1, 31, 99))
        assert rb is not None

    def test_fossil_drops_old_inputs(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        for i, t in enumerate(range(0, 20, 4)):
            lp0.insert_positive(env_msg(a, (i % 2), t, i))
        while lp0.next_vt is not None:
            lp0.execute_batch()
        n_before = len(lp0._in_msgs)
        lp0.fossil_collect(gvt=100)
        assert len(lp0._in_msgs) < n_before


class TestCheckpointAccounting:
    """Checkpoints are ``bytes`` snapshots now; the cached per-snapshot
    ``size`` and the LP's running ``checkpoint_bytes()`` total are pinned
    to what the ``ndarray.nbytes`` version reported at every lifecycle
    stage (recorded on the commit before the byte store): one byte per
    local net — the store's pad cell is not state — and per local gate,
    plus ``32 * (n + 1) + 8`` for the ``n`` outputs the batch before it
    produced (the pending ones and the no-ops the kernel dropped)."""

    @staticmethod
    def _expected(lp, cp):
        slot = 32 * (cp.produced + 1) + 8 if cp.produced else 0
        assert len(cp.values) == len(lp.values) + 1  # snapshot keeps the pad
        return len(lp.values) + len(lp.gate_ids) + slot

    def _sizes(self, lp):
        sizes = [cp.size for cp in lp._checkpoints]
        assert sizes == [self._expected(lp, cp) for cp in lp._checkpoints]
        assert lp.checkpoint_bytes() == sum(sizes)
        return sizes

    def test_size_pins_against_ndarray_nbytes(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        # the construction-time snapshot: 2 nets + 1 gate
        assert self._sizes(lp0) == self._sizes(lp1) == [3]
        for i, t in enumerate(range(0, 20, 4)):
            lp0.insert_positive(env_msg(a, (i % 2), t, i))
        while lp0.next_vt is not None:
            lp0.execute_batch()
        # a batch at t leaves one output pending, the one at t + 1 none
        assert self._sizes(lp0) == [3] + [75, 3] * 5
        assert lp0.checkpoint_bytes() == 393

    def test_running_total_tracks_rollback_and_fossil(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        for i, t in enumerate(range(0, 40, 4)):
            lp0.insert_positive(env_msg(a, (i % 2), t, i))
        while lp0.next_vt is not None:
            lp0.execute_batch()
        assert self._sizes(lp0) == [3] + [75, 3] * 10
        # rollback pops snapshots: the total must shrink in lockstep
        lp0.insert_positive(env_msg(a, 1, 17, 99))
        assert self._sizes(lp0) == [3, 75] * 5
        while lp0.next_vt is not None:
            lp0.execute_batch()
        assert self._sizes(lp0) == [3, 75] * 5 + [75, 3] + [3, 75] * 4 + [3]
        assert lp0.checkpoint_bytes() == 783
        # fossil collection deletes the pre-GVT prefix
        lp0.fossil_collect(gvt=30)
        assert self._sizes(lp0) == [3, 75, 3, 75, 3]
        # a repeated round at the same floor is a no-op, not a drift
        lp0.fossil_collect(gvt=30)
        assert lp0.checkpoint_bytes() == 159

    def test_one_checkpoint_charges_save_cost_times_its_size(
            self, pipeadd_circuit, pipeadd_events):
        # one LP on one machine with every other cost zeroed: the
        # machine's wall is what state saving charged, and an interval
        # equal to the run's batch count takes exactly one checkpoint
        gates = [np.arange(pipeadd_circuit.num_gates)]
        free = dict(event_cost=0.0, msg_latency=0.0, msg_cpu_overhead=0.0,
                    rollback_overhead=0.0, undo_cost=0.0)

        def run(save_cost, interval):
            engine = TimeWarpEngine(
                pipeadd_circuit, gates, [0],
                ClusterSpec(num_machines=1, save_cost=save_cost, **free),
                TimeWarpConfig(checkpoint_interval=interval,
                               max_checkpoint_interval=interval),
            )
            engine.load_inputs(pipeadd_events)
            return engine, engine.run()

        _, none_saved = run(1.0, 1 << 30)
        assert none_saved.machines[0].wall_time == 0.0  # no batch saved
        batches = none_saved.lps[0].batches
        save_cost = 0.25  # a power of two: the products are exact
        engine, stats = run(save_cost, batches)
        (cp,) = [c for c in engine.lps[0]._checkpoints if c.vt >= 0]
        assert cp.size > 0
        assert stats.machines[0].wall_time == save_cost * cp.size
        assert stats.machines[0].busy_time == save_cost * cp.size

    def test_peak_checkpoint_bytes_of_a_run_did_not_move(self):
        netlist = load_circuit("cpu-test")
        circuit = compile_circuit(netlist)
        clusters = Clustering.top_level(netlist).gate_clusters()
        events = random_vectors(netlist, 12, seed=5)
        pinned = {
            # unpriced state saving: the figures from before checkpoints
            # were charged — the accounting itself never moved
            0.0: (58, 6259, 2466),
            # the default price shifts the run's timing, hence which
            # checkpoints are alive at a GVT round
            ClusterSpec(num_machines=2).save_cost: (51, 6015, 3800),
        }
        for save_cost, expected in pinned.items():
            engine = TimeWarpEngine(
                circuit, clusters, [i % 2 for i in range(len(clusters))],
                ClusterSpec(num_machines=2, save_cost=save_cost),
            )
            engine.load_inputs(events)
            stats = engine.run()
            assert (stats.rollbacks, stats.processed_events,
                    stats.peak_checkpoint_bytes) == expected


class TestOneStoreTwoViews:
    """The net values are one ``bytearray``; ``lp.values`` and the array
    side see it through a NumPy view that no operation may detach."""

    @staticmethod
    def _assert_aliased(lp):
        assert lp.values.base is not None and len(lp.values) == len(lp._store) - 1
        for cell in range(len(lp.values)):
            for value in (1, 0, lp._store[cell]):  # ends on the original
                lp._store[cell] = value
                assert lp.values[cell] == value
                lp.values[cell] = 2 - value
                assert lp._store[cell] == 2 - value
            lp._store[cell] = value
        assert lp._store[-1] == kernel.PAD

    def test_alias_survives_every_operation(self, monkeypatch):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        self._assert_aliased(lp0)  # construction
        lp0.insert_positive(env_msg(a, 1, 0, 0))
        lp0.execute_batch()  # a scalar batch
        assert lp0.kernel_batches == 0
        self._assert_aliased(lp0)
        monkeypatch.setattr(kernel, "BATCH_THRESHOLD", 1)
        lp0.execute_batch()  # an array batch: m = 0 lands
        assert lp0.kernel_batches == 1 and lp0.local_value(m) == 0
        self._assert_aliased(lp0)
        for i, t in enumerate(range(4, 24, 4)):
            lp0.insert_positive(env_msg(a, i % 2, t, i + 1))
        while lp0.next_vt is not None:
            lp0.execute_batch()
        assert lp0.insert_positive(env_msg(a, 1, 9, 99)) is not None  # rollback
        assert bytes(lp0._store) == lp0._checkpoints[-1].values  # restored in place
        self._assert_aliased(lp0)
        while lp0.next_vt is not None:
            lp0.execute_batch()
        lp0.fossil_collect(gvt=20)
        self._assert_aliased(lp0)
        assert [lp0.local_value(n) for n in (a, m)] == lp0.values.tolist()


class TestConstruction:
    def test_gate_clusters_and_nets(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        assert lp0.has_net(a) and lp0.has_net(m)
        assert not lp0.has_net(y)
        assert lp1.has_net(m) and lp1.has_net(y)

    def test_initial_values_are_x(self):
        nl, cc, lp0, lp1, a, m, y = two_lp_fixture()
        assert lp0.local_value(a) == VX
        assert lp0.local_value(m) == VX
