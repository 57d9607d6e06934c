"""The table-driven step kernel (repro.sim.kernel) and its two users.

The tables are checked exhaustively against the scalar references
(``eval_gate_coded`` and the brute-force flip-flop oracle), the two
sides of the kernel against each other, and the simulators' shells
around it — pending-pair checkpoints, ``run(until=...)``, stimulus
validation — against the behaviour the per-gate loops had.
"""

import itertools

import numpy as np
import pytest

from repro.circuits import load_circuit, random_vectors
from repro.errors import SimulationError
from repro.hypergraph import Clustering
from repro.obs.trace import TraceBuffer
from repro.sim import (
    ClusterSpec,
    InputEvent,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    compile_circuit,
    kernel,
)
from repro.sim.events import Message
from repro.sim.kernel import FF, FINAL, FOLD, HOLD, PAD, GateTable, fanout_csr
from repro.sim.logic import GATE_CODES, SEQ_CODE_MIN, eval_gate_coded
from repro.sim.lp import ClusterLP
from repro.verilog import NetlistBuilder
from tests.sim_oracle import dff_next, private_net_table, reference_run

VALS = (0, 1, 2)
TEST_CIRCUITS = ("viterbi-test", "noc-test", "cpu-test")


class TestFoldTable:
    @pytest.mark.parametrize("garbage", VALS)
    def test_every_code_arity_and_input_tuple(self, garbage):
        # arities 1-4 share one 4-wide pin matrix, so every shorter gate
        # has padded pins; all cells no gate reads hold `garbage`
        comb = [c for c in GATE_CODES.values() if c < SEQ_CODE_MIN]
        assert len(comb) == 8
        rows, inputs = [], []
        for code in comb:
            for arity in (1, 2, 3, 4):
                for values in itertools.product(VALS, repeat=arity):
                    rows.append((code, arity))
                    inputs.append(values)
        table, pin_net = private_net_table(rows)
        assert table.pins.shape[0] == 4
        vbuf = table.new_values(np.full(table.num_nets, garbage, dtype=np.int8))
        vbuf[pin_net] = [v for values in inputs for v in values]
        outs = table.fold(vbuf, np.arange(len(rows), dtype=np.int64))
        for (code, _), values, got in zip(rows, inputs, outs.tolist()):
            assert got == eval_gate_coded(code, list(values)), (code, values)

    def test_scalar_side_reads_the_same_tables(self, monkeypatch):
        # drive every input of a mixed-arity table from X to each value
        # on both sides, every other gate watched; outputs, the watched
        # ones reported and the bytes left behind must agree
        rows = [(c, a) for c in range(SEQ_CODE_MIN) for a in (1, 2, 3)]
        for value in (0, 1):
            results = []
            for threshold in (0, 1 << 62):
                monkeypatch.setattr(kernel, "BATCH_THRESHOLD", threshold)
                table, pin_net = private_net_table(rows)
                store = bytearray(
                    table.new_values(np.full(table.num_nets, 2, np.int8)))
                last = bytearray([2]) * len(rows)
                watched = bytearray([1, 0]) * (len(rows) // 2)
                updates = dict.fromkeys(pin_net.tolist(), value)
                changed, evals, produced, due, crossed = table.step(
                    store, updates, last, watched)
                # a dict came back iff the scalar side ran
                assert (type(due) is dict) == (threshold != 0)
                if type(due) is not dict:
                    due = dict(zip(due[0].tolist(), due[1].tolist()))
                results.append((list(changed), evals, produced,
                                list(due.items()), crossed, bytes(store),
                                bytes(last)))
            assert results[0] == results[1]
            changed, evals, produced, due, crossed, _, last = results[0]
            assert changed == pin_net.tolist()
            assert evals == produced == len(rows)
            # every output net still reads X, so only the non-X outputs
            # are pending
            by_net = dict(due)
            assert set(by_net.values()) <= {0, 1}
            moved = [(g, by_net[table.out[g]]) for g in range(0, len(rows), 2)
                     if table.out[g] in by_net]
            assert crossed == moved and len(moved) > 5
            assert [last[g] for g, _ in moved] == [v for _, v in moved]
            assert set(last[1::2]) == {2}  # unwatched cells are never written

    def test_pair_table_is_the_composed_fold(self):
        # every combinational code x (v0, v1), the pad cell included: the
        # scalar side's one lookup for a gate of one or two pins is FOLD
        # twice from the empty accumulator, then FINAL (cell 0 is filler)
        pair = kernel._PAIR_T
        assert len(pair) == 1 + 8 * 16
        checked = 0
        for code in range(SEQ_CODE_MIN):
            for v0, v1 in itertools.product(range(4), repeat=2):
                state = FOLD[FOLD[code * 16 + PAD * 4 + v0] + v1]
                got = pair[1 + code * 16 + v0 * 4 + v1]
                assert got == FINAL[state], (code, v0, v1)
                real = [v for v in (v0, v1) if v != PAD]
                if real:  # a one-pin gate reads its second pin on the pad
                    assert got == eval_gate_coded(code, real), (code, v0, v1)
                checked += 1
        assert checked == 8 * 16


class TestFlipFlopTable:
    def test_idle_edges_hold_on_every_row(self):
        # the scalar side's idle-edge table marks exactly the clock edges
        # on which no FF row fires, over all 3 kinds x 3^4 states
        idle = kernel._IDLE_T
        checked = 0
        for kind, cb, ca in itertools.product(range(3), VALS, VALS):
            rows = [FF[(((kind * 3 + cb) * 3 + ca) * 3 + dv) * 3 + av]
                    for dv, av in itertools.product(VALS, repeat=2)]
            if idle[cb * 3 + ca]:
                assert set(rows) == {HOLD}, (kind, cb, ca)
            else:
                assert set(rows) != {HOLD}, (kind, cb, ca)
            checked += len(rows)
        assert checked == 3 * 3 ** 4
        # the rising, the X-involved and nothing else
        assert [e for e in range(9) if not idle[e]] == [0 * 3 + 1, 0 * 3 + 2,
                                                        2 * 3 + 1]

    def test_every_kind_and_state_matches_the_oracle(self):
        d, clk, aux = 0, 1, 2
        checked = 0
        for kind, name in enumerate(("dff", "dffr", "dffe")):
            code = GATE_CODES[name]
            pins = (d, clk) if name == "dff" else (d, clk, aux)
            for cb, ca, dv, av in itertools.product(VALS, repeat=4):
                # the oracle's view: the clock is in `old` iff it moved;
                # data and aux are read at their pre-edge values whether
                # they moved at this instant (in `old`) or not
                for moved in (False, True):
                    values = {clk: ca, d: 2 - dv if moved else dv,
                              aux: 2 - av if moved else av}
                    old = {clk: cb} if cb != ca else {}
                    if moved:
                        old.update({d: dv, aux: av})
                    expect = dff_next(code, pins, values, old)
                    got = FF[(((kind * 3 + cb) * 3 + ca) * 3 + dv) * 3 + av]
                    assert (None if got == HOLD else got) == expect, (
                        name, cb, ca, dv, av)
                    checked += 1
        assert checked == 2 * 3 * 3 ** 4


def _single_lp_log(circuit, events):
    lp = ClusterLP(0, circuit, range(circuit.num_gates),
                   checkpoint_interval=4, record_changes=True)
    uid = 0
    for ev in events:
        if lp.has_net(ev.net):
            lp.insert_positive(Message(ev.time, ev.net, ev.value, -1, 0,
                                       ev.time - 1, uid))
            uid += 1
    evals = 0
    while lp.next_vt is not None:
        evals += lp.execute_batch()[0]
    return lp, evals


class TestOneKernelTwoShells:
    @pytest.mark.parametrize("name", TEST_CIRCUITS)
    def test_single_lp_equals_sequential_tick_for_tick(self, name):
        netlist = load_circuit(name)
        circuit = compile_circuit(netlist)
        events = random_vectors(netlist, 12, seed=5)
        seq = SequentialSimulator(circuit, record_changes=True)
        seq.add_inputs(events)
        stats = seq.run()
        lp, evals = _single_lp_log(circuit, events)
        # the LP never sees a net no gate touches (an unread input).
        # Within a tick it applies its own outputs before the messages
        # carrying the stimuli, the sequential simulator the stimuli
        # first, and the visiting order of the following ticks inherits
        # that — so the two logs hold the same entries tick for tick,
        # in an order that is each shell's own (pinned by the goldens)
        expect = [e for e in seq.change_log if lp.has_net(e[1])]
        times = [e[0] for e in lp._change_log]
        assert times == sorted(times)
        assert sorted(lp._change_log) == sorted(expect)
        assert evals == stats.gate_evals
        assert lp.values.tolist() == [seq.value_of(n) for n in lp._net_list]

    @pytest.mark.parametrize("name", TEST_CIRCUITS)
    def test_sequential_equals_the_per_gate_reference(self, name):
        netlist = load_circuit(name)
        circuit = compile_circuit(netlist)
        events = random_vectors(netlist, 6, seed=9)
        seq = SequentialSimulator(circuit, record_changes=True,
                                  record_activity=True)
        seq.add_inputs(events)
        stats = seq.run()
        log, values, evals = reference_run(circuit, events)
        assert seq.change_log == log
        assert seq.values.tolist() == values
        assert stats.gate_evals == evals == int(stats.activity.sum())
        assert stats.net_events == len(log)


def _traced_run(name, threshold, monkeypatch, interval=3):
    monkeypatch.setattr(kernel, "BATCH_THRESHOLD", threshold)
    netlist = load_circuit(name)
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, 12, seed=5)
    clusters = Clustering.top_level(netlist).gate_clusters()
    trace = TraceBuffer(1 << 20)
    engine = TimeWarpEngine(
        circuit, clusters, [i % 3 for i in range(len(clusters))],
        ClusterSpec(num_machines=3),
        TimeWarpConfig(record_changes=True, gvt_interval=30,
                       checkpoint_interval=interval),
        trace=trace,
    )
    engine.load_inputs(events)
    stats = engine.run()
    return engine, stats, trace


class TestDispatchParity:
    @pytest.mark.parametrize("name", TEST_CIRCUITS)
    def test_all_scalar_equals_all_array(self, name, monkeypatch):
        runs = []
        for threshold in (0, 10 ** 9):
            engine, stats, trace = _traced_run(name, threshold, monkeypatch)
            counters = stats.to_counters()
            sides = {k: counters.pop(k) for k in list(counters)
                     if k.startswith("sim.kernel.")}
            runs.append((engine.committed_changes(), counters,
                         trace.to_jsonl(), engine.final_net_values()))
            # the threshold really selected one side
            if threshold == 0:
                assert sides["sim.kernel.scalar_gates"] == 0
            else:
                assert sides["sim.kernel.batches"] == 0
        assert runs[0] == runs[1]


class TestPendingPair:
    @pytest.mark.parametrize("interval", [1, 8])
    def test_rollback_restores_the_pending_pair(self, interval):
        # a -> not -> m -> not -> n -> not -> y in one LP: after the batch
        # at t the pair holds the next stage's output, due at t + 1
        nb = NetlistBuilder("chain")
        a = nb.input("a")
        m, n, y = nb.net("m"), nb.net("n"), nb.net("y")
        nb.gate("not", (a,), m)
        nb.gate("not", (m,), n)
        nb.gate("not", (n,), y)
        nb.output_net(y)
        circuit = compile_circuit(nb.build())

        def env(value, t, uid):
            return Message(t, a, value, -1, 0, t - 1, uid)

        lp = ClusterLP(0, circuit, [0, 1, 2], checkpoint_interval=interval,
                       record_changes=True)
        # overlapping waves: batches at t = 0..5, then 6, 7, 8, 9 — the
        # 8th batch (t = 7) leaves n's update pending, as does t = 8 (y)
        for uid, (t, value) in enumerate([(0, 1), (2, 0), (6, 1)]):
            lp.insert_positive(env(value, t, uid))
        while lp.next_vt is not None and lp.next_vt <= 9:
            lp.execute_batch()
        assert lp.lvt == 9 and lp._due is None
        # a straggler at t = 9 restores the checkpoint of t = 8 resp. 7,
        # which must bring its own pending pair back
        rollback = lp.insert_positive(env(0, 9, 3))
        assert rollback is not None
        assert lp.lvt == rollback.restored_to == {1: 8, 8: 7}[interval]
        assert lp._due is not None and lp._due is lp._checkpoints[-1].due
        assert lp.next_vt == lp.lvt + 1
        while lp.next_vt is not None:
            lp.execute_batch()
        events = [InputEvent(0, a, 1), InputEvent(2, a, 0),
                  InputEvent(6, a, 1), InputEvent(9, a, 0)]
        log, values, _ = reference_run(circuit, events)
        # (an LP applies its own outputs before a tick's messages, the
        # reference the stimuli first: same entries, own order)
        assert sorted(lp._change_log) == sorted(log)
        assert lp.values.tolist() == [values[net] for net in lp._net_list]

    def test_pending_time_is_lvt_plus_one_on_every_batch(self, monkeypatch):
        # the single-slot invariant of unit delay: whenever the last
        # batch produced outputs — pending changes or only no-ops — the
        # LP's next batch is one tick away
        checked = []
        inner = ClusterLP.execute_batch

        def checking(lp):
            batch_time = lp.next_vt
            assert lp._due is None or lp._produced
            if lp._produced:
                assert batch_time == lp.lvt + 1
                checked.append(lp.lid)
            result = inner(lp)
            assert lp.lvt == batch_time
            return result

        monkeypatch.setattr(ClusterLP, "execute_batch", checking)
        _, stats, _ = _traced_run("cpu-test", kernel.BATCH_THRESHOLD,
                                  monkeypatch, interval=2)
        assert stats.rollbacks > 0 and len(checked) > 500

    @staticmethod
    def _and_lp():
        # y = and(a, b) in one LP, a checkpoint after every batch
        nb = NetlistBuilder("and")
        a, b = nb.input("a"), nb.input("b")
        y = nb.net("y")
        nb.gate("and", (a, b), y)
        nb.output_net(y)
        circuit = compile_circuit(nb.build())
        lp = ClusterLP(0, circuit, [0], checkpoint_interval=1)
        return lp, a, b, y

    @pytest.mark.parametrize("threshold", [1, 10 ** 9])
    def test_a_round_of_no_ops_still_takes_its_batch(self, threshold,
                                                     monkeypatch):
        monkeypatch.setattr(kernel, "BATCH_THRESHOLD", threshold)
        lp, a, b, y = self._and_lp()
        for uid, (t, net, value) in enumerate([(0, a, 0), (0, b, 1), (5, b, 0)]):
            lp.insert_positive(Message(t, net, value, -1, 0, t - 1, uid))
        nets_and_gates = len(lp.values) + 1
        assert lp.execute_batch() == (1, []) and lp._due is not None  # y: X -> 0
        assert lp.execute_batch() == (0, [])  # t = 1: y lands, reads nothing
        assert (lp.lvt, lp.next_vt) == (1, 5)
        # t = 5: b falls, y recomputes to the 0 it holds — produced, no change
        assert lp.execute_batch() == (1, [])
        assert lp._due is None and lp._produced == 1
        assert lp.next_vt == 6  # the batch the produced output is due in
        charged = lp._checkpoints[-1]
        assert charged.vt == 5 and charged.due is None
        assert charged.size == nets_and_gates + 32 * (1 + 1) + 8
        assert lp.execute_batch() == (0, [])  # zero evaluations at lvt + 1
        assert (lp.lvt, lp.next_vt, lp._produced) == (6, None, 0)
        assert lp._checkpoints[-1].size == nets_and_gates
        assert lp.local_value(y) == 0

    def test_rollback_restores_the_produced_count(self):
        lp, a, b, y = self._and_lp()
        for uid, (t, net, value) in enumerate([(0, a, 0), (0, b, 1), (5, b, 0)]):
            lp.insert_positive(Message(t, net, value, -1, 0, t - 1, uid))
        while lp.next_vt is not None:
            lp.execute_batch()
        assert (lp.lvt, lp._produced) == (6, 0)
        # a straggler at t = 6 restores the checkpoint of t = 5, whose
        # batch produced one output and changed nothing
        rollback = lp.insert_positive(Message(6, a, 0, -1, 0, 5, 9))
        assert rollback.restored_to == 5
        assert lp._due is None and lp._produced == 1
        assert lp.next_vt == 6
        assert lp.execute_batch() == (0, [])
        assert lp.next_vt is None and lp.local_value(y) == 0

    def test_stimulus_on_a_locally_driven_net_after_a_dropped_no_op(self):
        # the one input whose within-tick order the event-driven round
        # moves: y = and(a, b) recomputes to the 0 it holds at t = 5 (a
        # dropped no-op) while q = buf(c) changes, and a stimulus drives
        # y at t = 6.  The stimulus lands after the pending q, so the
        # change log and the first-touch order of y's and q's readers
        # follow it; a round that scheduled every output would have kept
        # the no-op's slot, ahead of q.  The committed values are the same
        nb = NetlistBuilder("driven")
        a, b, c = nb.input("a"), nb.input("b"), nb.input("c")
        y, q, r, s = nb.net("y"), nb.net("q"), nb.net("r"), nb.net("s")
        nb.gate("and", (a, b), y)
        nb.gate("buf", (c,), q)
        nb.gate("buf", (y,), r)
        nb.gate("buf", (q,), s)
        nb.output_net(r)
        nb.output_net(s)
        circuit = compile_circuit(nb.build())
        lp = ClusterLP(0, circuit, [0, 1, 2, 3], record_changes=True)
        stimuli = [(0, a, 0), (0, b, 1), (0, c, 0), (5, b, 0), (5, c, 1),
                   (6, y, 1)]
        for uid, (t, net, value) in enumerate(stimuli):
            lp.insert_positive(Message(t, net, value, -1, 0, t - 1, uid))
        while lp.next_vt is not None:
            lp.execute_batch()
        assert [e for e in lp._change_log if e[0] >= 6] == [
            (6, q, 1), (6, y, 1), (7, s, 1), (7, r, 1)]
        assert [lp.local_value(n) for n in (y, q, r, s)] == [1, 1, 1, 1]


def _random_table(rng, num_nets=64, num_gates=60, clocks=(0, 1)):
    """A gate set with every path of the scalar side: gates of one to
    four pins, all three flip-flop kinds on two shared clock nets, and
    feedback (pins read any net, outputs drive distinct ones)."""
    comb = [c for c in GATE_CODES.values() if c < SEQ_CODE_MIN]
    out = rng.choice(np.arange(len(clocks), num_nets), num_gates,
                     replace=False)
    codes, pins = [], []
    for _ in range(num_gates):
        code = int(rng.choice(comb + [SEQ_CODE_MIN + k for k in range(3)]))
        if code >= SEQ_CODE_MIN:
            arity = 2 if code == SEQ_CODE_MIN else 3
            row = rng.integers(0, num_nets, arity).tolist()
            row[1] = int(rng.choice(clocks))
        else:
            row = rng.integers(0, num_nets, int(rng.integers(1, 5))).tolist()
        codes.append(code)
        pins.append(row)
    pin_ptr = np.zeros(num_gates + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pins], out=pin_ptr[1:])
    pin_net = np.array([n for p in pins for n in p], dtype=np.int64)
    return GateTable(np.array(codes, dtype=np.int8), pin_ptr, pin_net, out,
                     num_nets, *fanout_csr(pin_ptr, pin_net, num_nets))


class TestEventDrivenRound:
    @pytest.mark.parametrize("seed", range(6))
    def test_both_sides_schedule_exactly_the_changes(self, seed, monkeypatch):
        # chained random rounds: each applies the last round's pending
        # set plus random stimuli (clock nets included).  Forced onto
        # either side, a round leaves the same store and last-sent
        # bytes, reports the same crossings and pends exactly the
        # outputs step_arrays schedules that differ from the store
        rng = np.random.default_rng(seed)
        table = _random_table(rng)
        store = bytearray(table.new_values(
            rng.integers(0, 3, table.num_nets).astype(np.int8)))
        last = bytearray(rng.integers(0, 3, table.num_gates).astype(np.int8))
        watched = bytearray(rng.integers(0, 2, table.num_gates).astype(np.int8))
        pending: dict[int, int] = {}
        rounds = dropped = 0
        for _ in range(60):
            updates = dict(pending)
            for net in rng.choice(table.num_nets, int(rng.integers(0, 6)),
                                  replace=False).tolist():
                updates[net] = int(rng.integers(0, 3))
            results = []
            for threshold in (1, 10 ** 9):
                monkeypatch.setattr(kernel, "BATCH_THRESHOLD", threshold)
                s, l = bytearray(store), bytearray(last)
                got = table.step(s, dict(updates), l, watched)
                if got is not None:
                    changed, evals, produced, due, crossed = got
                    assert (type(changed) is dict) == (threshold > 1)
                    if due is not None and type(due) is not dict:
                        due = dict(zip(due[0].tolist(), due[1].tolist()))
                    got = (list(changed), evals, produced, due, crossed)
                results.append((got, bytes(s), bytes(l)))
            assert results[0] == results[1]
            # the reference: every output step_arrays schedules, less
            # the ones that equal their net's post-update value
            ref = table.new_values(np.frombuffer(store, np.int8)[:-1])
            arrays = table.step_arrays(
                ref, np.fromiter(updates, np.int64, len(updates)),
                np.fromiter(updates.values(), np.int8, len(updates)))
            got, store_after, last_after = results[0]
            if arrays is None:
                assert got is None
                pending = {}
                continue
            _, _, affected, out_nets, out_vals, _ = arrays
            expect = {n: v for n, v in zip(out_nets.tolist(), out_vals.tolist())
                      if ref[n] != v}
            changed, evals, produced, due, crossed = got
            assert (evals, produced) == (len(affected), len(out_nets))
            assert list((due or {}).items()) == list(expect.items())
            assert store_after == ref.tobytes()
            store, last = bytearray(store_after), bytearray(last_after)
            pending = due or {}
            rounds += 1
            dropped += produced - len(pending)
        # the filter was exercised: produced no-ops were dropped
        assert rounds > 30 and dropped > 0


def _interleave_circuit():
    nb = NetlistBuilder("t")
    a, b = nb.input("a"), nb.input("b")
    m, y, z = nb.net("m"), nb.net("y"), nb.net("z")
    nb.gate("not", (a,), m)
    nb.gate("and", (m, b), y)
    nb.gate("buf", (b,), z)
    nb.output_net(y)
    nb.output_net(z)
    return compile_circuit(nb.build()), (a, b, m, y, z)


class TestSequentialShell:
    def test_until_interleaved_inputs_and_far_schedule(self):
        # the log below was recorded from the per-gate simulator this
        # kernel replaced
        circuit, (a, b, m, y, z) = _interleave_circuit()
        sim = SequentialSimulator(circuit, record_changes=True)
        seen = []
        sim.observers.append(seen.append)
        sim.add_inputs([InputEvent(0, a, 0), InputEvent(7, a, 1)])
        sim.run(until=1)
        assert (sim.now, sim.change_log) == (0, [(0, a, 0)])
        # g0's output is parked for t=1; a stimulus added now for the
        # same tick lands after it
        sim.add_inputs([InputEvent(1, b, 1)])
        sim.schedule(5, b, 0)  # several ticks ahead
        sim.run(until=4)
        assert sim.now == 2
        assert sim.change_log[1:] == [(1, m, 1), (1, b, 1), (2, y, 1), (2, z, 1)]
        sim.add_inputs([InputEvent(4, m, 0)])  # a stimulus on a driven net
        stats = sim.run()
        assert sim.change_log[5:] == [
            (4, m, 0), (5, b, 0), (5, y, 0), (6, z, 0), (7, a, 1)]
        assert seen == [0, 1, 2, 4, 5, 6, 7]
        assert (stats.gate_evals, stats.net_events, stats.end_time) == (7, 10, 7)
        assert sim.now == 8  # the swallowed m=0 of g0 still is a step

    def test_gate_output_replaces_a_colliding_stimulus(self):
        # scheduled up front for the tick g0's output lands on: the
        # output is the later write, the stimulus keeps its position
        circuit, (a, b, m, y, z) = _interleave_circuit()
        events = [InputEvent(0, a, 0), InputEvent(0, b, 1),
                  InputEvent(1, m, 0), InputEvent(1, b, 0)]
        sim = SequentialSimulator(circuit, record_changes=True)
        sim.add_inputs(events)
        sim.run()
        log, values, _ = reference_run(circuit, events)
        assert sim.change_log == log
        assert (1, m, 1) in log and (1, m, 0) not in log
        assert sim.values.tolist() == values


    def test_a_pickled_simulator_keeps_running(self):
        # the presim pool ships the baseline simulator to its workers:
        # `values` must stay the live view of the copy's own buffer
        import pickle

        circuit, (a, b, m, y, z) = _interleave_circuit()
        sim = SequentialSimulator(circuit)
        sim.add_inputs([InputEvent(0, a, 0), InputEvent(0, b, 1)])
        sim.run(until=1)
        clone = pickle.loads(pickle.dumps(sim))
        clone.run()
        sim.run()
        assert clone.values.tolist() == sim.values.tolist()
        assert clone.value_of(y) == 1


def _engine(circuit):
    return TimeWarpEngine(circuit, [range(circuit.num_gates)], [0],
                          ClusterSpec(num_machines=1))


class TestStimulusValidation:
    @pytest.mark.parametrize("event, problem", [
        (InputEvent(1, 3, 7), "value is not 0, 1 or 2"),
        (InputEvent(1, -5, 1), "net is not in 0..7"),
        (InputEvent(1, 10 ** 6, 1), "net is not in 0..7"),
        (InputEvent(1.5, 3, 1), "time is not an integer"),
    ])
    def test_both_simulators_reject_it_at_the_boundary(self, event, problem):
        circuit, _ = _interleave_circuit()
        assert circuit.num_nets == 8
        sim = SequentialSimulator(circuit)
        for call in (lambda: sim.add_inputs([event]),
                     lambda: sim.schedule(event.time, event.net, event.value),
                     lambda: _engine(circuit).load_inputs([event])):
            with pytest.raises(SimulationError, match="bad stimulus") as err:
                call()
            assert problem in str(err.value)
            assert repr(event.net) in str(err.value)
        sim.run()
        assert sim.values.tolist() == circuit.initial_values.tolist()

    def test_numpy_integers_are_integers(self):
        circuit, (a, *_) = _interleave_circuit()
        sim = SequentialSimulator(circuit)
        sim.add_inputs([InputEvent(np.int64(0), np.int64(a), np.int8(1))])
        sim.run()
        assert sim.value_of(a) == 1

    def test_duplicate_stimuli_stay_last_write_wins(self):
        circuit, (a, b, m, y, z) = _interleave_circuit()
        events = [InputEvent(0, a, 1), InputEvent(0, b, 0),
                  InputEvent(0, a, 0), InputEvent(0, b, 1)]
        sim = SequentialSimulator(circuit)
        sim.add_inputs(events)
        sim.run()
        engine = _engine(circuit)
        engine.load_inputs(events)
        engine.run()
        engine.verify_against_sequential(sim)
        assert [sim.value_of(n) for n in (a, b, m, y, z)] == [0, 1, 1, 1, 1]
