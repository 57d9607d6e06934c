"""Sequential simulator: functional correctness and event semantics."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.sim import (
    InputEvent,
    SequentialSimulator,
    compile_circuit,
)
from repro.sim.logic import V0, V1, VX
from repro.verilog import NetlistBuilder, compile_verilog


def drive(nl, assignments, extra=()):
    """Events setting named primary inputs at t=0 plus extra events."""
    by_name = {nl.net_name(n): n for n in nl.inputs}
    evs = [InputEvent(0, by_name[k], v) for k, v in assignments.items()]
    return sorted(list(extra) + evs, key=lambda e: e.time)


class TestCombinational:
    def test_adder_exhaustive(self, adder4, adder4_circuit):
        for x, y, ci in itertools.product(range(16), range(16), range(2)):
            sim = SequentialSimulator(adder4_circuit)
            evs = [InputEvent(0, adder4.inputs[i], (x >> i) & 1) for i in range(4)]
            evs += [InputEvent(0, adder4.inputs[4 + i], (y >> i) & 1) for i in range(4)]
            evs.append(InputEvent(0, adder4.inputs[8], ci))
            sim.add_inputs(evs)
            sim.run()
            outs = sim.output_values()
            got = sum(outs[i] << i for i in range(4)) + (outs[4] << 4)
            assert got == x + y + ci

    def test_initial_state_is_x(self, adder4_circuit):
        sim = SequentialSimulator(adder4_circuit)
        sim.run()
        assert all(v == VX for v in sim.output_values())

    def test_unit_delay_propagation(self):
        nl = compile_verilog(
            "module t (o, i); output o; input i; wire m; not (m, i); not (o, m); endmodule"
        )
        cc = compile_circuit(nl)
        sim = SequentialSimulator(cc)
        seen = []
        sim.observers.append(
            lambda t: seen.append((t, sim.value_of(nl.outputs[0]))))
        sim.add_inputs([InputEvent(0, nl.inputs[0], 1)])
        sim.run()
        # m changes at t=1, o's event is at t=2
        assert seen == [(0, VX), (1, VX), (2, V1)]
        assert sim.stats.end_time == 2

    def test_glitch_suppressed(self):
        # y = and(a, a): scheduling the same value twice causes no event
        nl = compile_verilog(
            "module t (y, a, b); output y; input a, b; and (y, a, b); endmodule"
        )
        cc = compile_circuit(nl)
        sim = SequentialSimulator(cc)
        sim.add_inputs([InputEvent(0, nl.inputs[0], 1), InputEvent(0, nl.inputs[1], 0)])
        sim.run()
        evals1 = sim.stats.gate_evals
        # change a while b=0 keeps y=0: gate re-evaluates but no net event
        sim.schedule(sim.now + 1, nl.inputs[0], 0)
        sim.run()
        assert sim.value_of(nl.outputs[0]) == V0
        assert sim.stats.gate_evals == evals1 + 1
        # the y net only changed once (X->0); a's second flip was absorbed
        assert sim.stats.net_events == 4  # a@0, b@0, y@1 (X->0), a@2

    def test_record_activity(self, adder4, adder4_circuit):
        sim = SequentialSimulator(adder4_circuit, record_activity=True)
        evs = [InputEvent(0, n, 1) for n in adder4.inputs]
        sim.add_inputs(evs)
        sim.run()
        assert sim.stats.activity is not None
        assert sim.stats.activity.sum() == sim.stats.gate_evals
        assert (sim.stats.activity >= 0).all()


class TestScheduling:
    def test_cannot_schedule_in_past(self, adder4, adder4_circuit):
        sim = SequentialSimulator(adder4_circuit)
        sim.add_inputs([InputEvent(0, adder4.inputs[0], 1)])
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule(0, adder4.inputs[0], 0)

    def test_run_until_is_exclusive(self, adder4, adder4_circuit):
        sim = SequentialSimulator(adder4_circuit)
        seen = []
        sim.observers.append(
            lambda t: seen.append((t, sim.value_of(adder4.inputs[0]))))
        sim.add_inputs([InputEvent(5, adder4.inputs[0], 1)])
        sim.run()
        # nothing steps before t=5; the input holds its value from t=5 on
        assert seen[0] == (5, V1)
        assert all(v == V1 for _, v in seen)


def _dff_fixture(cell="dff"):
    nb = NetlistBuilder("t")
    d, clk = nb.input("d"), nb.input("clk")
    extra = []
    if cell in ("dffr", "dffe"):
        extra = [nb.input("x")]
    q = nb.net("q")
    nb.gate(cell, (d, clk, *extra), q)
    nb.output_net(q)
    nl = nb.build()
    return nl, compile_circuit(nl)


class TestFlipFlops:
    def test_samples_on_rising_edge(self):
        nl, cc = _dff_fixture()
        d, clk = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 0),
                InputEvent(0, d, 1),
                InputEvent(2, clk, 1),
            ]
        )
        sim.run()
        assert sim.output_values() == [1]

    def test_no_capture_on_falling_edge(self):
        nl, cc = _dff_fixture()
        d, clk = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 1),
                InputEvent(0, d, 1),
                InputEvent(2, clk, 0),
            ]
        )
        sim.run()
        assert sim.output_values() == [VX]  # never captured

    def test_d_sampled_before_edge(self):
        """d changing at the same instant as the edge uses the old d."""
        nl, cc = _dff_fixture()
        d, clk = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 0),
                InputEvent(0, d, 0),
                InputEvent(2, clk, 1),  # edge at t=2
                InputEvent(2, d, 1),    # d flips at the same instant
            ]
        )
        sim.run()
        assert sim.output_values() == [0]

    def test_d_change_without_clock_holds(self):
        nl, cc = _dff_fixture()
        d, clk = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 0),
                InputEvent(0, d, 0),
                InputEvent(2, clk, 1),
                InputEvent(5, d, 1),  # no edge: q keeps 0
            ]
        )
        sim.run()
        assert sim.output_values() == [0]

    def test_unknown_edge_gives_x(self):
        nl, cc = _dff_fixture()
        d, clk = nl.inputs
        sim = SequentialSimulator(cc)
        # clk X -> 1 is a possible edge: conservative X output
        sim.add_inputs([InputEvent(0, d, 1), InputEvent(2, clk, 1)])
        sim.run()
        assert sim.output_values() == [VX]

    def test_dffr_sync_reset(self):
        nl, cc = _dff_fixture("dffr")
        d, clk, rst = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 0),
                InputEvent(0, d, 1),
                InputEvent(0, rst, 1),
                InputEvent(2, clk, 1),  # edge with rst: q <- 0
            ]
        )
        sim.run()
        assert sim.output_values() == [0]

    def test_dffr_release(self):
        nl, cc = _dff_fixture("dffr")
        d, clk, rst = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 0),
                InputEvent(0, d, 1),
                InputEvent(0, rst, 1),
                InputEvent(2, clk, 1),
                InputEvent(4, clk, 0),
                InputEvent(5, rst, 0),
                InputEvent(6, clk, 1),  # edge without rst: q <- d
            ]
        )
        sim.run()
        assert sim.output_values() == [1]

    def test_dffe_enable_off_holds(self):
        nl, cc = _dff_fixture("dffe")
        d, clk, en = nl.inputs
        sim = SequentialSimulator(cc)
        sim.add_inputs(
            [
                InputEvent(0, clk, 0),
                InputEvent(0, d, 1),
                InputEvent(0, en, 1),
                InputEvent(2, clk, 1),   # loads 1
                InputEvent(4, clk, 0),
                InputEvent(5, en, 0),
                InputEvent(5, d, 0),
                InputEvent(6, clk, 1),   # enable off: holds 1
            ]
        )
        sim.run()
        assert sim.output_values() == [1]

    def test_counter_counts(self):
        src = """
        module cnt (clk, rst, q0, q1);
          input clk, rst; output q0, q1;
          wire d0, d1;
          not (d0, q0);
          xor (d1, q1, q0);
          dffr ff0 (q0, d0, clk, rst);
          dffr ff1 (q1, d1, clk, rst);
        endmodule
        """
        nl = compile_verilog(src)
        cc = compile_circuit(nl)
        clk, rst = nl.inputs
        sim = SequentialSimulator(cc)
        evs = [InputEvent(0, clk, 0), InputEvent(0, rst, 1),
               InputEvent(4, clk, 1), InputEvent(8, clk, 0),
               InputEvent(10, rst, 0)]
        for i in range(5):
            evs += [InputEvent(12 + 8 * i, clk, 1), InputEvent(16 + 8 * i, clk, 0)]
        sim.add_inputs(evs)
        sim.run()
        q0, q1 = sim.output_values()
        assert q0 + 2 * q1 == 5 % 4
