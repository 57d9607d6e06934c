"""The simulators' flip-flop paths vs the brute-force reference.

An exhaustive flip-flop transition sweep — every dff/dffr/dffe pin
role x every {0, 1, X} before/after combination — comparing what
:class:`SequentialSimulator` and :class:`ClusterLP` get out of the step
kernel's flip-flop table against :func:`tests.sim_oracle.reference_run`,
whose loop routes every sequential cell through the explicit next-state
function ``dff_next``.  With 729 two-step episodes over 3 cells the LP
runs stay on the kernel's scalar side and the sequential runs on its
array side, so both readings of the table are covered.
"""

import itertools

import pytest

from repro.sim import compile_circuit
from repro.sim.events import InputEvent, Message
from repro.sim.lp import ClusterLP
from repro.sim.sequential import SequentialSimulator
from repro.verilog import NetlistBuilder
from tests.sim_oracle import reference_run

VALS = (0, 1, 2)


@pytest.fixture(scope="module")
def ff_circuit():
    """One of each flip-flop variant sharing d/clk, with ``aux`` as the
    dffr reset and the dffe enable (their pin-2 role)."""
    nb = NetlistBuilder("ffs")
    d = nb.input("d")
    clk = nb.input("clk")
    aux = nb.input("aux")
    q0, q1, q2 = nb.net("q0"), nb.net("q1"), nb.net("q2")
    nb.gate("dff", (d, clk), q0, name="f0")
    nb.gate("dffr", (d, clk, aux), q1, name="f1")
    nb.gate("dffe", (d, clk, aux), q2, name="f2")
    for q in (q0, q1, q2):
        nb.output_net(q)
    nl = nb.build()
    return nl, compile_circuit(nl), (d, clk, aux), (q0, q1, q2)


def _episodes():
    """Every (before, after) assignment of (d, clk, aux) over {0,1,X}:
    729 two-step stimuli covering all edge shapes (rising, falling,
    X-involved, idle) against all data/reset/enable values."""
    for before in itertools.product(VALS, repeat=3):
        for after in itertools.product(VALS, repeat=3):
            yield before, after


def _events(nets, before, after):
    return [
        InputEvent(time=1, net=n, value=v) for n, v in zip(nets, before)
    ] + [
        InputEvent(time=3, net=n, value=v) for n, v in zip(nets, after)
    ]


class TestFlipFlopInlinePaths:
    def test_sequential_inline_matches_reference(self, ff_circuit):
        nl, cc, ins, outs = ff_circuit
        for before, after in _episodes():
            events = _events(ins, before, after)
            ref_log, ref_values, ref_evals = reference_run(cc, events)
            fast = SequentialSimulator(cc, record_changes=True)
            fast.add_inputs(events)
            fast.run()
            assert fast.change_log == ref_log, (before, after)
            assert fast.values.tolist() == ref_values
            assert fast.stats.gate_evals == ref_evals

    def test_cluster_lp_inline_matches_reference(self, ff_circuit):
        nl, cc, ins, outs = ff_circuit
        for before, after in _episodes():
            events = _events(ins, before, after)
            ref_log, ref_values, _ = reference_run(cc, events)
            lp = ClusterLP(0, cc, [0, 1, 2], checkpoint_interval=2,
                           record_changes=True)
            for uid, ev in enumerate(events):
                lp.insert_positive(Message(
                    recv_time=ev.time, net=ev.net, value=ev.value,
                    src_lp=-1, dst_lp=0, send_time=ev.time - 1, uid=uid,
                ))
            while lp.next_vt is not None:
                lp.execute_batch()
            assert lp._change_log == ref_log, (before, after)
            assert [lp.local_value(q) for q in outs] == [
                ref_values[q] for q in outs
            ]
