"""Cluster logical process (LP) for the Time Warp kernel.

Following the paper (§4.3) and Clustered Time Warp [Avril & Tropper],
an LP is a *cluster of gates* that rolls back as one unit.  A partition
result's ``to_simulation()`` makes each machine's whole share one LP,
simulated sequentially as OOCTW ran it; the engine takes any grouping
(visible nodes, single gates) when given clusters explicitly.  Each LP
is effectively a private unit-delay simulator over its gate subset:

* its **state** is one byte per net its gates touch — a ``bytearray``
  the scalar side of the step kernel indexes and the array side views
  through NumPy, so there is no second copy to keep in step — plus the
  outputs of its last batch that change their net, due one tick later,
  and how many outputs that batch produced (under unit delay that
  single slot is the whole future-event agenda);
* **input messages** are net-change events for boundary nets driven by
  other LPs (or the vector source);
* **output messages** are emitted when a locally driven boundary net
  changes value (a last-sent-value filter keeps message traffic
  identical to the net's committed change stream).

Rollback uses periodic state saving: every ``checkpoint_interval``
processed timestamp batches the LP snapshots its state; a straggler or
anti-message restores the latest snapshot strictly before the straggler
time and normal re-execution coasts forward.

Cancellation and re-send suppression both run through one mechanism,
the **unconfirmed-send buffer**: a rollback moves every send the
restored region might or might not reproduce into the buffer instead of
transmitting anti-messages for all of them.  When re-execution would
emit a message with the same (send time, net, destination) key:

* identical value → the original message is still correct at its
  receiver; nothing is transmitted and the original is confirmed back
  into the live-send log;
* different value → an anti-message for the original is transmitted
  followed by the new positive.

Any buffered send whose send time falls below the LP's next possible
batch can never be re-issued, so its anti-message is transmitted then
(see :meth:`ClusterLP.flush_unconfirmed`).  Under *aggressive*
cancellation, sends at or after the straggler time skip the buffer and
are cancelled immediately (classic Time Warp); under *lazy*
cancellation they too enter the buffer.  A simpler scheme — cancel
everything after the restore point, or suppress every re-send below the
straggler time ("coast forward") — is unsound under interleaved
rollbacks whose replay regions overlap but see different input sets;
the key-matched buffer handles every interleaving.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from .compiled import CompiledCircuit
from .events import Message

__all__ = ["ClusterLP", "RollbackResult"]


@dataclass
class RollbackResult:
    """Outcome of a rollback: anti-messages to route and undo counts."""

    anti_messages: list[Message]
    undone_events: int
    restored_to: int


class _Checkpoint:
    """One saved LP state: byte snapshots of the value store and the
    last-sent filter, the pending outputs (shared, never mutated) with
    the number of outputs their batch produced, and the gate
    evaluations of the history up to ``vt`` — what a rollback to here
    subtracts from to count the undone ones."""

    __slots__ = ("vt", "values", "due", "produced", "sent", "evals", "size")

    def __init__(self, vt: int, values: bytes, due, produced: int,
                 sent: bytes, evals: int) -> None:
        self.vt = vt
        self.values = values
        self.due = due
        self.produced = produced
        self.sent = sent
        self.evals = evals
        # accounted once (a snapshot is immutable; the LP keeps a
        # running total): one byte per net — the store's pad cell is
        # not state — and per gate; the produced outputs are charged
        # what the agenda slot that once held them all cost (a CPython
        # dict entry per update, one list slot for its time), which
        # keeps tw.peak_checkpoint_bytes comparable across versions
        self.size = len(values) - 1 + len(sent)
        if produced:
            self.size += 32 * (produced + 1) + 8


def _msg_sort_key(m: Message) -> tuple[int, int, int]:
    return (m.recv_time, m.src_lp, m.uid)


class ClusterLP:
    """One cluster LP: a gate subset with Time Warp state management.

    Parameters
    ----------
    lid:
        Dense LP id (index into the engine's LP table).
    circuit:
        The shared compiled circuit.
    gate_ids:
        The gates this LP simulates (a partition cluster).
    checkpoint_interval:
        Batches between state saves (periodic state saving).
    lazy:
        Cancellation policy for sends at/after a straggler: buffered
        for re-match (lazy) or cancelled immediately (aggressive).
    """

    def __init__(
        self,
        lid: int,
        circuit: CompiledCircuit,
        gate_ids: Sequence[int],
        checkpoint_interval: int = 8,
        lazy: bool = True,
        name: str | None = None,
        record_changes: bool = False,
    ) -> None:
        self.lid = lid
        self.name = name or f"lp{lid}"
        self.circuit = circuit
        self.gate_ids = np.sort(np.asarray(gate_ids, dtype=np.int64))
        self.checkpoint_interval = checkpoint_interval
        self.lazy = lazy

        # the kernel's tables over LP-local ids: local net i is global
        # net _net_list[i] (every net a local gate reads or drives)
        self._table, nets = circuit.table.restrict(self.gate_ids)
        self._net_list: list[int] = nets.tolist()
        self._net_loc = {n: i for i, n in enumerate(self._net_list)}

        # the boundary, by local gate (a net has one driver): the step
        # kernel reports a watched gate's output whenever it differs
        # from the last value sent — one byte each per gate
        self._sent = bytearray(circuit.initial_values[nets[self._table.out]])
        self._watched = bytearray(len(self.gate_ids))
        #: watched local gate -> (driven global net, reader LP ids)
        self._readers: dict[int, tuple[int, tuple[int, ...]]] = {}

        # dynamic state: one byte per local net plus the kernel's pad
        # cell — indexed as bytes by the scalar side, seen as int8 by
        # the array side and `values` through a view — and the outputs
        # of the last batch that change their net, due at lvt + 1:
        # {net: value} from a scalar round, an (nets, values) array pair
        # from an array round.  A batch that produced outputs is
        # followed by one at lvt + 1 even when none of them changes
        # anything (then with no work): the schedule and the cost model
        # count produced outputs, not changes
        self._store = bytearray(
            self._table.new_values(circuit.initial_values[nets])
        )
        self._vbuf = np.frombuffer(self._store, dtype=np.int8)
        self._due: dict | tuple | None = None
        self._produced = 0
        self.lvt = -1
        #: cached earliest unprocessed virtual time (None = quiescent);
        #: every queue mutator refreshes it so the engine scheduler
        #: reads an attribute instead of re-deriving the minimum
        self.next_vt: int | None = None
        # kernel counters (aggregated into RunStats): array rounds and
        # their gate evaluations (the scalar side did all the others)
        self.kernel_batches = 0
        self.kernel_batch_gates = 0
        #: batches and gate evaluations since the engine last folded
        #: them into its statistics (it zeroes both at every GVT round)
        self.new_batches = 0
        self.new_evals = 0

        # queues and logs
        self._in_msgs: list[Message] = []
        self._in_keys: list[tuple[int, int, int]] = []  # parallel sort keys
        self._next_idx = 0
        #: live sends confirmed against the current execution history
        self._out_log: list[Message] = []
        #: gate evaluations of the batches not rolled back
        self._live_evals = 0
        #: optional committed-history oracle: (vt, global net, value)
        #: entries; rolled-back entries are rewound with the batches
        self.record_changes = record_changes
        self._change_log: list[tuple[int, int, int]] = []
        self._checkpoints: list[_Checkpoint] = []
        self._ckpt_bytes = 0
        #: bytes of the checkpoints saved since the engine last charged
        #: them to this LP's machine (``ClusterSpec.save_cost``)
        self.saved_bytes = 0
        self._fossil_floor = -1  # oldest kept restore point (vt)
        self._batches_since_ckpt = 0
        self._uid = 0
        #: live sends awaiting confirmation by re-execution, keyed by
        #: (send_time, net, dst_lp); flush_unconfirmed has work only
        #: while this or deferred_antis holds something
        self.unconfirmed: dict[tuple[int, int, int], Message] = {}
        #: anti-messages produced when a re-send superseded a buffered
        #: message with a different value; drained by flush_unconfirmed
        self.deferred_antis: list[Message] = []
        #: anti-messages that arrived before their positive twin
        #: ((uid, src_lp) -> anti); channels are FIFO per machine pair,
        #: but LP migration re-routes queued traffic and can reorder
        self._orphan_antis: dict[tuple[int, int], Message] = {}
        self._save_checkpoint()  # initial state at vt = -1
        self.saved_bytes = 0  # loaded with the circuit, not saved by a batch

    # -- inspection -------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Local net values (a view of the byte store without its pad
        cell, so writes land in the LP)."""
        return self._vbuf[:-1]

    def local_value(self, net: int) -> int:
        """Current local value of a global net id (must be local)."""
        return self._store[self._net_loc[net]]

    def set_readers(self, readers: dict[int, tuple[int, ...]]) -> None:
        """Declare the external reader LPs of locally driven nets
        (global net id -> LP ids); the engine calls this once, after
        every LP exists."""
        gate_of = {net: g for g, net in enumerate(self._table.out.tolist())}
        for net, dsts in readers.items():
            g = gate_of[self._net_loc[net]]
            self._watched[g] = 1
            self._readers[g] = (net, tuple(dsts))

    def has_net(self, net: int) -> bool:
        """Whether this LP holds a copy of ``net``."""
        return net in self._net_loc

    def _recompute_next_vt(self) -> None:
        """Refresh the cached :attr:`next_vt` after a queue mutation."""
        if self._produced:
            # unit delay: outputs are due one tick after the batch that
            # produced them, and nothing can be queued before that
            self.next_vt = self.lvt + 1
        elif self._next_idx < len(self._in_msgs):
            self.next_vt = self._in_msgs[self._next_idx].recv_time
        else:
            self.next_vt = None

    def checkpoint_bytes(self) -> int:
        """Approximate memory held by saved states (fossil metric)."""
        return self._ckpt_bytes

    def min_unconfirmed_recv_time(self) -> int | None:
        """Earliest receive time among buffered sends and deferred
        antis — these bound GVT, since their anti-messages may still
        have to be transmitted."""
        pending = chain(self.unconfirmed.values(), self.deferred_antis)
        return min((m.recv_time for m in pending), default=None)

    # -- message insertion --------------------------------------------------

    def insert_positive(self, msg: Message) -> RollbackResult | None:
        """Enqueue a positive message; rolls back on a straggler.

        Returns a :class:`RollbackResult` when the message's receive
        time is not after ``lvt`` (the LP had optimistically advanced
        past it), else None.  A positive whose anti-message already
        arrived (channel reordering under LP migration) annihilates on
        the spot without entering the queue.
        """
        orphans = self._orphan_antis
        if orphans and orphans.pop((msg.uid, msg.src_lp), None) is not None:
            return None  # annihilated in flight
        rollback = None
        t = msg.recv_time
        if t <= self.lvt:
            rollback = self._rollback_to(t)
        key = _msg_sort_key(msg)
        idx = bisect_right(self._in_keys, key)
        if idx < self._next_idx:  # pragma: no cover - defensive
            raise SimulationError(
                f"{self.name}: message inserted into processed region "
                f"without rollback (recv_time={t}, lvt={self.lvt})"
            )
        self._in_msgs.insert(idx, msg)
        self._in_keys.insert(idx, key)
        # after a rollback lvt < t, so pending outputs (due lvt + 1)
        # still come first: the new earliest time is a plain minimum
        if self.next_vt is None or t < self.next_vt:
            self.next_vt = t
        return rollback

    def preload(self, msgs: list[Message]) -> None:
        """Enqueue positive messages in one go, before the LP has run.

        What :meth:`insert_positive` does one message at a time, minus
        the cases that cannot arise yet: with ``lvt == -1`` nothing was
        processed or sent, so there is no straggler to roll back for and
        no anti-message waiting for its twin.  Equal queue keys keep
        their order (earlier calls first), as repeated insertion would.
        """
        queue = sorted(self._in_msgs + msgs, key=_msg_sort_key)
        if self.lvt != -1 or (queue and queue[0].recv_time < 0):
            raise SimulationError(
                f"{self.name}: preload needs an LP that has not run "
                f"(lvt={self.lvt}) and messages from t=0 on"
            )
        self._in_msgs = queue
        self._in_keys = [_msg_sort_key(m) for m in queue]
        self._recompute_next_vt()

    def insert_anti(self, msg: Message) -> RollbackResult | None:
        """Process an anti-message: annihilate its positive twin.

        If the twin was already processed, first rolls back so it moves
        into the unprocessed region, then removes it.  If the twin has
        not arrived yet (channels are FIFO per machine pair, but LP
        migration re-routes queued traffic and can reorder), the anti is
        parked and annihilates the twin on arrival.
        """
        rollback = None
        if msg.recv_time <= self.lvt:
            rollback = self._rollback_to(msg.recv_time)
        idx = self._find_twin(msg)
        if idx is None:
            self._orphan_antis[(msg.uid, msg.src_lp)] = msg
            return rollback
        del self._in_msgs[idx]
        del self._in_keys[idx]
        if idx < self._next_idx:  # pragma: no cover - defensive
            self._next_idx -= 1
        self._recompute_next_vt()
        return rollback

    def _find_twin(self, anti: Message) -> int | None:
        keys, key = self._in_keys, _msg_sort_key(anti)
        lo = bisect_left(keys, key)
        if lo < len(keys) and keys[lo] == key and self._in_msgs[lo].sign == 1:
            return lo
        return None

    # -- execution ---------------------------------------------------------

    def execute_batch(self) -> tuple[int, list[Message]]:
        """Process every pending event at the earliest pending time.

        One round of the step kernel over the local gate subset, at
        what then is :attr:`lvt`; returns the number of gates evaluated
        and the boundary messages to transmit (re-sends confirmed
        against the unconfirmed buffer are not among them — nothing
        needs to travel for those).
        """
        T = self.next_vt
        if T is None:
            raise SimulationError(f"{self.name}: execute_batch with no work")
        updates = self._due
        msgs = self._in_msgs
        i = self._next_idx
        end = len(msgs)
        if i < end and msgs[i].recv_time == T:
            # messages land after the local outputs, last write wins
            # (on a copy: checkpoints share the pending outputs)
            if updates is None:
                updates = {}
            elif type(updates) is dict:
                updates = updates.copy()
            else:
                updates = dict(zip(updates[0].tolist(), updates[1].tolist()))
            net_loc = self._net_loc
            while i < end and msgs[i].recv_time == T:
                updates[net_loc[msgs[i].net]] = msgs[i].value
                i += 1
            self._next_idx = i
        result = None
        if updates is not None:  # else outputs were produced, none changes
            result = self._table.step(self._store, updates, self._sent,
                                      self._watched)
        sends: list[Message] = []
        if result is None:
            n_evals = produced = 0
            due = None
        else:
            changed, n_evals, produced, due, crossed = result
            self._live_evals += n_evals
            self.new_evals += n_evals
            if type(changed) is not dict:  # the array side ran
                self.kernel_batches += 1
                self.kernel_batch_gates += n_evals
            if self.record_changes:
                net_list, store = self._net_list, self._store
                self._change_log.extend(
                    (T, net_list[n], store[n]) for n in changed
                )
            for gate, value in crossed:
                net, dsts = self._readers[gate]
                for dst in dsts:
                    msg = self._emit(T, net, value, dst)
                    if msg is not None:
                        sends.append(msg)
            self._out_log.extend(sends)
        self._due = due
        self._produced = produced
        # unit delay: produced outputs are due at T + 1, before any message
        self.next_vt = T + 1 if produced else (
            msgs[i].recv_time if i < end else None
        )
        self.lvt = T
        self.new_batches += 1
        self._batches_since_ckpt += 1
        if self._batches_since_ckpt >= self.checkpoint_interval:
            self._save_checkpoint()
        return n_evals, sends

    def _emit(self, send_time: int, net: int, value: int, dst: int) -> Message | None:
        """Create an outgoing message, due one tick after it is sent,
        unless an identical live one is already at the receiver
        (unconfirmed-buffer match)."""
        prev = self.unconfirmed.pop((send_time, net, dst), None)
        if prev is not None:
            if prev.value == value:
                # the original is still correct: confirm it back into
                # the live log, transmit nothing
                self._out_log.append(prev)
                return None
            # superseded: the original must die before the replacement
            self.deferred_antis.append(prev.anti())
        msg = Message(send_time + 1, net, value, self.lid, dst, send_time, self._uid)
        self._uid += 1
        return msg

    def flush_unconfirmed(self, before_vt: int | None = None) -> list[Message]:
        """Anti-messages for buffered sends that can no longer be
        re-issued: re-execution has advanced (or can only advance)
        beyond their send time without re-emitting them.

        ``before_vt=None`` flushes everything (used at quiescence).
        Deferred supersede-antis are always drained.
        """
        out: list[Message] = []
        if self.unconfirmed:
            keep: dict[tuple[int, int, int], Message] = {}
            for key, msg in self.unconfirmed.items():
                if before_vt is None or msg.send_time < before_vt:
                    out.append(msg.anti())
                else:
                    keep[key] = msg
            self.unconfirmed = keep
        if self.deferred_antis:
            out.extend(self.deferred_antis)
            self.deferred_antis = []
        return out

    # -- state saving / rollback -------------------------------------------

    def _save_checkpoint(self) -> None:
        cp = _Checkpoint(
            self.lvt, bytes(self._store), self._due, self._produced,
            bytes(self._sent), self._live_evals,
        )
        self._checkpoints.append(cp)
        self._ckpt_bytes += cp.size
        self.saved_bytes += cp.size
        self._batches_since_ckpt = 0

    def _rollback_to(self, straggler_vt: int) -> RollbackResult:
        """Restore the latest checkpoint strictly before ``straggler_vt``.

        Sends after the restore point move into the unconfirmed buffer
        for re-execution to confirm or supersede; under aggressive
        cancellation the ones at/after the straggler time (which the
        straggler may genuinely invalidate) are cancelled immediately
        instead.
        """
        cp = None
        while self._checkpoints:
            cand = self._checkpoints[-1]
            if cand.vt < straggler_vt:
                cp = cand
                break
            self._ckpt_bytes -= self._checkpoints.pop().size
        if cp is None:  # pragma: no cover - fossil collection keeps one
            raise SimulationError(
                f"{self.name}: no checkpoint before t={straggler_vt} "
                f"(over-aggressive fossil collection)"
            )
        # slice assignment, never a rebind: the NumPy view must stay
        # attached to the store
        self._store[:] = cp.values
        self._sent[:] = cp.sent
        self._due = cp.due
        self._produced = cp.produced
        self.lvt = cp.vt
        self._batches_since_ckpt = 0

        # reset the input cursor to the first message after the restore point
        self._next_idx = bisect_right(self._in_keys, (cp.vt, 1 << 62, 1 << 62))
        self._recompute_next_vt()

        antis: list[Message] = []
        keep: list[Message] = []
        for msg in self._out_log:
            if msg.send_time <= cp.vt:
                keep.append(msg)  # below the restore point: untouched
            elif self.lazy or msg.send_time < straggler_vt:
                self.unconfirmed[msg.send_time, msg.net, msg.dst_lp] = msg
            else:
                antis.append(msg.anti())
        self._out_log = keep

        undone = self._live_evals - cp.evals
        self._live_evals = cp.evals
        if self.record_changes:
            while self._change_log and self._change_log[-1][0] > cp.vt:
                self._change_log.pop()
        return RollbackResult(antis, undone, cp.vt)

    # -- fossil collection ---------------------------------------------------

    def fossil_collect(self, gvt: int) -> None:
        """Reclaim state older than GVT, keeping one restore point."""
        # keep the newest checkpoint with vt < gvt, drop older ones
        keep_from = 0
        for i, cp in enumerate(self._checkpoints):
            if cp.vt < gvt:
                keep_from = i
        if keep_from > 0:
            for cp in self._checkpoints[:keep_from]:
                self._ckpt_bytes -= cp.size
            del self._checkpoints[:keep_from]
        floor = self._checkpoints[0].vt
        if floor == self._fossil_floor:
            # unchanged restore point: every surviving log entry and
            # processed message already cleared this floor last round,
            # and entries added since are strictly above it
            return
        self._fossil_floor = floor
        # drop processed input messages at or before the kept restore point
        cut = bisect_right(self._in_keys, (floor, 1 << 62, 1 << 62))
        cut = min(cut, self._next_idx)
        if cut:
            del self._in_msgs[:cut]
            del self._in_keys[:cut]
            self._next_idx -= cut
        self._out_log = [m for m in self._out_log if m.send_time > floor]
