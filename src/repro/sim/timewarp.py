"""Time Warp engine on a deterministic virtual cluster.

The engine plays the role of DVS's distributed simulation engine plus
the OOCTW kernel plus MPICH (paper Figure 4), but executes the whole
parallel run *deterministically in one process*: machine wall clocks
are modeled floats advanced by the :class:`~repro.sim.cluster.ClusterSpec`
cost model, and inter-machine messages become visible at the receiver
``msg_latency`` after they were sent.  Optimism, stragglers, rollbacks,
anti-messages, GVT and fossil collection all happen exactly as they
would on real hardware; only the clock is modeled.

Driver loop: repeatedly pick the machine whose next action (processing
a ready event batch, or waking up for a message arrival) happens
earliest in modeled wall time, deliver its due messages (possibly
triggering rollbacks), then let it execute the lowest-virtual-time LP
it hosts — the standard Time Warp scheduling discipline — provided the
batch is within the optimism horizon (``gvt + optimism_window``, set
once per GVT round) or, in conservative mode, at the global safe time.

Determinism: ties are broken by machine id, LP id, and message serials;
two runs with the same inputs produce identical statistics.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import SimulationError
from ..obs.trace import TraceBuffer
from .cluster import ClusterSpec, LPStats, MachineStats, RunStats, TimeWarpConfig
from .compiled import CompiledCircuit
from .events import InputEvent, Message, check_stimulus
from .lp import ClusterLP
from .sequential import SequentialSimulator

__all__ = ["TimeWarpEngine"]

#: sentinel marking a machine's cached next-action time as stale
_STALE = object()
#: a machine's next-action time when it has nothing to do
_IDLE = math.inf
#: above every virtual time (also GVT once everything is committed)
_NEVER = 1 << 62


class _Machine:
    __slots__ = (
        "mid", "wall", "lps", "arrivals", "stats", "action_cache", "pick",
        "next_vt",
    )

    def __init__(self, mid: int) -> None:
        self.mid = mid
        self.wall = 0.0
        #: the hosted LPs, in id order
        self.lps: list[ClusterLP] = []
        #: heap of (arrival_wall, serial, Message)
        self.arrivals: list[tuple[float, int, Message]] = []
        self.stats = MachineStats()
        #: memoized wall time of the next action (_IDLE: nothing to
        #: do), set by the pricing pass of run(); every event that can
        #: change it (own execution, arrival push, GVT round) stamps
        #: the sentinel so only touched machines are re-derived
        self.action_cache: object = _STALE
        #: the eligible ready LP the pricing behind action_cache found,
        #: if any — good until a delivery changes a hosted LP
        self.pick: ClusterLP | None = None
        #: earliest hosted ``next_vt`` at the last pricing (conservative
        #: mode reads every machine's for the global safe bound)
        self.next_vt: int = _NEVER


def _price(m: _Machine) -> None:
    """Set ``m.pick`` / ``m.next_vt`` to the linear (vt, lid) argmin over
    the hosted LPs (in id order: the lowest id wins a tie)."""
    pick, vt = None, _NEVER
    for lp in m.lps:
        lp_vt = lp.next_vt
        if lp_vt is not None and lp_vt < vt:
            pick, vt = lp, lp_vt
    m.pick, m.next_vt = pick, vt


class TimeWarpEngine:
    """Distributed Verilog simulation of one partitioned circuit.

    Parameters
    ----------
    circuit:
        Compiled circuit (shared with the sequential baseline).
    clusters:
        Gate-id list per LP: each inner sequence becomes one cluster LP
        (paper §4.3) — a machine's share from a partition result's
        ``to_simulation()``.  Every gate must appear in exactly one
        cluster.
    lp_machine:
        Machine index per LP (the partition assignment), fixed for the
        whole run as on the paper's Clustered Time Warp testbed.
    spec:
        Virtual cluster hardware model.
    config:
        Kernel tuning (checkpoint/GVT intervals, cancellation policy).
    trace:
        Optional :class:`~repro.obs.trace.TraceBuffer`; when given, the
        engine emits one event per batch execution, message routing,
        rollback, GVT round and throttle transition — the
        debugging trail for rollback cascades (``docs/observability.md``
        walks through one).  ``None`` (default) disables tracing at
        zero cost; traced quantities are all modeled, so a trace never
        perturbs results and identical runs dump identical JSONL.
    progress:
        Optional :class:`~repro.obs.progress.ProgressHeartbeat` (or any
        object with a compatible ``update`` method).  Called once per
        GVT round with the live GVT estimate, processed-event count,
        rollback count and modeled wall clock; the heartbeat throttles
        and prints on its own.  ``None`` (default) keeps long runs
        silent at zero cost; a heartbeat only reads, so attaching one
        never changes simulation results.
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        clusters: Sequence[Sequence[int]],
        lp_machine: Sequence[int],
        spec: ClusterSpec,
        config: TimeWarpConfig = TimeWarpConfig(),
        trace: TraceBuffer | None = None,
        progress=None,
    ) -> None:
        if len(clusters) != len(lp_machine):
            raise SimulationError(
                f"{len(clusters)} clusters but {len(lp_machine)} machine assignments"
            )
        self.circuit = circuit
        self.spec = spec
        self.config = config
        self.lp_machine = tuple(int(m) for m in lp_machine)
        for m in self.lp_machine:
            if not (0 <= m < spec.num_machines):
                raise SimulationError(f"machine id {m} out of range")

        sizes = [len(cl) for cl in clusters]
        gids = np.concatenate([
            np.empty(0, dtype=np.int64),  # no cluster at all is no gate
            *(np.asarray(cl, dtype=np.int64) for cl in clusters),
        ])
        if gids.size and not 0 <= gids.min() <= gids.max() < circuit.num_gates:
            raise SimulationError("clusters name a gate the circuit lacks")
        seen = np.bincount(gids, minlength=circuit.num_gates)
        if (seen > 1).any():
            raise SimulationError(
                f"gate {int(np.argmax(seen > 1))} appears in two clusters"
            )
        if not seen.all():
            raise SimulationError(
                f"clusters cover {np.count_nonzero(seen)} of "
                f"{circuit.num_gates} gates"
            )
        #: LP id per gate — the one table that message destinations,
        #: stimulus readers and final values are derived from
        self._gate_lp = np.empty(circuit.num_gates, dtype=np.int32)
        self._gate_lp[gids] = np.repeat(
            np.arange(len(clusters), dtype=np.int32), sizes
        )

        self.lps = [
            ClusterLP(
                lid,
                circuit,
                gate_ids,
                checkpoint_interval=config.checkpoint_interval,
                lazy=config.lazy_cancellation,
                record_changes=config.record_changes,
            )
            for lid, gate_ids in enumerate(clusters)
        ]
        self._wire_destinations()
        self.machines = [_Machine(m) for m in range(spec.num_machines)]
        for lid, m in enumerate(self.lp_machine):
            self.machines[m].lps.append(self.lps[lid])
        self.stats = RunStats(num_machines=spec.num_machines)
        self.stats.lps = [LPStats(lid=lid) for lid in range(len(self.lps))]
        self._trace = trace
        self._progress = progress
        self._arrival_serial = 0
        self._gvt_estimate = -1
        self._stalled_rounds = 0
        self._emergency_throttle = False
        #: latest virtual time an optimistic batch may run at; every
        #: GVT round sets it from the estimate, window and throttle
        self._horizon: int | float = -1
        # per-LP activity since the last GVT round (adaptive
        # checkpointing uses these); the evaluations are the LPs' own
        # counters, read when the round folds them
        self._lp_recent_evals = [0] * len(self.lps)
        self._lp_recent_rollbacks = [0] * len(self.lps)
        # conservative mode: exact global safe-time tracking
        self._conservative = config.conservative
        #: lazy min-heap of in-flight message receive times
        self._inflight_recv: list[int] = []
        self._inflight_removed: dict[int, int] = {}
        self._finished = False
        if self._conservative:
            for lp in self.lps:
                # rollback-free execution needs no state saving
                lp.checkpoint_interval = 1 << 30

    def _readers(self, net: int) -> list[int]:
        """Sorted ids of the LPs holding a gate that reads ``net``."""
        c = self.circuit
        sinks = c.sink_gate[c.sink_offsets[net]:c.sink_offsets[net + 1]]
        return np.unique(self._gate_lp[sinks]).tolist()

    def _wire_destinations(self) -> None:
        """Compute, per LP, the external reader LPs of each driven net."""
        c = self.circuit
        num_lps = len(self.lps)
        reader = np.repeat(self._gate_lp, np.diff(c.pin_offsets))
        driver = np.full(c.num_nets, -1, dtype=np.int32)
        driver[c.gate_output] = self._gate_lp
        pin_driver = driver[c.pin_net]
        crossing = (pin_driver != -1) & (pin_driver != reader)
        # distinct (net, reader LP) pairs in (net, LP) order
        pairs = np.unique(c.pin_net[crossing] * num_lps + reader[crossing])
        nets, dsts = np.divmod(pairs, num_lps)
        readers: dict[int, dict[int, tuple[int, ...]]] = {}
        for net, src, dst in zip(nets.tolist(), driver[nets].tolist(), dsts.tolist()):
            dests = readers.setdefault(src, {})
            dests[net] = dests.get(net, ()) + (dst,)
        for src, dests in readers.items():
            self.lps[src].set_readers(dests)

    # -- stimulus -------------------------------------------------------------

    def load_inputs(self, events: Iterable[InputEvent]) -> None:
        """Pre-load the vector stream into the reader LPs' queues.

        The vector source (DVS's testbench side) is modeled as an
        environment LP (id -1) whose messages are available from wall
        time zero — it never causes rollbacks because its events are
        strictly in the future when loaded.
        """
        if self._finished:
            raise SimulationError(
                "load_inputs() on a finished engine: run() has committed "
                "and fossil-collected its history; build a new engine"
            )
        num_nets = self.circuit.num_nets
        # per net, its reader LPs each with the list that becomes its queue
        readers: dict[int, list[tuple[int, list[Message]]]] = {}
        queues: dict[int, list[Message]] = {}
        uid = 0
        for ev in events:
            check_stimulus(ev.time, ev.net, ev.value, num_nets)
            dsts = readers.get(ev.net)
            if dsts is None:
                dsts = readers[ev.net] = [
                    (dst, queues.setdefault(dst, []))
                    for dst in self._readers(ev.net)
                ]
            for dst, queue in dsts:  # from LP -1, sent the tick before
                queue.append(
                    Message(ev.time, ev.net, ev.value, -1, dst, ev.time - 1, uid)
                )
                uid += 1
        for dst, queue in queues.items():
            self.lps[dst].preload(queue)
        self.stats.env_messages += uid

    # -- main loop -------------------------------------------------------------

    def run(self) -> RunStats:
        """Execute to completion; returns aggregate statistics (the
        same, untouched, when called again on a finished engine).

        One loop, one engine step per pass: price the machines whose
        next action may have moved, take the earliest (lowest id on a
        tie), advance its wall clock to that action, deliver its due
        arrivals — re-pricing it when they moved its LPs' times — and
        run its earliest eligible LP's batch.  Optimistic or
        conservative eligibility and tracing are branches on local
        flags.
        """
        stats = self.stats
        if self._finished:
            return stats
        machines = self.machines
        lps = self.lps
        conservative = self._conservative
        trace = self._trace
        event_cost, save_cost = self.spec.event_cost, self.spec.save_cost
        route = self._route
        self._gvt_round()
        horizon = self._horizon
        gvt_interval = self.config.gvt_interval
        until_gvt = gvt_interval
        settled = False  # the last GVT round was taken for want of work
        repriced = None  # the machine whose deliveries just moved LP times
        while True:
            best, best_t = repriced, _IDLE
            priced = machines if repriced is None else (repriced,)
            if conservative:
                # conservative eligibility reads global state, so one
                # machine's progress can change every other machine's
                # answer: the memo is only sound under optimism.  Every
                # machine is priced before any is judged, against the
                # bound their minima give
                for m in priced:
                    _price(m)
                bound = self._safe_bound()
            else:
                bound = horizon
            for m in priced:
                t = m.action_cache
                if t is _STALE or conservative:
                    if not conservative:
                        _price(m)
                    pick = m.pick
                    if pick is not None and m.next_vt > bound:
                        # its earliest batch may not run yet (optimistic:
                        # past the window; conservative: an earlier
                        # event may still land)
                        m.pick = pick = None
                    if pick is not None:
                        # deliveries due before/at the wall happen first anyway
                        t = m.wall
                    elif m.arrivals:
                        t = max(m.wall, m.arrivals[0][0])
                    else:
                        t = _IDLE
                    m.action_cache = t
                if t < best_t:
                    best, best_t = m, t
            if repriced is None:
                if best is None:
                    # Not necessarily done: (a) every LP may be blocked on
                    # a stale GVT estimate (the refresh unblocks whoever
                    # holds the true minimum), or (b) a quiescent LP may
                    # still owe anti-messages for unconfirmed sends it
                    # will never re-issue — the GVT round retires those,
                    # and their delivery is new work.  Terminate only when
                    # a fresh round surfaces neither.
                    if settled:
                        break
                    self._gvt_round()
                    horizon = self._horizon
                    settled = True
                    continue
                settled = False
                m = best
                if best_t > m.wall:
                    m.wall = best_t  # idle until the arrival
                arrivals = m.arrivals
                if arrivals and arrivals[0][0] <= m.wall:
                    self._deliver_due(m)
                    m.action_cache = _STALE
                    repriced = m
                    continue
            else:
                m, repriced = repriced, None
            lp = m.pick
            if lp is not None:
                if lp.unconfirmed or lp.deferred_antis:
                    for anti in lp.flush_unconfirmed(before_vt=lp.next_vt):
                        m.wall += route(m, (anti,))
                evals, sends = lp.execute_batch()
                cost = (evals or 1) * event_cost
                if lp.saved_bytes:  # the batch ended in a checkpoint
                    cost += lp.saved_bytes * save_cost
                    lp.saved_bytes = 0
                if sends:
                    cost = route(m, sends, cost)
                if lp.next_vt is None and (lp.unconfirmed or lp.deferred_antis):
                    cost = route(m, lp.flush_unconfirmed(), cost)
                m.wall += cost
                m.stats.busy_time += cost
                if trace is not None:
                    trace.emit(
                        "exec",
                        machine=m.mid,
                        lp=lp.lid,
                        wall=m.wall,
                    )
            m.action_cache = _STALE  # wall and/or LP state moved
            until_gvt -= 1
            if not until_gvt:
                self._gvt_round()
                horizon = self._horizon
                until_gvt = gvt_interval
        self._gvt_round()  # last counter fold, fossil sweep & memory sample
        stats.wall_time = max((m.wall for m in machines), default=0.0)
        for m in machines:
            m.stats.wall_time = m.wall
            stats.machines.append(m.stats)
        stats.committed_events = stats.processed_events - stats.rolled_back_events
        for lp in lps:
            stats.kernel_batches += lp.kernel_batches
            stats.kernel_batch_gates += lp.kernel_batch_gates
        stats.kernel_scalar_gates = (
            stats.processed_events - stats.kernel_batch_gates
        )
        self._finished = True
        return stats

    # -- conservative safe time -------------------------------------------

    def _safe_bound(self) -> int:
        """Exact global safe bound: a batch at ``vt`` may run iff
        ``vt`` is at most this.

        It is the earliest unprocessed event anywhere (equal-time
        queued events at other LPs are fine — lookahead is one tick)
        and one tick before the earliest in-flight message (which must
        land first).  The earliest event is the least of the machines'
        minima from their last pricing: a machine's LPs move only when
        it runs or is delivered to, and both re-price it.
        """
        bound = min(m.next_vt for m in self.machines)
        inflight_min = self._inflight_min()
        if inflight_min is not None:
            bound = min(bound, inflight_min - 1)
        return bound

    def _inflight_min(self) -> int | None:
        heap = self._inflight_recv
        removed = self._inflight_removed
        while heap:
            top = heap[0]
            if removed.get(top):
                removed[top] -= 1
                if not removed[top]:
                    del removed[top]
                heapq.heappop(heap)
                continue
            return top
        return None

    # -- delivery & routing ------------------------------------------------------

    def _deliver_due(self, machine: _Machine) -> None:
        """Apply the arrivals due by the machine's wall clock (which a
        rollback moves: routing its anti-messages costs CPU)."""
        arrivals = machine.arrivals
        lps = self.lps
        removed = self._inflight_removed if self._conservative else None
        while arrivals and arrivals[0][0] <= machine.wall:
            msg = heapq.heappop(arrivals)[2]
            t = msg.recv_time
            if removed is not None:
                removed[t] = removed.get(t, 0) + 1
            lp = lps[msg.dst_lp]
            depth = lp.lvt - t  # >= 0 iff msg is a straggler
            if msg.sign > 0:
                rollback = lp.insert_positive(msg)
            else:
                rollback = lp.insert_anti(msg)
            if rollback is not None:
                self._account_rollback(machine, lp, rollback, msg, depth)

    def _account_rollback(
        self, machine, lp: ClusterLP, rollback, straggler: Message, depth: int
    ) -> None:
        spec = self.spec
        stats = self.stats
        stats.rollbacks += 1
        machine.stats.rollbacks += 1
        stats.rolled_back_events += rollback.undone_events
        lp_stats = stats.lps[lp.lid]
        lp_stats.rollbacks += 1
        lp_stats.undone_events += rollback.undone_events
        if depth > lp_stats.max_straggler_depth:
            lp_stats.max_straggler_depth = depth
        if depth > stats.max_straggler_depth:
            stats.max_straggler_depth = depth
        cost = spec.rollback_overhead + rollback.undone_events * spec.undo_cost
        if rollback.anti_messages:
            cost = self._route(machine, rollback.anti_messages, cost)
        machine.wall += cost
        machine.stats.busy_time += cost
        self._lp_recent_rollbacks[lp.lid] += 1
        if self._trace is not None:
            self._trace.emit(
                "rollback",
                machine=machine.mid,
                lp=lp.lid,
                straggler_vt=straggler.recv_time,
                straggler_src=straggler.src_lp,
                straggler_machine=(self.lp_machine[straggler.src_lp]
                                   if straggler.src_lp >= 0 else -1),
                straggler_uid=straggler.uid,
                sign=straggler.sign,
                undone=rollback.undone_events,
                antis=len(rollback.anti_messages),
                depth=depth,
                wall=machine.wall,
            )

    def _route(
        self, src_machine: _Machine, msgs: Sequence[Message], cost: float = 0.0
    ) -> float:
        """Dispatch messages in order, all sent at the machine's current
        wall clock; returns ``cost`` plus the CPU cost charged to the
        sender for each, added one message at a time.

        Every message — including an intra-machine one — goes through
        the destination machine's arrival queue and is applied at the
        next delivery point.  Never mutating LP state mid-execution
        keeps the kernel non-reentrant: a send can't recursively roll
        back the LP whose batch produced it.
        """
        machines, lp_machine = self.machines, self.lp_machine
        stats = self.stats
        lp_stats = stats.lps
        inflight = self._inflight_recv if self._conservative else None
        trace = self._trace
        heappush = heapq.heappush
        wall = src_machine.wall
        arrival = wall + self.spec.msg_latency
        overhead = self.spec.msg_cpu_overhead
        serial = self._arrival_serial
        for msg in msgs:
            dst_machine = machines[lp_machine[msg.dst_lp]]
            dst_machine.action_cache = _STALE  # a new arrival is pending
            serial += 1
            if inflight is not None:
                heappush(inflight, msg.recv_time)
            positive = msg.sign > 0
            if msg.src_lp >= 0:
                # per-LP send accounting is placement-independent: every
                # inter-LP message counts, local or remote
                if positive:
                    lp_stats[msg.src_lp].msgs_sent += 1
                else:
                    lp_stats[msg.src_lp].antis_sent += 1
            local = dst_machine is src_machine
            if trace is not None:
                trace.emit(
                    "send",
                    src_machine=src_machine.mid,
                    dst_machine=dst_machine.mid,
                    src_lp=msg.src_lp,
                    dst_lp=msg.dst_lp,
                    net=msg.net,
                    recv_time=msg.recv_time,
                    sign=msg.sign,
                    uid=msg.uid,
                    wall=wall,
                )
            if local:
                # intra-machine: a queue insert, no network, no CPU charge
                heappush(dst_machine.arrivals, (wall, serial, msg))
                continue
            if positive:
                stats.messages += 1
            else:
                stats.anti_messages += 1
            src_machine.stats.msgs_sent += 1
            heappush(dst_machine.arrivals, (arrival, serial, msg))
            cost += overhead
        self._arrival_serial = serial
        return cost

    # -- GVT ----------------------------------------------------------------------

    def _gvt_round(self) -> None:
        """Exact GVT from global knowledge, then fossil collection.

        Also retires unconfirmed-send leftovers that can no longer be
        re-issued (their send time precedes the owner's next possible
        batch), transmitting their anti-messages — otherwise a blocked
        or quiescent LP would pin GVT forever.
        """
        stats = self.stats
        # fold the LPs' batch counters first — progress and adaptive
        # checkpointing read them; each batch is charged to the machine
        # that hosts (and ran) it
        recent = []
        for lp, lp_stats, mid in zip(self.lps, stats.lps, self.lp_machine):
            batches, evals = lp.new_batches, lp.new_evals
            recent.append(evals)
            if batches:
                machine_stats = self.machines[mid].stats
                lp_stats.batches += batches
                lp_stats.gate_evals += evals
                machine_stats.batches += batches
                machine_stats.gate_evals += evals
                stats.processed_events += evals
                lp.new_batches = lp.new_evals = 0
        self._lp_recent_evals = recent

        gvt = _NEVER  # stays there when everything is committed
        for lp in self.lps:
            if lp.unconfirmed or lp.deferred_antis:
                # (routing only queues arrivals: no LP's times move)
                machine = self.machines[self.lp_machine[lp.lid]]
                for anti in lp.flush_unconfirmed(before_vt=lp.next_vt):
                    machine.wall += self._route(machine, (anti,))
                t = lp.min_unconfirmed_recv_time()
                if t is not None and t < gvt:
                    gvt = t
            t = lp.next_vt
            if t is not None and t < gvt:
                gvt = t
        for m in self.machines:
            for _, _, msg in m.arrivals:
                if msg.recv_time < gvt:
                    gvt = msg.recv_time
        stats.gvt_rounds += 1

        # stall detection: if GVT refuses to advance (aggressive-mode
        # rollback echo), clamp optimism until it moves again
        throttle_before = self._emergency_throttle
        if gvt <= self._gvt_estimate and gvt < _NEVER:
            self._stalled_rounds += 1
            if self._stalled_rounds >= self.config.stall_threshold:
                self._emergency_throttle = True
        else:
            self._stalled_rounds = 0
            self._emergency_throttle = False
        if self._trace is not None and self._emergency_throttle != throttle_before:
            self._trace.emit(
                "throttle",
                engaged=self._emergency_throttle,
                gvt=min(gvt, _NEVER),
            )
        if gvt > self._gvt_estimate:
            self._gvt_estimate = gvt
        window = self.config.optimism_window
        if self._emergency_throttle:
            self._horizon = self._gvt_estimate + 1
        elif window is None:
            self._horizon = math.inf
        else:
            self._horizon = self._gvt_estimate + window

        total_bytes = 0
        for lp in self.lps:
            lp.fossil_collect(gvt)
            total_bytes += lp.checkpoint_bytes()
        if total_bytes > stats.peak_checkpoint_bytes:
            stats.peak_checkpoint_bytes = total_bytes
        if self._trace is not None:
            self._trace.emit(
                "gvt",
                round=stats.gvt_rounds,
                gvt=gvt,
            )

        if self._progress is not None:
            self._progress.update(
                gvt=self._gvt_estimate,
                rounds=stats.gvt_rounds,
                processed=stats.processed_events,
                rollbacks=stats.rollbacks,
                wall=max((m.wall for m in self.machines), default=0.0),
            )

        if self.config.adaptive_checkpointing:
            self._adapt_checkpoint_intervals()
            self._lp_recent_rollbacks = [0] * len(self.lps)
        # the round may have flushed sends or moved the optimism
        # horizon: every cached next-action time is suspect now
        for m in self.machines:
            m.action_cache = _STALE

    # -- adaptive checkpointing ----------------------------------------------

    def _adapt_checkpoint_intervals(self) -> None:
        """Classic adaptive state saving: checkpoint often where
        rollbacks happen, rarely where execution runs clean."""
        max_ci = self.config.max_checkpoint_interval
        for lp in self.lps:
            if self._lp_recent_rollbacks[lp.lid] > 0:
                lp.checkpoint_interval = max(1, lp.checkpoint_interval // 2)
            elif self._lp_recent_evals[lp.lid] > 0:
                lp.checkpoint_interval = min(max_ci, lp.checkpoint_interval * 2)

    # -- verification -----------------------------------------------------------

    def final_net_values(self) -> dict[int, int]:
        """Committed value per net, read from the driving LP's copy
        (reader LPs' copies for undriven/PI nets)."""
        circuit = self.circuit
        out: dict[int, int] = {}
        for lp in self.lps:
            for net in circuit.gate_output[lp.gate_ids].tolist():
                out[net] = lp.local_value(net)
        for net in circuit.inputs:
            readers = self._readers(net)
            if readers:
                out[net] = self.lps[readers[0]].local_value(net)
        return out

    def committed_changes(self) -> dict[tuple[int, int], int]:
        """Merged committed (time, net) -> value history across LPs.

        Requires ``TimeWarpConfig(record_changes=True)``.  A net local
        to several LPs (driver + readers) is recorded by each; their
        copies must agree, which this method also checks.
        """
        if not self.config.record_changes:
            raise SimulationError(
                "committed_changes() needs TimeWarpConfig(record_changes=True)"
            )
        merged: dict[tuple[int, int], int] = {}
        for lp in self.lps:
            for vt, net, value in lp._change_log:
                key = (vt, net)
                seen = merged.get(key)
                if seen is not None and seen != value:
                    raise SimulationError(
                        f"LPs disagree on net {self.circuit.netlist.net_name(net)!r} "
                        f"at t={vt}: {seen} vs {value}"
                    )
                merged[key] = value
        return merged

    def verify_change_stream(self, reference: SequentialSimulator) -> None:
        """Deep oracle: the committed change history must equal the
        sequential simulator's, entry for entry.

        Both sides need change recording enabled.  This subsumes
        :meth:`verify_against_sequential` (final values are the last
        entries of the stream) and additionally pins every intermediate
        committed transition.
        """
        if not reference.record_changes:
            raise SimulationError(
                "the reference simulator was not built with record_changes=True"
            )
        # nets no gate touches (e.g. a primary input nothing reads) exist
        # only in the sequential world; exclude them from the oracle
        observable = set(self.circuit.pin_net.tolist())
        observable.update(self.circuit.gate_output.tolist())
        expected = {
            (t, net): value
            for t, net, value in reference.change_log
            if net in observable
        }
        got = self.committed_changes()
        if got != expected:
            missing = set(expected) - set(got)
            extra = set(got) - set(expected)
            wrong = {
                k for k in set(got) & set(expected) if got[k] != expected[k]
            }
            def fmt(keys):
                sample = sorted(keys)[:4]
                return ", ".join(
                    f"(t={t}, {self.circuit.netlist.net_name(n)})"
                    for t, n in sample
                )
            raise SimulationError(
                "committed change stream diverges from the sequential oracle: "
                f"{len(missing)} missing [{fmt(missing)}], "
                f"{len(extra)} extra [{fmt(extra)}], "
                f"{len(wrong)} wrong values [{fmt(wrong)}]"
            )

    def verify_against_sequential(self, reference: SequentialSimulator) -> None:
        """Raise :class:`SimulationError` on any divergence from the
        sequential oracle (driven net values at end of run)."""
        vals = self.final_net_values()
        for net, v in vals.items():
            ref = int(reference.values[net])
            if ref != v:
                raise SimulationError(
                    f"divergence on net {self.circuit.netlist.net_name(net)!r} "
                    f"(id {net}): timewarp={v} sequential={ref}"
                )
