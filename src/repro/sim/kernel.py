"""The unit-delay step kernel shared by both simulators.

A unit-delay timestep is a *round*: every net update scheduled for time
``t`` is applied, every gate reading a net that really changed is
evaluated against the post-update values (flip-flops sample their data
pins from the pre-update ones), and its output is due at ``t + 1``.
All gates of a round read the same frozen state, so the round can be
executed as whole-array passes in any order and still be deterministic;
the only order that is observable — which gate is visited first, hence
the order of the change log and of message uids — is the first-touch
order of the fanout walk, which :meth:`GateTable.step_arrays` keeps.

Gate and flip-flop semantics are defined once, as lookup tables:

* :data:`FOLD` / :data:`FINAL` — combinational gates are a pairwise fold
  over their pins through one flat ``(op, acc, v)`` table.  A state is
  ``op * 16 + acc * 4``; ``acc == 3`` is the empty accumulator and
  ``v == 3`` (:data:`PAD`) is what a padded pin reads — the fold passes
  it through, so gates of any arity share one pin matrix.
* :data:`FF` — ``(kind, clk_before, clk_after, d_before, aux_before)``
  to ``0 / 1 / X /`` :data:`HOLD`, for ``dff`` / ``dffr`` / ``dffe``
  (``aux`` is the reset resp. enable pin).

:class:`GateTable` holds the structure of one gate set over a dense net
id space — global ids for the sequential simulator, LP-local ids for a
:class:`~repro.sim.lp.ClusterLP` (see :meth:`GateTable.restrict`).  The
array side and the scalar side read the same tables (the scalar side as
tuples, plus two shortcuts composed from them: the fold of a gate with
one or two pins as one ``(op, v0, v1)`` lookup, and the
``(clk_before, clk_after)`` edges on which every :data:`FF` row holds;
per clock net, its flip-flops, which a round counts without visiting
them on such an edge and, when there are :data:`BATCH_THRESHOLD` or
more, samples in one array pass on a firing one) and the same bytes:
an LP's net values are one ``bytearray``, indexed directly by the
scalar side and seen through a zero-copy ``np.frombuffer`` view by the
array side.

:meth:`GateTable.step_arrays` schedules every output it computes — the
sequential simulator's round, whose ``now`` and observers rely on it.
:meth:`GateTable.step` is the LP's round: it picks the side by the
number of scheduled updates and is event-driven — of the outputs it
*produces* (fired flip-flops and combinational gates) it schedules only
those that differ from their net's post-update value, since the rest
would be dropped as no-ops one tick later.  The produced count comes
back beside them: the LP's batch timing and checkpoint charge read it.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..verilog.netlist import fanout_csr
from .logic import _FOLDS_PY, _NOT, GATE_CODES, SEQ_CODE_MIN, VX

__all__ = ["BATCH_THRESHOLD", "FF", "FINAL", "FOLD", "HOLD", "PAD",
           "GateTable", "fanout_csr"]

#: value of the pad cell behind every value buffer, and the empty
#: accumulator of a fold state
PAD = 3
#: flip-flop table result: the cell keeps its value, no output event
HOLD = 3

#: steps applying at least this many scheduled updates run as array
#: passes, smaller ones through the scalar loop.  A module constant, not
#: a knob: the measured break-even of the two sides on the reference
#: host (docs/performance.md, "Simulation kernel").  Since clock groups
#: are sampled in one pass, noc-bench and viterbi-single break even near
#: 48 and cpu8 still at 64; it stays, because moving it moves every
#: side-dispatch count and the tool's break-even has failed to predict
#: the pipeline before (docs/performance.md, "Clock fan-out")
BATCH_THRESHOLD = 64
#: clock groups of at least this many flip-flops are sampled in one array
#: pass on a firing edge (the same break-even, bound here so that forcing
#: a side by patching BATCH_THRESHOLD keeps the group path)
_GROUP_MIN = BATCH_THRESHOLD

_NUM_COMB = SEQ_CODE_MIN
_UNARY = (GATE_CODES["buf"], GATE_CODES["not"])


def _build_fold() -> tuple[tuple[int, ...], tuple[int, ...]]:
    fold = [0] * (16 * _NUM_COMB)
    final = [VX] * (16 * _NUM_COMB)
    for op in range(_NUM_COMB):
        table, inverted = _FOLDS_PY.get(op, (None, op == GATE_CODES["not"]))
        for acc in range(4):
            state = op * 16 + acc * 4
            for v in range(4):
                if v == PAD:
                    nxt = acc
                elif acc == PAD:
                    nxt = v  # first real pin seeds the accumulator
                elif op in _UNARY:
                    nxt = acc
                else:
                    nxt = table[acc][v]
                fold[state + v] = op * 16 + nxt * 4
            if acc != PAD:
                final[state] = _NOT[acc] if inverted else acc
    return tuple(fold), tuple(final)


def _idle_edge(cb: int, ca: int) -> bool:
    """Whether no flip-flop fires when its clock goes ``cb -> ca``: an
    idle clock, a falling edge or a non-edge."""
    return ca == cb or ca == 0 or cb == 1


def _ff_next(kind: int, cb: int, ca: int, d: int, aux: int) -> int:
    """Next state of flip-flop ``kind`` (0 dff, 1 dffr, 2 dffe) when its
    clock goes ``cb -> ca``; data and aux are their pre-edge values."""
    if _idle_edge(cb, ca):
        return HOLD
    if kind == 0:
        aux = 1  # a plain dff is a dffe with its enable tied high
    known = cb == 0 and ca == 1  # otherwise X is involved in the edge
    if kind == 1:
        if known and aux == 1:
            return 0  # synchronous reset
    elif aux == 0:
        return HOLD  # enable off: holds regardless of the edge
    return d if known and aux != VX else VX


_FOLD_T, _FINAL_T = _build_fold()
_FF_T = tuple(
    _ff_next(kind, cb, ca, d, aux)
    for kind in range(3) for cb in range(3) for ca in range(3)
    for d in range(3) for aux in range(3)
)
FOLD = np.array(_FOLD_T, dtype=np.int64)
FINAL = np.array(_FINAL_T, dtype=np.int8)
FF = np.array(_FF_T, dtype=np.int8)

# the scalar side's shortcuts: a gate of one or two pins reads
# _PAIR_T[1 + op * 16 + v0 * 4 + v1], FOLD twice then FINAL (cell 0 is
# filler, so that a gate's row base is never 0: see _scalar_tables);
# a flip-flop holds on every clock edge cb -> ca that _IDLE_T[cb * 3 + ca]
# marks
_PAIR_T = (VX,) + tuple(
    _FINAL_T[_FOLD_T[_FOLD_T[op * 16 + PAD * 4 + v0] + v1]]
    for op in range(_NUM_COMB) for v0 in range(4) for v1 in range(4)
)
_IDLE_T = tuple(_idle_edge(cb, ca) for cb in range(3) for ca in range(3))

_NEVER = np.iinfo(np.int64).max


def _sample_group(columns, edge, store, updates, last, watched):
    """The array pass of one clock group on edge ``edge``: the
    flip-flop table read at the pre-update d/aux bytes.  Returns the
    number that fired and the gates and values of the "hot" ones, whose
    output differs from its net's post-update byte or, watched, from
    the last-sent one (every other one changes nothing)."""
    gates, base, d, aux, q, out_at = columns
    vbuf = np.frombuffer(store, dtype=np.int8)
    vals = FF[base + edge * 9 + vbuf[d] * 3 + vbuf[aux]]
    fired = vals != HOLD
    post = vbuf[q]
    for net in updates.keys() & out_at.keys():
        post[out_at[net]] = updates[net]
    hot = vals != post
    hot |= np.frombuffer(watched, dtype=np.bool_)[gates] & (
        np.frombuffer(last, dtype=np.int8)[gates] != vals)
    hot &= fired
    return (int(np.count_nonzero(fired)), gates[hot].tolist(),
            vals[hot].tolist())


class GateTable:
    """Evaluation tables of a gate set over net ids ``0 .. num_nets - 1``.

    ``pins[j]`` is the per-gate index column of pin ``j``; absent pins
    index ``num_nets``, the pad cell of a buffer from :meth:`new_values`
    (a plain ``dff`` repeats its data pin as ``aux``, which its
    :data:`FF` rows ignore).  Values live in the caller's buffer; the
    table itself only carries one scratch column for the fanout walk.
    """

    __slots__ = ("num_gates", "num_nets", "codes", "arity", "pins", "out",
                 "fan_ptr", "fan_cnt", "fan_gate", "_comb_pins", "_ff_pins",
                 "_state0", "_ff_base", "_is_ff", "_is_clock", "_first",
                 "_scalar")

    def __init__(
        self,
        codes: np.ndarray,
        pin_ptr: np.ndarray,
        pin_net: np.ndarray,
        out: np.ndarray,
        num_nets: int,
        fan_ptr: np.ndarray,
        fan_gate: np.ndarray,
    ) -> None:
        n = self.num_gates = len(codes)
        self.num_nets = num_nets
        self.codes = codes
        self.out = out
        self.fan_ptr, self.fan_gate = fan_ptr, fan_gate
        self.fan_cnt = np.diff(fan_ptr)
        arity = self.arity = np.diff(pin_ptr)
        is_ff = codes >= SEQ_CODE_MIN
        if (arity < np.where(is_ff, 2 + (codes > SEQ_CODE_MIN), 1)).any():
            raise SimulationError("a gate has fewer pins than its type reads")
        if np.bincount(out, minlength=1).max(initial=0) > 1:
            raise SimulationError("a net is driven by more than one gate")
        comb_width = int(arity[~is_ff].max(initial=0))
        width = max(int(arity.max(initial=0)), 3 if is_ff.any() else 0)
        real = np.arange(width, dtype=np.int64)[:, None] < arity[None, :]
        self.pins = np.full((width, n), num_nets, dtype=np.int64)
        self.pins.T[real.T] = pin_net
        if width >= 3:
            plain = codes == SEQ_CODE_MIN
            self.pins[2, plain] = self.pins[0, plain]
        self._comb_pins = self.pins[:comb_width]
        self._ff_pins = self.pins[:3]  # rows d, clk, aux of a flip-flop
        state0 = codes.astype(np.int64) * 16 + PAD * 4
        state0[is_ff] = PAD * 4  # any valid state: the result is discarded
        self._state0 = state0
        self._ff_base = (codes.astype(np.int64) - SEQ_CODE_MIN) * 81
        self._is_ff = is_ff
        self._is_clock = np.zeros(num_nets, dtype=bool)
        if is_ff.any():
            self._is_clock[self.pins[1, is_ff]] = True
        self._first = np.full(n, _NEVER, dtype=np.int64)
        self._scalar = None

    def restrict(self, gate_ids: np.ndarray) -> tuple["GateTable", np.ndarray]:
        """The table of a gate subset over its own dense net ids.

        Returns it with the sorted ids (in this table's space) of the
        nets the subset touches: local net ``i`` is ``nets[i]``, local
        gate ``i`` is ``gate_ids[i]``.
        """
        arity = self.arity[gate_ids]
        real = np.arange(len(self.pins), dtype=np.int64)[None, :] < arity[:, None]
        pin_net = self.pins.T[gate_ids][real]
        out = self.out[gate_ids]
        nets = np.union1d(pin_net, out)
        pin_ptr = np.zeros(len(gate_ids) + 1, dtype=np.int64)
        np.cumsum(arity, out=pin_ptr[1:])
        pin_net = np.searchsorted(nets, pin_net)
        table = GateTable(
            self.codes[gate_ids], pin_ptr, pin_net, np.searchsorted(nets, out),
            len(nets), *fanout_csr(pin_ptr, pin_net, len(nets)),
        )
        return table, nets

    def new_values(self, initial: np.ndarray) -> np.ndarray:
        """A value buffer: ``initial`` plus the trailing pad cell."""
        vbuf = np.empty(self.num_nets + 1, dtype=np.int8)
        vbuf[:-1] = initial
        vbuf[-1] = PAD
        return vbuf

    # -- the array side ------------------------------------------------------

    def step_arrays(self, vbuf: np.ndarray, nets: np.ndarray, vals: np.ndarray):
        """Apply the scheduled updates ``nets <- vals`` (distinct nets)
        and evaluate the round.

        Returns ``None`` when no net changed, else ``(changed, new,
        affected, out_nets, out_vals, out_gates)``: the nets that
        changed with their new values (schedule order), the gates
        evaluated (first-touch order; held flip-flops included) and the
        outputs to schedule one tick later with the gates that drive
        them (affected order, held ones dropped).
        """
        cur = vbuf[nets]
        moved = cur != vals
        changed = nets[moved]
        if not changed.size:
            return None
        new = vals[moved]
        # CSR fanout expansion, de-duplicated keeping each gate's first touch
        cnt = self.fan_cnt[changed]
        end = np.cumsum(cnt)
        touch = np.arange(end[-1], dtype=np.int64)
        hit = self.fan_gate[touch + np.repeat(self.fan_ptr[changed] - end + cnt, cnt)]
        first = self._first
        np.minimum.at(first, hit, touch)
        affected = hit[first[hit] == touch]
        first[affected] = _NEVER
        is_ff = self._is_ff[affected]
        if not is_ff.any():
            vbuf[changed] = new
            return (changed, new, affected, self.out[affected],
                    self.fold(vbuf, affected), affected)
        # a flip-flop can only fire when its own clock net moved; with no
        # clock among the changed nets every affected one holds
        clocked = self._is_clock[changed].any()
        if clocked:  # sample before the update lands
            ff = affected[is_ff]
            d, clk, aux = self._ff_pins.take(ff, axis=1)
            index = self._ff_base[ff] + vbuf[clk] * 27 + vbuf[d] * 3 + vbuf[aux]
        vbuf[changed] = new
        out_vals = self.fold(vbuf, affected)
        if clocked:
            out_vals[is_ff] = FF[index + vbuf[clk] * 9]
            fired = out_vals != HOLD
        else:
            fired = ~is_ff
        gates = affected[fired]
        return changed, new, affected, self.out[gates], out_vals[fired], gates

    def fold(self, vbuf: np.ndarray, gates: np.ndarray) -> np.ndarray:
        """Combinational outputs of ``gates`` against ``vbuf`` (rows of
        flip-flops come back as garbage for the caller to overwrite)."""
        state = self._state0[gates]
        for column in vbuf[self._comb_pins.take(gates, axis=1)]:
            state = FOLD[state + column]
        return FINAL[state]

    # -- the scalar side -----------------------------------------------------

    def _scalar_tables(self):
        is_ff, n, pad = self._is_ff, self.num_gates, self.num_nets
        pins = np.full((max(len(self.pins), 3), n), pad, dtype=np.int64)
        pins[:len(self.pins)] = self.pins
        # one packed row per gate, (base, a, b, out).  A gate of one or
        # two pins has its _PAIR_T row base (> 0, one past op * 16 for
        # the filler cell) and pins a, b (the pad cell stands in for an
        # absent second pin); a flip-flop the complement ~base (< 0) of
        # its FF row base, d and aux (its clock is in clock_of); a gate
        # of three or more pins base 0, its pin tuple and the initial
        # state of its fold
        base = np.where(is_ff, ~self._ff_base,
                        self.codes.astype(np.int64) * 16 + 1)
        wide = ~is_ff & (self.arity > 2)
        base[wide] = 0
        rows = list(zip(base.tolist(), pins[0].tolist(),
                        np.where(is_ff, pins[2], pins[1]).tolist(),
                        self.out.tolist()))
        for g in np.flatnonzero(wide).tolist():
            rows[g] = (0, tuple(pins[:self.arity[g], g].tolist()),
                       int(self._state0[g]), rows[g][3])
        fan, fptr = self.fan_gate.tolist(), self.fan_ptr.tolist()
        fan = [tuple(fan[a:b]) for a, b in zip(fptr, fptr[1:])]
        # per clock net: its flip-flops (gate-id order) and its other
        # readers; a group of _GROUP_MIN or more also keeps the columns
        # its array pass reads
        groups: list = [None] * self.num_nets
        big = []
        ff = np.flatnonzero(is_ff)
        clk = pins[1, ff]
        order = np.argsort(clk, kind="stable")
        clocks, first = np.unique(clk[order], return_index=True)
        for c, members in zip(clocks.tolist(),
                              np.split(ff[order], first[1:])):
            own = set(members.tolist())
            groups[c] = (len(members),
                         tuple(g for g in fan[c] if g not in own))
            if len(members) >= _GROUP_MIN:
                q = self.out[members]
                columns = (members, self._ff_base[members], pins[0, members],
                           pins[2, members], q,
                           dict(zip(q.tolist(), range(len(q)))))
                big.append((c, columns))
        self._scalar = (rows, pins[1].tolist(), fan, groups, tuple(big))
        return self._scalar

    # -- the LP's round -------------------------------------------------------

    def step(self, store: bytearray, updates, last: bytearray,
             watched: bytearray):
        """One round of an LP, on whichever side suits its size.

        ``store`` holds one byte per net plus the pad cell, ``last`` and
        ``watched`` one byte per gate: a gate whose ``watched`` cell is
        set is reported whenever its output differs from ``last``, which
        is updated on the spot (the LP's boundary filter, applied where
        the output is computed).  ``updates`` is ``{net: value}`` or an
        ``(nets, values)`` array pair — the two forms ``due`` takes.

        Returns ``None`` when no net changed, else ``(changed, evals,
        produced, due, crossed)``: the nets that changed (schedule
        order; their new values are in ``store``), the number of gates
        evaluated, the number of outputs the round produced (held
        flip-flops are not among them), the produced outputs that
        differ from their net's post-update value, due one tick later
        (a dict from the scalar side, an array pair from the array side,
        ``None`` for none) and ``(gate, value)`` per watched output that
        moved, in first-touch order.
        """
        if type(updates) is not dict:
            nets, vals = updates
            if len(nets) >= BATCH_THRESHOLD:
                return self._step_batch(store, nets, vals, last, watched)
            updates = dict(zip(nets.tolist(), vals.tolist()))
        elif len(updates) >= BATCH_THRESHOLD:
            return self._step_batch(
                store,
                np.fromiter(updates, np.int64, len(updates)),
                np.fromiter(updates.values(), np.int8, len(updates)),
                last, watched,
            )
        # the scalar side: step_arrays as one Python loop over the bytes,
        # with each clock's flip-flops counted instead of visited where
        # the edge decides them all (docs/kernel.md, "The scalar side")
        tables = self._scalar or self._scalar_tables()
        rows, clock_of, fan, groups, big = tables
        pair, fold, ff_table, idle = _PAIR_T, _FOLD_T, _FF_T, _IDLE_T
        counted = fired = 0  # group flip-flops evaluated resp. fired
        sampled: dict[int, list[int]] = {}  # clock -> its walk order
        hot: dict[int, int] = {}
        for clk, columns in big:  # the array pass of a firing wide group
            ca = updates.get(clk)
            if ca is not None and ca != (cb := store[clk]) \
                    and not idle[edge := cb * 3 + ca]:
                n_fired, gates, values = _sample_group(
                    columns, edge, store, updates, last, watched)
                fired += n_fired
                counted += len(columns[0])
                hot.update(zip(gates, values))
                others = groups[clk][1]  # merged by gate id, as fan[clk]
                sampled[clk] = sorted([*gates, *others]) if others else gates
        old: dict[int, int] = {}
        affected: dict[int, None] = {}
        for net, value in updates.items():
            cur = store[net]
            if cur != value:
                old[net] = cur
                store[net] = value
                group = groups[net]
                if group is None:
                    readers = fan[net]
                elif idle[cur * 3 + value]:  # every flip-flop holds
                    counted += group[0]
                    readers = group[1]
                elif net in sampled:  # its hot flip-flops only
                    readers = sampled[net]
                else:
                    readers = fan[net]
                for g in readers:
                    affected[g] = None
        if not old:
            return None
        due: dict[int, int] = {}
        crossed: list[tuple[int, int]] = []
        held = grouped = 0
        for g in affected:
            base, a, b, net = rows[g]
            if base > 0:  # one or two pins: one lookup
                value = pair[base + store[a] * 4 + store[b]]
            elif base:  # a flip-flop: a, b are d, aux
                clk = clock_of[g]
                cb = old.get(clk)
                if cb is None:
                    held += 1
                    continue  # idle clock: every FF row holds
                edge = cb * 3 + store[clk]
                if idle[edge] or clk in sampled:
                    grouped += 1  # its clock's group counted it
                    if (value := hot.get(g)) is None:
                        continue
                else:
                    value = ff_table[edge * 9 + old.get(a, store[a]) * 3
                                     + old.get(b, store[b]) + ~base]
                    if value == HOLD:
                        held += 1
                        continue
            else:  # three or more pins: the pairwise fold
                state = b
                for p in a:
                    state = fold[state + store[p]]
                value = _FINAL_T[state]
            if value != store[net]:
                due[net] = value
            if watched[g] and value != last[g]:
                last[g] = value
                crossed.append((g, value))
        evals = len(affected) - grouped
        return (old, evals + counted, evals - held + fired, due or None,
                crossed)

    def _step_batch(self, store, nets, vals, last, watched):
        """:meth:`step` on the array side, through zero-copy views."""
        vbuf = np.frombuffer(store, dtype=np.int8)
        result = self.step_arrays(vbuf, nets, vals)
        if result is None:
            return None
        changed, _, affected, out_nets, out_vals, gates = result
        sent = np.frombuffer(last, dtype=np.int8)
        moved = np.frombuffer(watched, dtype=np.bool_)[gates]
        moved &= sent[gates] != out_vals
        crossed = []
        if moved.any():
            gates, values = gates[moved], out_vals[moved]
            sent[gates] = values
            crossed = list(zip(gates.tolist(), values.tolist()))
        live = vbuf[out_nets] != out_vals  # step_arrays scheduled them all
        due = (out_nets[live], out_vals[live]) if live.any() else None
        return changed, len(affected), len(out_nets), due, crossed
