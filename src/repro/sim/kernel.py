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
``(clk_before, clk_after)`` edges on which every :data:`FF` row holds)
and the same bytes: an LP's net values are one ``bytearray``,
indexed directly by the scalar side and seen through a zero-copy
``np.frombuffer`` view by the array side.

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
#: a knob: it is the measured break-even of the two sides on the
#: reference host (docs/performance.md, "Simulation kernel")
BATCH_THRESHOLD = 64

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
        # a flip-flop reads exactly (d, clk, aux), a gate of one or two
        # pins two (the pad cell stands in for an absent second pin), a
        # wider gate its real pins
        is_ff, arity = self._is_ff, self.arity
        take = np.where(is_ff, 3, np.maximum(arity, 2))
        width = max(len(self.pins), 2)
        pins = np.full((width, self.num_gates), self.num_nets, dtype=np.int64)
        pins[:len(self.pins)] = self.pins
        flat = pins.T[
            np.arange(width, dtype=np.int64)[None, :] < take[:, None]
        ].tolist()
        ptr = np.concatenate(([0], np.cumsum(take))).tolist()
        fan, fptr = self.fan_gate.tolist(), self.fan_ptr.tolist()
        # one int per gate picks its path in step(): its _PAIR_T row base
        # (> 0, one past op * 16 for the filler cell), the complement
        # ~base of its FF row base (< 0), or 0 for a gate of three or
        # more pins, which folds from the initial state a dict holds for
        # the few such gates
        pair_base = self.codes.astype(np.int64) * 16 + 1
        wide = ~is_ff & (arity > 2)
        start = np.where(is_ff, ~self._ff_base, np.where(wide, 0, pair_base))
        self._scalar = (
            start.tolist(),
            [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])],
            self.out.tolist(),
            [tuple(fan[a:b]) for a, b in zip(fptr, fptr[1:])],
            dict(zip(np.flatnonzero(wide).tolist(),
                     self._state0[wide].tolist())),
        )
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
        # the scalar side: step_arrays as one Python loop over the bytes
        start, pins, out, fan, wide = self._scalar or self._scalar_tables()
        pair, fold, ff_table, idle = _PAIR_T, _FOLD_T, _FF_T, _IDLE_T
        old: dict[int, int] = {}
        affected: dict[int, None] = {}
        for net, value in updates.items():
            cur = store[net]
            if cur != value:
                old[net] = cur
                store[net] = value
                for g in fan[net]:
                    affected[g] = None
        if not old:
            return None
        due: dict[int, int] = {}
        crossed: list[tuple[int, int]] = []
        held = 0
        for g in affected:
            base = start[g]
            if base > 0:  # one or two pins: one lookup
                a, b = pins[g]
                value = pair[base + store[a] * 4 + store[b]]
            elif base:  # a flip-flop
                d, clk, aux = pins[g]
                cb = old.get(clk)
                if cb is None or idle[edge := cb * 3 + store[clk]]:
                    held += 1
                    continue  # idle clock or idle edge: every FF row holds
                value = ff_table[
                    edge * 9 + old.get(d, store[d]) * 3
                    + old.get(aux, store[aux]) + ~base
                ]
                if value == HOLD:
                    held += 1
                    continue
            else:  # three or more pins: the pairwise fold
                state = wide[g]
                for p in pins[g]:
                    state = fold[state + store[p]]
                value = _FINAL_T[state]
            net = out[g]
            if value != store[net]:
                due[net] = value
            if watched[g] and value != last[g]:
                last[g] = value
                crossed.append((g, value))
        return old, len(affected), len(affected) - held, due or None, crossed

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
