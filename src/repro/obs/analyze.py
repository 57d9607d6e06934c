"""Trace analyzers: turn a kernel trace into a diagnosis.

PR 1's :class:`~repro.obs.trace.TraceBuffer` records *what happened*;
this module answers the paper's diagnostic questions (§4.3, Figures
5–7): which LP caused the rollbacks, how far did the cascade spread,
how much of the message traffic crossed the cut the partitioner
predicted, and did GVT actually make progress.

All analyzers are pure functions over a list of trace-event dicts (one
per JSONL line, as parsed by :func:`load_trace` / :func:`parse_trace`)
and return frozen dataclasses, so analysing the same trace twice gives
identical — and, downstream, byte-identical — results.

Cascade reconstruction exploits two kernel invariants
(``repro.sim.timewarp``):

1. every ``rollback`` event names its culprit message exactly
   (``straggler_src``/``straggler_uid``/``sign``), matching the
   ``send`` event that carried it; and
2. the anti-messages a rollback injects are routed *immediately before*
   its own ``rollback`` event is emitted, so a rollback with ``antis=n``
   owns precisely the ``n`` anti ``send`` events at sequence numbers
   ``seq-n .. seq-1``.

An anti-induced rollback whose triggering anti falls inside that block
is therefore a *child* of the rollback that injected it; chaining the
links yields the cascade tree.  Anti-messages flushed outside a
rollback (lazy cancellation's deferred residue) have no owning
rollback, so rollbacks they trigger start their own cascade — which is
exactly the decoupling lazy cancellation buys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import TraceError
from .trace import TRACE_EVENT_KINDS

__all__ = [
    "load_trace",
    "parse_trace",
    "trace_dropped",
    "Hotspot",
    "rollback_hotspots",
    "Cascade",
    "reconstruct_cascades",
    "LocalityMatrix",
    "message_locality",
    "StallInterval",
    "GvtProgress",
    "gvt_progress",
    "GVT_DONE",
]

#: the kernel's "everything committed" GVT sentinel (see ``_gvt_round``)
GVT_DONE = 1 << 62


# ---------------------------------------------------------------------------
# Loading


def parse_trace(text: str) -> list[dict]:
    """Parse a JSONL trace string into event dicts (seq order).

    Raises :class:`~repro.errors.TraceError` on malformed lines or
    unknown event kinds — a trace that does not parse is a bug, not a
    condition to analyze around.
    """
    events: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise TraceError(f"trace line {lineno}: expected an object, "
                             f"got {type(doc).__name__}")
        kind = doc.get("kind")
        if kind not in TRACE_EVENT_KINDS:
            raise TraceError(f"trace line {lineno}: unknown event kind {kind!r}")
        if not isinstance(doc.get("seq"), int):
            raise TraceError(f"trace line {lineno}: missing integer 'seq'")
        events.append(doc)
    return events


def load_trace(path: str | Path) -> list[dict]:
    """Load a JSONL trace dump (``TraceBuffer.dump`` output) from disk."""
    return parse_trace(Path(path).read_text())


def trace_dropped(events: list[dict]) -> int:
    """Events the bounded ring evicted before this trace was dumped.

    Sequence numbers are assigned from 0 at emit time and survive
    eviction, so the first surviving event's ``seq`` *is* the eviction
    count — the trace-only fallback when no metrics document carries
    the authoritative ``obs.trace.dropped`` counter.
    """
    return events[0]["seq"] if events else 0


def _by_kind(events: list[dict], kind: str) -> list[dict]:
    return [e for e in events if e["kind"] == kind]


# ---------------------------------------------------------------------------
# Rollback hotspots


@dataclass(frozen=True)
class Hotspot:
    """Rollback concentration of one LP.

    ``partition`` is the LP's static partition (-1 for pre-enrichment
    traces without the field); ``share`` is this LP's fraction of all
    rollback episodes in the trace.
    """

    lp: int
    partition: int
    rollbacks: int
    undone: int
    antis: int
    max_depth: int
    share: float


def rollback_hotspots(events: list[dict], top: int | None = None) -> list[Hotspot]:
    """Rank LPs by rollback count (ties: undone events, then LP id).

    A distribution dominated by one or two LPs means a hot partition
    boundary (a producer/consumer pair split across machines); a flat
    distribution points at systemic over-optimism instead (compare
    ``tw.rollbacks`` against ``tw.processed_events``).
    """
    per_lp: dict[int, dict] = {}
    total = 0
    for e in _by_kind(events, "rollback"):
        total += 1
        acc = per_lp.setdefault(e["lp"], {
            "partition": e.get("partition", -1),
            "rollbacks": 0, "undone": 0, "antis": 0, "max_depth": 0,
        })
        acc["rollbacks"] += 1
        acc["undone"] += e.get("undone", 0)
        acc["antis"] += e.get("antis", 0)
        acc["max_depth"] = max(acc["max_depth"], e.get("depth", 0))
    ranked = sorted(
        per_lp.items(),
        key=lambda kv: (-kv[1]["rollbacks"], -kv[1]["undone"], kv[0]),
    )
    if top is not None:
        ranked = ranked[:top]
    return [
        Hotspot(
            lp=lp,
            partition=acc["partition"],
            rollbacks=acc["rollbacks"],
            undone=acc["undone"],
            antis=acc["antis"],
            max_depth=acc["max_depth"],
            share=acc["rollbacks"] / total,
        )
        for lp, acc in ranked
    ]


# ---------------------------------------------------------------------------
# Cascade reconstruction


@dataclass(frozen=True)
class Cascade:
    """One reconstructed rollback cascade.

    ``depth`` counts rollback *levels* (a lone rollback has depth 1);
    ``width`` is the largest number of rollbacks at any level; ``size``
    the total rollbacks in the tree.  ``culprit_lp`` is the sender of
    the root's straggler — the LP (or -1 for the environment) whose
    late message started the chain; ``culprit_partition`` its static
    partition.
    """

    root_seq: int
    culprit_lp: int
    culprit_partition: int
    depth: int
    width: int
    size: int
    lps: tuple[int, ...]
    rollback_seqs: tuple[int, ...]


def reconstruct_cascades(events: list[dict]) -> list[Cascade]:
    """Group the trace's rollbacks into causal cascade trees.

    Returns cascades sorted by size (desc), then root sequence number —
    deterministic for a deterministic trace.  See the module docstring
    for the linkage rule and its lazy-cancellation caveat.
    """
    rollbacks = _by_kind(events, "rollback")
    if not rollbacks:
        return []
    # anti-send seq -> (src_lp, uid, dst_lp) for parent lookup
    anti_sends = {
        e["seq"]: e
        for e in _by_kind(events, "send")
        if e.get("sign", 1) < 0
    }
    # (src_lp, uid, dst_lp) -> anti-send seqs, ascending
    anti_index: dict[tuple[int, int, int], list[int]] = {}
    for seq, e in sorted(anti_sends.items()):
        key = (e.get("src_lp", -1), e.get("uid", -1), e.get("dst_lp", -1))
        anti_index.setdefault(key, []).append(seq)
    # rollback ownership blocks: rollback at seq s with antis=n owns
    # anti sends at seq s-n .. s-1
    owner_of_send: dict[int, int] = {}
    for r in rollbacks:
        n = r.get("antis", 0)
        for s in range(r["seq"] - n, r["seq"]):
            if s in anti_sends:
                owner_of_send[s] = r["seq"]

    parent: dict[int, int] = {}  # rollback seq -> parent rollback seq
    by_seq = {r["seq"]: r for r in rollbacks}
    for r in rollbacks:
        if r.get("sign", 1) >= 0:
            continue  # positive straggler: cascade root by definition
        key = (r.get("straggler_src", -1), r.get("straggler_uid", -1), r["lp"])
        for send_seq in anti_index.get(key, ()):
            if send_seq >= r["seq"]:
                break  # the triggering send precedes the rollback
            owner = owner_of_send.get(send_seq)
            if owner is not None and owner != r["seq"]:
                parent[r["seq"]] = owner  # latest matching owner wins

    children: dict[int, list[int]] = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    roots = [r["seq"] for r in rollbacks if r["seq"] not in parent]

    cascades = []
    for root in roots:
        levels: list[list[int]] = [[root]]
        while levels[-1]:
            nxt = sorted(s for seq in levels[-1] for s in children.get(seq, ()))
            if not nxt:
                break
            levels.append(nxt)
        members = [s for level in levels for s in level]
        root_ev = by_seq[root]
        cascades.append(Cascade(
            root_seq=root,
            culprit_lp=root_ev.get("straggler_src", -1),
            culprit_partition=root_ev.get("src_partition", -1),
            depth=len(levels),
            width=max(len(level) for level in levels),
            size=len(members),
            lps=tuple(sorted({by_seq[s]["lp"] for s in members})),
            rollback_seqs=tuple(members),
        ))
    cascades.sort(key=lambda c: (-c.size, c.root_seq))
    return cascades


# ---------------------------------------------------------------------------
# Message locality


@dataclass(frozen=True)
class LocalityMatrix:
    """Inter-partition positive-message traffic.

    ``counts[i][j]`` is the number of positive messages sent from
    partition ``i`` to partition ``j`` (environment stimulus, src -1,
    is excluded).  The diagonal is intra-partition traffic that a
    perfect placement keeps off the network; compare
    ``remote_messages`` against the partitioner's ``part.cut_size``
    prediction.  ``anti_messages`` counts cancellations separately
    (``tw.anti_messages_sent`` territory).
    """

    k: int
    counts: tuple[tuple[int, ...], ...]
    anti_messages: int

    @property
    def total_messages(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def local_messages(self) -> int:
        return sum(self.counts[i][i] for i in range(self.k))

    @property
    def remote_messages(self) -> int:
        return self.total_messages - self.local_messages

    @property
    def local_fraction(self) -> float:
        total = self.total_messages
        return self.local_messages / total if total else 1.0


def message_locality(events: list[dict]) -> LocalityMatrix:
    """Build the k×k message matrix from ``send`` events.

    Groups by the partition of the sending and receiving LP (falls back
    to machine ids for pre-enrichment traces); placement is fixed, so
    that is also the host machine.
    """
    pairs: list[tuple[int, int, int]] = []  # (src, dst, sign)
    antis = 0
    for e in _by_kind(events, "send"):
        if e.get("src_lp", -1) < 0:
            continue  # environment stimulus is not partition traffic
        src = e.get("src_partition", e.get("src_machine", 0))
        dst = e.get("dst_partition", e.get("dst_machine", 0))
        if e.get("sign", 1) < 0:
            antis += 1
            continue
        pairs.append((src, dst, 1))
    k = max((max(s, d) for s, d, _ in pairs), default=-1) + 1
    counts = [[0] * k for _ in range(k)]
    for s, d, _ in pairs:
        counts[s][d] += 1
    return LocalityMatrix(
        k=k,
        counts=tuple(tuple(row) for row in counts),
        anti_messages=antis,
    )


# ---------------------------------------------------------------------------
# GVT progress


@dataclass(frozen=True)
class StallInterval:
    """A maximal run of GVT rounds with no estimate advance.

    ``rounds`` counts the zero-advance steps (``end_round -
    start_round``); the estimate was stuck at ``gvt`` from
    ``start_round`` through ``end_round`` inclusive.
    """

    start_round: int
    end_round: int
    gvt: int

    @property
    def rounds(self) -> int:
        return self.end_round - self.start_round


@dataclass(frozen=True)
class GvtProgress:
    """GVT advance statistics of one run.

    ``advance_rate`` is virtual-time ticks gained per GVT round over
    the observed window (the ``tw.gvt_rounds`` cadence); ``stalls``
    lists every window where the estimate failed to move — the
    signature of a rollback echo (see the `throttle` trace events and
    ``docs/kernel.md`` §4).
    """

    rounds: int
    first_gvt: int | None
    final_gvt: int | None
    completed: bool
    advance_rate: float
    stalls: tuple[StallInterval, ...]


def gvt_progress(events: list[dict]) -> GvtProgress:
    """Analyze the ``gvt`` event stream for advance rate and stalls.

    The kernel's completion sentinel (GVT = 2^62, "everything
    committed") marks the run complete and is excluded from rate and
    stall computation.
    """
    samples = [(e.get("round", i + 1), e.get("gvt", 0))
               for i, e in enumerate(_by_kind(events, "gvt"))]
    completed = any(g >= GVT_DONE for _, g in samples)
    finite = [(r, g) for r, g in samples if g < GVT_DONE]
    if not finite:
        return GvtProgress(rounds=len(samples), first_gvt=None, final_gvt=None,
                           completed=completed, advance_rate=0.0, stalls=())
    stalls: list[StallInterval] = []
    start_round, start_gvt = finite[0]
    prev_round, prev_gvt = finite[0]
    for r, g in finite[1:]:
        if g > prev_gvt:
            if prev_round > start_round:
                stalls.append(StallInterval(start_round, prev_round, start_gvt))
            start_round, start_gvt = r, g
        prev_round, prev_gvt = r, g
    if prev_round > start_round:
        stalls.append(StallInterval(start_round, prev_round, start_gvt))
    first = finite[0][1]
    final = finite[-1][1]
    span = finite[-1][0] - finite[0][0]
    rate = (final - first) / span if span > 0 else 0.0
    return GvtProgress(
        rounds=len(samples),
        first_gvt=first,
        final_gvt=final,
        completed=completed,
        advance_rate=rate,
        stalls=tuple(stalls),
    )
