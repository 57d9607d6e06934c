"""Throttled live progress heartbeat for long Time Warp runs.

A :class:`ProgressHeartbeat` is the interactive counterpart of the
:class:`~repro.obs.recorder.Recorder` family: instrumented code calls
it unconditionally cheap (one ``None`` check in the engine), it decides
on its own whether anything is printed, and — like every observability
hook — attaching one never changes simulation results, because it only
*reads* the kernel's counters.

The engine calls :meth:`update` once per GVT round with modeled
quantities (GVT estimate, processed events, rollbacks, modeled wall
seconds).  The heartbeat throttles output by *host* time so a fast run
prints at most one line and a long run prints roughly one line per
``min_interval`` seconds; host time is confined to the display side and
never flows back into the simulation, preserving the determinism
contract of ``docs/observability.md``.

Off by default everywhere: ``TimeWarpEngine(..., progress=None)`` and
``repro psim`` without ``--progress`` stay silent.
"""

from __future__ import annotations

import sys
import time

__all__ = ["ProgressHeartbeat"]


class ProgressHeartbeat:
    """Print a throttled one-line simulation status per GVT round.

    Lines go to ``sys.stderr``, so heartbeats never mix into
    machine-readable stdout, at most one per :attr:`min_interval` host
    seconds of :func:`time.perf_counter` (which also gives the
    events/sec rate).
    """

    min_interval = 1.0

    def __init__(self) -> None:
        self._stream = sys.stderr
        self._clock = time.perf_counter
        self._last_host: float | None = None
        self._last_processed = 0
        #: lines printed (tests assert throttling with this)
        self.lines = 0

    def update(self, *, gvt: int, rounds: int, processed: int,
               rollbacks: int, wall: float) -> None:
        """Record one GVT-round snapshot; prints when due."""
        now = self._clock()
        if self._last_host is not None:
            elapsed = now - self._last_host
            if elapsed < self.min_interval:
                return
            rate = (processed - self._last_processed) / elapsed if elapsed > 0 else 0.0
        else:
            rate = 0.0
        rollback_pct = 100.0 * rollbacks / processed if processed else 0.0
        gvt_str = "done" if gvt >= (1 << 62) else str(gvt)
        self._stream.write(
            f"tw: gvt={gvt_str} round={rounds} events={processed} "
            f"({rate:,.0f} ev/s) rollbacks={rollbacks} "
            f"({rollback_pct:.1f}%) wall={wall:.4f}s\n"
        )
        flush = getattr(self._stream, "flush", None)
        if flush is not None:
            flush()
        self.lines += 1
        self._last_host = now
        self._last_processed = processed

    def close(self) -> None:
        """Finish the heartbeat (no-op placeholder for symmetry with
        stream-owning callers; kept so CLI code reads naturally)."""
