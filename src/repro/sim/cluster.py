"""Virtual cluster model: machines, network, and cost accounting.

The paper ran on four AMD Athlon machines connected by gigabit
Ethernet under MPICH.  Offline reproduction replaces that testbed with
a *deterministic virtual cluster*: each machine owns a wall-clock
accumulator, every processed event batch advances it by a modeled
compute cost, and every inter-machine message is charged a network
latency before it becomes visible at the receiver.  Speedup is then
``modeled sequential wall time / max machine wall time`` — the same
quantity the paper measures, computed over the same mechanism
(optimistic simulation with rollbacks), minus real-hardware noise.

Calibration: the default costs approximate the paper's testbed ratio —
a compiled gate event costs about a microsecond of 2001-era CPU, while
a small MPI message over gigabit Ethernet costs tens of microseconds of
sender CPU plus ~100 µs end-to-end latency.  What matters for
reproducing the paper's *shape* is the ratio ``msg_cpu_overhead /
event_cost`` (here 20:1): large enough that cut traffic dominates
beyond a few machines (the paper's speedups saturate near 1.9 on 4
nodes), small enough that a well-partitioned k=4 run still wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

__all__ = ["ClusterSpec", "TimeWarpConfig", "MachineStats", "LPStats", "RunStats"]

#: modeled seconds charged to both machines per LP migration (state
#: transfer + rebinding), and the GVT rounds the next one waits — damping
#: load/locality thrash (load-driven migration ignores communication
#: affinity, so chasing every imbalance sample destroys locality)
MIGRATION_COST, MIGRATION_COOLDOWN = 500.0e-6, 4


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware model of the virtual cluster.

    All times are in modeled seconds.

    Attributes
    ----------
    num_machines:
        Number of compute nodes (the paper's k).
    event_cost:
        Wall time to evaluate one gate event.
    msg_latency:
        End-to-end latency of an inter-machine message (send overhead +
        wire + receive overhead).
    msg_cpu_overhead:
        Sender CPU time consumed per message (charged to the sending
        machine's wall clock; the latency itself overlaps computation).
    rollback_overhead:
        Fixed CPU cost of initiating one rollback (state restore).
    undo_cost:
        CPU cost per rolled-back event (re-execution is charged at
        ``event_cost`` when the events are re-processed).
    save_cost:
        CPU cost per byte of a saved checkpoint (state saving copies
        the LP's whole state, so a machine-sized LP pays for its size).
        The default is ``event_cost / 1000``, a 2001-era memcpy rate; a
        testbed ratio, never a host measurement, so modeled times stay
        bit-reproducible (``docs/kernel.md`` §6).
    """

    num_machines: int
    event_cost: float = 2.0e-6
    msg_latency: float = 120.0e-6
    msg_cpu_overhead: float = 40.0e-6
    rollback_overhead: float = 60.0e-6
    undo_cost: float = 1.0e-6
    save_cost: float = 2.0e-9

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ConfigError(f"num_machines must be >= 1, got {self.num_machines}")
        for name in ("event_cost", "msg_latency", "msg_cpu_overhead",
                     "rollback_overhead", "undo_cost", "save_cost"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class TimeWarpConfig:
    """Kernel tuning knobs.

    Attributes
    ----------
    checkpoint_interval:
        State is saved every this many processed timestamp batches per
        LP (periodic state saving; 1 = save every batch).
    gvt_interval:
        Driver steps between GVT computations / fossil collections.
    lazy_cancellation:
        If True (default), on re-execution after a rollback an output
        message identical to one previously sent is *not* re-sent and
        its anti-message is suppressed (lazy cancellation); if False,
        aggressive cancellation is used as in classic Time Warp.
        Aggressive cancellation on a deterministic cluster can sustain
        rollback-echo orbits (identical cancel/re-send cycles); the
        optimism window plus the engine's GVT-stall throttle keep it
        terminating, but lazy is both faster and closer to how DVS
        behaved on real, jittery hardware.
    optimism_window:
        Maximum virtual-time distance (ticks) an LP may run ahead of
        the last computed GVT; ``None`` disables throttling (pure Time
        Warp).  Bounds wasted optimistic work when the whole vector
        stream is pre-loaded.
    stall_threshold:
        Consecutive GVT rounds without progress before the engine
        clamps the window to 1 tick (near-conservative execution)
        until GVT advances again — the termination safeguard.
    adaptive_checkpointing:
        Per-LP checkpoint-interval tuning (classic Time Warp
        optimization): at every GVT round, an LP that rolled back since
        the previous round halves its interval (cheaper rollbacks),
        otherwise it doubles it up to ``max_checkpoint_interval``
        (cheaper forward progress).  ``checkpoint_interval`` is the
        starting value.
    max_checkpoint_interval:
        Upper bound for adaptive checkpointing.
    migration:
        Dynamic LP migration — the paper's future-work item ("make it
        responsive to changes in processor loads").  At every GVT
        round, if the busiest machine's recent busy time exceeds the
        least busy machine's by more than ``migration_threshold``
        (relative), the hottest LP of the busiest machine moves to the
        least busy one, paying :data:`MIGRATION_COST` of wall time on
        both, and the next migration waits :data:`MIGRATION_COOLDOWN`
        GVT rounds.
    migration_threshold:
        Relative busy-time imbalance that triggers a migration.
    conservative:
        Run the engine as an *idealized conservative* simulator: an LP
        may only execute a batch at the exact global safe time (the
        minimum over every unprocessed event and in-flight message),
        so no rollback can ever occur.  Global knowledge stands in for
        null-message/barrier protocols, making this an upper bound on
        any real conservative implementation — the benchmark Time Warp
        has to beat to justify optimism.  Implies no state saving is
        needed; checkpointing is forced to the maximum interval.
    record_changes:
        Record the committed (time, net, value) history in every LP —
        the deep verification oracle
        (:meth:`~repro.sim.timewarp.TimeWarpEngine.verify_change_stream`).
        Memory grows with the run; testing/debugging only.
    """

    checkpoint_interval: int = 8
    gvt_interval: int = 256
    lazy_cancellation: bool = True
    optimism_window: int | None = 128
    stall_threshold: int = 8
    adaptive_checkpointing: bool = False
    max_checkpoint_interval: int = 64
    migration: bool = False
    migration_threshold: float = 0.25
    conservative: bool = False
    record_changes: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.gvt_interval < 1:
            raise ConfigError("gvt_interval must be >= 1")
        if self.optimism_window is not None and self.optimism_window < 1:
            raise ConfigError("optimism_window must be >= 1 or None")
        if self.stall_threshold < 1:
            raise ConfigError("stall_threshold must be >= 1")
        if self.max_checkpoint_interval < self.checkpoint_interval:
            raise ConfigError(
                "max_checkpoint_interval must be >= checkpoint_interval"
            )
        if not (0.0 < self.migration_threshold):
            raise ConfigError("migration_threshold must be positive")


@dataclass
class MachineStats:
    """Per-machine counters accumulated during a run.

    ``wall_time``/``busy_time`` are modeled seconds; their difference
    is idle (blocked or starved) time.  All fields are deterministic.
    """

    wall_time: float = 0.0
    busy_time: float = 0.0
    batches: int = 0
    gate_evals: int = 0
    msgs_sent: int = 0
    rollbacks: int = 0

    def to_dict(self) -> dict:
        """Plain-scalar view for the metrics JSON export."""
        return {
            "wall_time": self.wall_time,
            "busy_time": self.busy_time,
            "batches": self.batches,
            "gate_evals": self.gate_evals,
            "msgs_sent": self.msgs_sent,
            "rollbacks": self.rollbacks,
        }


@dataclass
class LPStats:
    """Per-LP counters accumulated during a run.

    One entry per cluster LP, in LP-id order (``RunStats.lps``).  The
    kernel fills these as it executes; they are the per-LP resolution
    behind the aggregate ``tw.*`` metrics — a rollback cascade shows up
    here as one LP with an outsized ``rollbacks``/``undone_events``
    share long before a trace dump is needed.

    Attributes
    ----------
    lid:
        LP id (index into the engine's LP table).
    batches:
        Timestamp batches executed (including later-undone ones).
    gate_evals:
        Gate events processed (including later-undone ones).
    rollbacks:
        Rollback episodes this LP suffered.
    undone_events:
        Gate events this LP rolled back.
    msgs_sent:
        Positive messages this LP emitted (inter-LP, any machine).
    antis_sent:
        Anti-messages this LP emitted.
    max_straggler_depth:
        Deepest straggler in virtual-time ticks: LP local virtual time
        minus the straggler's receive time, maximized over rollbacks.
    """

    lid: int = 0
    batches: int = 0
    gate_evals: int = 0
    rollbacks: int = 0
    undone_events: int = 0
    msgs_sent: int = 0
    antis_sent: int = 0
    max_straggler_depth: int = 0

    def to_dict(self) -> dict:
        """Plain-scalar view for the metrics JSON export."""
        return {
            "lid": self.lid,
            "batches": self.batches,
            "gate_evals": self.gate_evals,
            "rollbacks": self.rollbacks,
            "undone_events": self.undone_events,
            "msgs_sent": self.msgs_sent,
            "antis_sent": self.antis_sent,
            "max_straggler_depth": self.max_straggler_depth,
        }


@dataclass
class RunStats:
    """Aggregate statistics of one Time Warp run.

    ``speedup`` and ``sequential_wall_time`` are filled in by the
    engine when a sequential baseline is supplied or computed.

    All values are deterministic: identical inputs (circuit, clusters,
    placement, spec, config, stimulus) reproduce them bit-for-bit.
    ``machines`` holds one :class:`MachineStats` per machine and
    ``lps`` one :class:`LPStats` per cluster LP; :meth:`to_counters`
    flattens the aggregates into the ``tw.*`` metric names of
    ``docs/observability.md`` and :meth:`to_dict` produces the full
    structured export (aggregates + per-machine + per-LP).
    """

    num_machines: int = 0
    wall_time: float = 0.0
    sequential_wall_time: float = 0.0
    speedup: float = 0.0
    messages: int = 0
    anti_messages: int = 0
    env_messages: int = 0
    rollbacks: int = 0
    rolled_back_events: int = 0
    processed_events: int = 0
    committed_events: int = 0
    gvt_rounds: int = 0
    migrations: int = 0
    peak_checkpoint_bytes: int = 0
    max_straggler_depth: int = 0
    #: LP batches the step kernel ran as array passes
    kernel_batches: int = 0
    #: gate evaluations done on the step kernel's array side
    kernel_batch_gates: int = 0
    #: gate evaluations done on the step kernel's scalar side
    kernel_scalar_gates: int = 0
    machines: list[MachineStats] = field(default_factory=list)
    lps: list[LPStats] = field(default_factory=list)

    def efficiency(self) -> float:
        """Parallel efficiency: speedup / machines."""
        if self.num_machines == 0:
            return 0.0
        return self.speedup / self.num_machines

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"k={self.num_machines} wall={self.wall_time:.4f}s "
            f"seq={self.sequential_wall_time:.4f}s speedup={self.speedup:.2f} "
            f"msgs={self.messages} rollbacks={self.rollbacks} "
            f"(undone {self.rolled_back_events} ev)"
        )

    def idle_fraction(self) -> float:
        """Mean fraction of wall time machines spent idle."""
        if not self.machines or self.wall_time <= 0:
            return 0.0
        fracs = [
            1.0 - m.busy_time / self.wall_time for m in self.machines
        ]
        return float(np.mean(fracs))

    def to_counters(self) -> dict[str, int | float]:
        """Aggregates flattened to the registered ``tw.*`` metric names
        (see :mod:`repro.obs.registry`) — the shape
        :func:`repro.obs.metrics.metrics_document` consumes."""
        return {
            "tw.messages_sent": self.messages,
            "tw.anti_messages_sent": self.anti_messages,
            "tw.env_messages": self.env_messages,
            "tw.processed_events": self.processed_events,
            "tw.committed_events": self.committed_events,
            "tw.rollbacks": self.rollbacks,
            "tw.rolled_back_events": self.rolled_back_events,
            "tw.straggler_depth.max": self.max_straggler_depth,
            "tw.gvt_rounds": self.gvt_rounds,
            "tw.migrations": self.migrations,
            "tw.peak_checkpoint_bytes": self.peak_checkpoint_bytes,
            "tw.wall_time": self.wall_time,
            "tw.speedup": self.speedup,
            "sim.kernel.batches": self.kernel_batches,
            "sim.kernel.batch_gates": self.kernel_batch_gates,
            "sim.kernel.scalar_gates": self.kernel_scalar_gates,
            "seq.wall_time": self.sequential_wall_time,
        }

    def to_dict(self) -> dict:
        """Full structured export: aggregate counters plus per-machine
        and per-LP breakdowns.  Deterministic (no wall-clock fields)."""
        return {
            "num_machines": self.num_machines,
            "counters": self.to_counters(),
            "machines": [m.to_dict() for m in self.machines],
            "lps": [lp.to_dict() for lp in self.lps],
        }
