"""DVS-style simulation façade.

The paper's DVS stack (Figure 4) is: vvp parser → partitioner →
distributed simulation engine on OOCTW over MPI.  This module is the
top of that stack for the reproduction: hand it an elaborated netlist,
its LPs' gate groups (the machine shares a partition result's
``to_simulation()`` gives), a machine assignment and a stimulus, and it
runs the sequential baseline and the Time Warp virtual cluster,
returning the paper's measurements — simulation time, speedup,
messages, rollbacks.

The sequential baseline wall time uses the *same* cost model as the
parallel run (``gate_evals * event_cost``), exactly as the paper's
"simulation time for 1 machine ... excluding the time for
partitioning".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.trace import TraceBuffer
from ..verilog.netlist import Netlist
from .cluster import ClusterSpec, RunStats, TimeWarpConfig
from .compiled import CompiledCircuit, compile_circuit
from .events import InputEvent
from .sequential import SequentialSimulator, SeqStats
from .timewarp import TimeWarpEngine

__all__ = ["SimulationReport", "run_partitioned", "run_sequential_baseline"]


@dataclass
class SimulationReport:
    """Everything one partitioned run measures.

    ``speedup`` is modeled-sequential-wall over modeled-parallel-wall;
    the remaining fields mirror the paper's Tables 3/5 and Figures 6/7
    columns.  ``run_stats`` keeps the full kernel breakdown (aggregate,
    per-machine and per-LP counters); :meth:`to_counters` flattens the
    report to the registered metric names for a
    :func:`repro.obs.metrics.metrics_document`.
    """

    num_machines: int
    sequential_wall_time: float
    parallel_wall_time: float
    speedup: float
    messages: int
    anti_messages: int
    rollbacks: int
    rolled_back_events: int
    committed_events: int
    processed_events: int
    peak_checkpoint_bytes: int
    seq_stats: SeqStats
    run_stats: RunStats
    verified: bool

    def to_counters(self) -> dict[str, int | float]:
        """Deterministic flat metric view (``tw.*`` + ``seq.*`` names
        from :mod:`repro.obs.registry`)."""
        out = self.run_stats.to_counters()
        out["seq.gate_evals"] = self.seq_stats.gate_evals
        return out


def run_sequential_baseline(
    circuit: CompiledCircuit,
    events: Sequence[InputEvent],
    spec: ClusterSpec,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[SequentialSimulator, float]:
    """Run the reference simulator; returns it and its modeled wall time.

    ``recorder`` brackets the run in a ``seq.run`` phase/span — the
    presim searches pass their driver recorder here so the one-time
    baseline shows up alongside the per-point worker spans.
    """
    sim = SequentialSimulator(circuit)
    sim.add_inputs(events)
    with recorder.phase("seq.run"):
        stats = sim.run()
    return sim, stats.gate_evals * spec.event_cost


def run_partitioned(
    netlist_or_circuit: Netlist | CompiledCircuit,
    clusters: Sequence[Sequence[int]],
    lp_machine: Sequence[int],
    events: Sequence[InputEvent],
    spec: ClusterSpec,
    config: TimeWarpConfig = TimeWarpConfig(),
    sequential: SequentialSimulator | None = None,
    recorder: Recorder = NULL_RECORDER,
    trace: TraceBuffer | None = None,
    progress=None,
) -> SimulationReport:
    """Simulate a partitioned circuit on the virtual cluster.

    Parameters
    ----------
    netlist_or_circuit:
        The design (compiled on demand).
    clusters:
        Gate-id groups, one per LP (the machine shares of a partition
        result's ``to_simulation()``).
    lp_machine:
        Machine index per cluster.
    events:
        Input stimulus (see :func:`repro.circuits.random_vectors`).
    sequential:
        A pre-run sequential simulator over the *same events*, to avoid
        re-running the baseline across a (k, b) sweep.
    recorder:
        Observability sink (:mod:`repro.obs`); receives the kernel's
        ``tw.*``/``seq.*`` counters and the ``tw.run`` phase.  The
        default :data:`~repro.obs.recorder.NULL_RECORDER` records
        nothing at zero cost; a recorder never changes results.
    trace:
        Optional bounded :class:`~repro.obs.trace.TraceBuffer`
        capturing per-event kernel history (exec/send/rollback/gvt/
        throttle) for offline JSONL analysis
        (:mod:`repro.obs.analyze`).
    progress:
        Optional :class:`~repro.obs.progress.ProgressHeartbeat` printing
        a throttled live status line per GVT round (GVT, events/sec,
        rollback rate).  ``None`` (default) keeps runs silent; a
        heartbeat only reads counters, so results are unchanged.

    Returns a :class:`SimulationReport`; all its quantities are modeled
    and deterministic for fixed inputs.
    """
    if isinstance(netlist_or_circuit, CompiledCircuit):
        circuit = netlist_or_circuit
    else:
        circuit = compile_circuit(netlist_or_circuit)
    if sequential is None:
        sequential, seq_wall = run_sequential_baseline(circuit, events, spec)
    else:
        seq_wall = sequential.stats.gate_evals * spec.event_cost
    engine = TimeWarpEngine(circuit, clusters, lp_machine, spec, config,
                            trace=trace, progress=progress)
    with recorder.phase("tw.load"):
        engine.load_inputs(events)
    with recorder.phase("tw.run"):
        stats = engine.run()
    stats.sequential_wall_time = seq_wall
    stats.speedup = seq_wall / stats.wall_time if stats.wall_time > 0 else 0.0
    # every run is cross-checked against the sequential oracle (cheap:
    # the baseline is needed for the speedup anyway)
    with recorder.phase("tw.verify"):
        engine.verify_against_sequential(sequential)
    if recorder.enabled:
        for name, value in stats.to_counters().items():
            recorder.incr(name, value)
        recorder.incr("seq.gate_evals", sequential.stats.gate_evals)
        if trace is not None:
            # deterministic (eviction depends only on modeled event
            # volume vs capacity); 0 certifies the trace is complete
            recorder.incr("obs.trace.dropped", trace.dropped)
    return SimulationReport(
        num_machines=spec.num_machines,
        sequential_wall_time=seq_wall,
        parallel_wall_time=stats.wall_time,
        speedup=stats.speedup,
        messages=stats.messages,
        anti_messages=stats.anti_messages,
        rollbacks=stats.rollbacks,
        rolled_back_events=stats.rolled_back_events,
        committed_events=stats.committed_events,
        processed_events=stats.processed_events,
        peak_checkpoint_bytes=stats.peak_checkpoint_bytes,
        seq_stats=sequential.stats,
        run_stats=stats,
        verified=True,
    )
