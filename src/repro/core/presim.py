"""Pre-simulation: choosing (k, b) by short trial runs (paper §3.4, §4.2).

A full gate-level run is far too expensive to repeat per candidate
partition, so the paper evaluates each (k, b) with a short random-vector
pre-simulation (10 000 vectors against the full run's 1 000 000) and
keeps the partition with the best speedup.  Two searches are provided:

* :func:`brute_force_presim` — every (k, b) combination (Tables 3/4);
* :func:`heuristic_presim` — the paper's Figure 3 pseudo-code: start
  from the maximum machine count, sweep b upward from 7.5 in steps of
  2.5, and abandon a k as soon as speedup stops improving.  (The
  figure's listing calls ``presimulation(k, b)`` with ``b`` never
  reassigned inside the loop — an obvious typo for the loop variable
  ``b1``, which is what we implement.)  The paper notes the heuristic
  "could be trapped in the local minimum"; the ablation benchmark
  quantifies exactly that against the brute-force sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..errors import ConfigError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.spans import export_telemetry, merge_telemetry, worker_telemetry
from ..sim.cluster import ClusterSpec, TimeWarpConfig
from ..sim.compiled import CompiledCircuit, compile_circuit
from ..sim.engine import SimulationReport, run_partitioned, run_sequential_baseline
from ..sim.events import InputEvent
from ..sim.sequential import SequentialSimulator
from ..verilog.netlist import Netlist
from .balance import PAPER_B_VALUES
from .batch_refine import validate_refiner
from .multiway import MultiwayResult, design_driven_partition
from .pairing import require_serial

__all__ = [
    "REPRO_WORKERS_ENV",
    "resolve_workers",
    "PresimPoint",
    "PresimStudy",
    "PRESIM_ALGORITHMS",
    "evaluate_partition",
    "brute_force_presim",
    "heuristic_presim",
]


@dataclass
class PresimPoint:
    """One evaluated (k, b) combination.

    ``telemetry`` is the point's mini-recorder export (see
    :func:`repro.obs.spans.export_telemetry`) when the search ran with
    a recorder; the searches merge it into the driver's recorder only
    for points they actually *consume*, so the merged document is
    identical whether speculative parallel evaluation happened or not.
    """

    k: int
    b: float
    cut_size: int
    balanced: bool
    sim_time: float
    speedup: float
    messages: int
    rollbacks: int
    partition: MultiwayResult
    report: SimulationReport
    telemetry: dict | None = None


@dataclass
class PresimStudy:
    """Search outcome: every evaluated point plus the winner."""

    points: list[PresimPoint]
    best: PresimPoint
    runs: int

    def best_per_k(self) -> dict[int, PresimPoint]:
        """Highest-speedup point for each machine count (Table 4)."""
        out: dict[int, PresimPoint] = {}
        for p in self.points:
            cur = out.get(p.k)
            if cur is None or p.speedup > cur.speedup:
                out[p.k] = p
        return out


def evaluate_partition(
    circuit: CompiledCircuit,
    partition: MultiwayResult,
    events: Sequence[InputEvent],
    base_spec: ClusterSpec,
    config: TimeWarpConfig = TimeWarpConfig(),
    sequential=None,
    recorder: Recorder = NULL_RECORDER,
) -> PresimPoint:
    """Pre-simulate one partition on a k-machine virtual cluster."""
    clusters, lp_machine = partition.to_simulation()
    spec = replace(base_spec, num_machines=partition.k)
    report = run_partitioned(
        circuit,
        clusters,
        lp_machine,
        events,
        spec,
        config,
        sequential=sequential,
        recorder=recorder,
    )
    return PresimPoint(
        k=partition.k,
        b=partition.b,
        cut_size=partition.cut_size,
        balanced=partition.balanced,
        sim_time=report.parallel_wall_time,
        speedup=report.speedup,
        messages=report.messages,
        rollbacks=report.rollbacks,
        partition=partition,
        report=report,
    )


PartitionFn = Callable[[Netlist, int, float], MultiwayResult]

#: built-in partition backends selectable by name (``algorithm=``);
#: anything with .k/.b/.cut_size/.balanced/.to_simulation() works, so
#: the multilevel engine's result slots straight in
PRESIM_ALGORITHMS = ("design", "multilevel")


def _default_partitioner(
    seed: int,
    pairing: str,
    algorithm: str = "design",
    refiner: str = "fm",
) -> PartitionFn:
    if algorithm not in PRESIM_ALGORITHMS:
        raise ConfigError(
            f"unknown presim algorithm {algorithm!r}; "
            f"expected one of {PRESIM_ALGORITHMS}"
        )
    validate_refiner(refiner)
    if algorithm == "multilevel":
        from .multilevel import multilevel_flat_partition

        def fn(netlist: Netlist, k: int, b: float):
            return multilevel_flat_partition(
                netlist, k, b, seed=seed, refiner=refiner,
            )

        return fn

    def fn(netlist: Netlist, k: int, b: float) -> MultiwayResult:
        return design_driven_partition(
            netlist, k, b, seed=seed, pairing=pairing, refiner=refiner,
        )

    return fn


# -- parallel (k, b) fan-out ------------------------------------------------
#
# Every (k, b) candidate is an independent partition + pre-simulation,
# so the sweep fans out over a process pool (docs/parallelism.md): the
# expensive read-only inputs — netlist, stimulus, cost model and the
# *once-computed* sequential baseline — ship to each worker exactly once
# through the pool initializer, workers return finished PresimPoints, and the
# driver consumes them in submission (k, b) order.  Each point is
# deterministic on its own, so the merged study is bit-identical to the
# serial sweep at any worker count.

#: environment variable consulted when no explicit worker count is given
REPRO_WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count for the repo's process pools.

    One shared policy (the (k, b) candidate pool here and the
    :func:`repro.bench.parallel.run_presim_grid` sweep alike):

    * ``workers=None`` — consult the ``REPRO_WORKERS`` environment
      variable; unset/empty means serial (1).  The env request is
      capped at ``os.cpu_count()`` — an environment-wide default must
      not oversubscribe small CI boxes.
    * an explicit integer is honoured verbatim (>= 1 enforced, no cap):
      deliberate oversubscription is a caller's choice, and results are
      merged in submission order, so any worker count produces
      identical results anyway.
    """
    if workers is None:
        raw = os.environ.get(REPRO_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            requested = int(raw)
        except ValueError:
            raise ConfigError(
                f"{REPRO_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
        if requested < 1:
            raise ConfigError(
                f"{REPRO_WORKERS_ENV} must be >= 1, got {requested}"
            )
        return max(1, min(requested, os.cpu_count() or 1))
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


#: per-worker context installed by :func:`_init_presim_worker`
_PRESIM_CTX: dict | None = None


def _evaluate_point(
    circuit: CompiledCircuit,
    partition_fn: "PartitionFn",
    netlist: Netlist,
    events: Sequence[InputEvent],
    base_spec: ClusterSpec,
    config: TimeWarpConfig,
    sequential,
    k: int,
    b: float,
    collect: bool,
) -> PresimPoint:
    """Partition + pre-simulate one (k, b) candidate.

    The single evaluation path for both the serial mapper and the pool
    workers: when ``collect`` is on, the point runs under its own
    mini-recorder — a ``presim.point`` span wrapping
    ``presim.partition`` and ``presim.simulate`` child spans, with the
    Time Warp counters of the trial run recorded inside — and the
    export rides back on ``PresimPoint.telemetry``.  Because the same
    mini-recorder is built wherever the point runs, merged telemetry
    cannot depend on the worker count.
    """
    if not collect:
        part = partition_fn(netlist, k, b)
        return evaluate_partition(circuit, part, events, base_spec, config,
                                  sequential=sequential)
    wrec = worker_telemetry()
    with wrec.phase("presim.point"):
        with wrec.phase("presim.partition"):
            part = partition_fn(netlist, k, b)
        with wrec.phase("presim.simulate"):
            point = evaluate_partition(circuit, part, events, base_spec,
                                       config, sequential=sequential,
                                       recorder=wrec)
    point.telemetry = export_telemetry(wrec)
    return point


def _init_presim_worker(
    netlist: Netlist,
    events: Sequence[InputEvent],
    base_spec: ClusterSpec,
    config: TimeWarpConfig,
    seed: int,
    pairing: str,
    algorithm: str,
    sequential: SequentialSimulator,
    collect: bool = False,
    refiner: str = "fm",
) -> None:
    global _PRESIM_CTX
    _PRESIM_CTX = {
        "netlist": netlist,
        "events": events,
        "base_spec": base_spec,
        "config": config,
        "partition_fn": _default_partitioner(
            seed, pairing, algorithm, refiner
        ),
        "circuit": compile_circuit(netlist),
        "sequential": sequential,
        "collect": collect,
    }


def _presim_point_task(kb: tuple[int, float]) -> PresimPoint:
    ctx = _PRESIM_CTX
    assert ctx is not None, "presim worker used before initialization"
    k, b = kb
    return _evaluate_point(
        ctx["circuit"], ctx["partition_fn"], ctx["netlist"], ctx["events"],
        ctx["base_spec"], ctx["config"], ctx["sequential"], k, b,
        ctx["collect"],
    )


class _PointMapper:
    """Maps (k, b) combos to PresimPoints, serially or over a pool.

    The pool engages only when it can help *and* the semantics allow:
    more than one worker resolved, a picklable default partitioner (a
    custom ``partitioner`` callable stays in-process), and not inside a
    daemon worker (nested pools are forbidden; inside a sweep-grid
    cell the search runs serially).  Results always come back in the
    order the combos were submitted.
    """

    def __init__(
        self,
        netlist: Netlist,
        events: Sequence[InputEvent],
        base_spec: ClusterSpec,
        config: TimeWarpConfig,
        seed: int,
        pairing: str,
        partitioner: PartitionFn | None,
        workers: int | None,
        circuit: CompiledCircuit,
        sequential: SequentialSimulator,
        algorithm: str = "design",
        collect: bool = False,
        refiner: str = "fm",
    ) -> None:
        self._serial_fn = partitioner or _default_partitioner(
            seed, pairing, algorithm, refiner
        )
        self._circuit = circuit
        self._netlist = netlist
        self._events = events
        self._base_spec = base_spec
        self._config = config
        self._sequential = sequential
        self._collect = collect
        n = resolve_workers(workers)
        if partitioner is not None or multiprocessing.current_process().daemon:
            n = 1
        self.workers = n
        self._pool: ProcessPoolExecutor | None = None
        if n > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=n,
                initializer=_init_presim_worker,
                initargs=(netlist, events, base_spec, config, seed, pairing,
                          algorithm, sequential, collect, refiner),
            )

    @property
    def parallel(self) -> bool:
        return self._pool is not None

    def one(self, k: int, b: float) -> PresimPoint:
        return _evaluate_point(
            self._circuit, self._serial_fn, self._netlist, self._events,
            self._base_spec, self._config, self._sequential, k, b,
            self._collect,
        )

    def map(self, combos: Sequence[tuple[int, float]]) -> list[PresimPoint]:
        if self._pool is not None and len(combos) > 1:
            return list(self._pool.map(_presim_point_task, combos))
        return [self.one(k, b) for k, b in combos]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def brute_force_presim(
    netlist: Netlist,
    events: Sequence[InputEvent],
    ks: Sequence[int] = (2, 3, 4),
    bs: Sequence[float] = PAPER_B_VALUES,
    base_spec: ClusterSpec = ClusterSpec(num_machines=1),
    config: TimeWarpConfig = TimeWarpConfig(),
    seed: int = 0,
    pairing: str = "gain",
    partitioner: PartitionFn | None = None,
    workers: int | None = None,
    algorithm: str = "design",
    refiner: str = "fm",
    recorder: Recorder = NULL_RECORDER,
) -> PresimStudy:
    """Evaluate every (k, b) combination; Tables 3 and 4's generator.

    ``algorithm`` selects the built-in partition backend per candidate:
    ``"design"`` (the paper's Figure-2 flow) or ``"multilevel"``
    (:func:`~repro.core.multilevel.multilevel_flat_partition`); ignored
    when a custom ``partitioner`` is supplied.  ``refiner`` picks the
    backend's per-level improvement engine (``"fm"`` or ``"batch"``,
    see ``docs/refinement.md``), likewise ignored with a custom
    ``partitioner``.

    ``workers`` fans the independent (k, b) candidates over a process
    pool (default: the ``REPRO_WORKERS`` policy of
    :func:`resolve_workers`).  The
    sequential baseline is computed once and shipped to the workers;
    results are merged in (k, b) submission order, so the study —
    points, stats and chosen best — is identical at any worker count.

    ``recorder`` collects per-point worker telemetry (``presim.point``
    spans with the trial runs' Time Warp counters), merged in (k, b)
    order — the merged document is byte-identical at any ``workers``.
    """
    if not ks or not bs:
        raise ConfigError("ks and bs must be non-empty")
    circuit = compile_circuit(netlist)
    sequential, _ = run_sequential_baseline(circuit, events, base_spec,
                                            recorder=recorder)
    mapper = _PointMapper(
        netlist, events, base_spec, config, seed, pairing,
        partitioner, workers, circuit, sequential, algorithm,
        collect=recorder.enabled, refiner=refiner,
    )
    try:
        points = mapper.map([(k, b) for k in ks for b in bs])
    finally:
        mapper.close()
    for point in points:
        merge_telemetry(recorder, point.telemetry)
    best = max(points, key=lambda p: (p.speedup, -p.k, p.b))
    return PresimStudy(points=points, best=best, runs=len(points))


def heuristic_presim(
    netlist: Netlist,
    events: Sequence[InputEvent],
    max_k: int = 4,
    base_spec: ClusterSpec = ClusterSpec(num_machines=1),
    config: TimeWarpConfig = TimeWarpConfig(),
    seed: int = 0,
    pairing: str = "gain",
    partitioner: PartitionFn | None = None,
    refine_workers: int | None = None,
    b_start: float = 7.5,
    b_stop: float = 15.0,
    b_step: float = 2.5,
    workers: int | None = None,
    algorithm: str = "design",
    refiner: str = "fm",
    recorder: Recorder = NULL_RECORDER,
) -> PresimStudy:
    """The paper's heuristic search (Figure 3).

    Starts at the maximum number of processors ("sooner or later, no
    choice of b will overcome having too many processors"), sweeps b
    upward, abandons the b sweep on the first non-improving speedup,
    then decrements k.  Saves pre-simulation runs at the cost of
    possible local-minimum capture.  ``algorithm`` and ``refiner`` pick
    the built-in partition backend and its improvement engine per
    candidate exactly as in :func:`brute_force_presim`.

    With ``workers`` > 1 each k's whole b-row is evaluated
    speculatively in parallel, then walked in order applying the serial
    early-abandon rule; points past the abandon are discarded, so the
    recorded study (points, stats, best) is identical to the serial
    search — only wasted speculative work is traded for wall time.

    ``refine_workers`` is kept for the pipeline benchmark's call site;
    delete with the next ``benchmark`` PR.  ``None`` or ``1``; anything
    else is a :class:`~repro.errors.ConfigError` — refinement is serial
    (``docs/parallelism.md``).
    """
    require_serial(refine_workers, "refine_workers")
    if max_k < 2:
        raise ConfigError("heuristic presimulation needs max_k >= 2")
    circuit = compile_circuit(netlist)
    sequential, _ = run_sequential_baseline(circuit, events, base_spec,
                                            recorder=recorder)
    mapper = _PointMapper(
        netlist, events, base_spec, config, seed, pairing,
        partitioner, workers, circuit, sequential, algorithm,
        collect=recorder.enabled, refiner=refiner,
    )
    points: list[PresimPoint] = []
    max_speedup = 1.0
    best: PresimPoint | None = None
    try:
        k = max_k
        while k >= 2:
            row_bs: list[float] = []
            b1 = b_start
            while b1 < b_stop:
                row_bs.append(b1)
                b1 += b_step
            # parallel: evaluate the whole row speculatively, walk it
            # in order, drop everything past the abandon point.
            # serial: evaluate lazily — exactly the paper's loop.
            row = iter(
                mapper.map([(k, b) for b in row_bs]) if mapper.parallel
                else (mapper.one(k, b) for b in row_bs)
            )
            for point in row:
                points.append(point)
                # merge only points the serial walk would have run —
                # speculative extras past the abandon are dropped, so
                # the telemetry matches the serial search exactly
                merge_telemetry(recorder, point.telemetry)
                if point.speedup > max_speedup:
                    max_speedup = point.speedup
                    best = point
                else:
                    break  # abandon the row; speculative extras dropped
            k -= 1
    finally:
        mapper.close()
    if best is None:
        # nothing beat speedup 1.0: report the least-bad point anyway
        best = max(points, key=lambda p: p.speedup)
    return PresimStudy(points=points, best=best, runs=len(points))
