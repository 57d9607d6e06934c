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

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

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
from .multilevel import MultilevelKwayResult, multilevel_flat_partition
from .multiway import MultiwayResult, design_driven_partition
from .pairing import require_serial

__all__ = [
    "REPRO_WORKERS_ENV",
    "resolve_workers",
    "PresimPoint",
    "PresimStudy",
    "PRESIM_ALGORITHMS",
    "partition_netlist",
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
    partition: MultiwayResult | MultilevelKwayResult
    report: SimulationReport
    telemetry: dict | None = None

    def to_row(self) -> dict:
        """Scalar dict form for a metrics document ``rows`` entry."""
        return {
            "k": self.k,
            "b": self.b,
            "cut_size": self.cut_size,
            "balanced": self.balanced,
            "sim_time": self.sim_time,
            "speedup": self.speedup,
            "messages": self.messages,
            "rollbacks": self.rollbacks,
        }


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


#: built-in partition backends selectable by name (``algorithm=``);
#: anything with .k/.b/.cut_size/.balanced/.to_simulation() works, so
#: the multilevel engine's result slots straight in
PRESIM_ALGORITHMS = ("design", "multilevel")


def _validate_algorithm(algorithm: str) -> None:
    if algorithm not in PRESIM_ALGORITHMS:
        raise ConfigError(
            f"unknown partition algorithm {algorithm!r}; "
            f"expected one of {PRESIM_ALGORITHMS}"
        )


def partition_netlist(
    netlist: Netlist,
    k: int,
    b: float,
    algorithm: str = "design",
    seed: int = 0,
    pairing: str = "gain",
    refiner: str = "fm",
    recorder: Recorder = NULL_RECORDER,
) -> MultiwayResult | MultilevelKwayResult:
    """Partition a netlist with the backend named by ``algorithm``.

    The one place the ``"design"`` / ``"multilevel"`` choice is made:
    :func:`~repro.core.multiway.design_driven_partition` at visible-node
    granularity (``pairing`` applies) or
    :func:`~repro.core.multilevel.multilevel_flat_partition` on the
    flat gate hypergraph.  Every pre-simulation point and the CLI's
    ``partition`` / ``psim`` verbs come through here; ``recorder``
    receives the backend's ``part.*`` counters and phases.
    """
    _validate_algorithm(algorithm)
    if algorithm == "design":
        return design_driven_partition(
            netlist, k, b, seed=seed, pairing=pairing, refiner=refiner,
            recorder=recorder,
        )
    return multilevel_flat_partition(
        netlist, k, b, seed=seed, refiner=refiner, recorder=recorder,
    )


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
    """Resolve a worker count for the (k, b) candidate pool.

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


@dataclass(frozen=True)
class _PointJob:
    """Everything the (k, b) evaluations of one search read; a pool
    worker receives it once, through the pool initializer."""

    netlist: Netlist
    events: Sequence[InputEvent]
    base_spec: ClusterSpec
    config: TimeWarpConfig
    seed: int
    pairing: str
    algorithm: str
    refiner: str
    sequential: SequentialSimulator
    collect: bool

    def evaluate(self, circuit: CompiledCircuit, k: int, b: float) -> PresimPoint:
        """Partition + pre-simulate one (k, b) candidate.

        The single evaluation path of the serial mapper and the pool
        workers: when ``collect`` is on, the point runs under its own
        mini-recorder — a ``presim.point`` span wrapping
        ``presim.partition`` and ``presim.simulate`` child spans, with
        the Time Warp counters of the trial run recorded inside — and
        the export rides back on ``PresimPoint.telemetry``.  Because
        the same mini-recorder is built wherever the point runs, merged
        telemetry cannot depend on the worker count.
        """
        wrec = worker_telemetry() if self.collect else NULL_RECORDER
        with wrec.phase("presim.point"):
            with wrec.phase("presim.partition"):
                part = partition_netlist(
                    self.netlist, k, b, self.algorithm, seed=self.seed,
                    pairing=self.pairing, refiner=self.refiner,
                )
            with wrec.phase("presim.simulate"):
                point = evaluate_partition(
                    circuit, part, self.events, self.base_spec, self.config,
                    sequential=self.sequential, recorder=wrec,
                )
        if self.collect:
            point.telemetry = export_telemetry(wrec)
        return point


#: (job, its compiled circuit) installed by :func:`_init_presim_worker`
_WORKER_JOB: tuple[_PointJob, CompiledCircuit] | None = None


def _init_presim_worker(job: _PointJob) -> None:
    global _WORKER_JOB
    _WORKER_JOB = (job, compile_circuit(job.netlist))


def _presim_point_task(kb: tuple[int, float]) -> PresimPoint:
    assert _WORKER_JOB is not None, "presim worker used before initialization"
    job, circuit = _WORKER_JOB
    return job.evaluate(circuit, *kb)


class _PointMapper:
    """Maps (k, b) combos to PresimPoints, serially or over the pool.

    Construction is the shared front of both searches: validate the
    backend names, compile the circuit, run the sequential baseline
    once (on the driver's ``recorder``) and, when more than one worker
    is resolved, start the repo's one process pool.  Results always
    come back in the order the combos were submitted.
    """

    def __init__(
        self,
        netlist: Netlist,
        events: Sequence[InputEvent],
        base_spec: ClusterSpec,
        config: TimeWarpConfig,
        seed: int,
        pairing: str,
        workers: int | None,
        algorithm: str,
        refiner: str,
        recorder: Recorder,
    ) -> None:
        _validate_algorithm(algorithm)
        validate_refiner(refiner)
        n = resolve_workers(workers)
        self._circuit = compile_circuit(netlist)
        sequential, _ = run_sequential_baseline(
            self._circuit, events, base_spec, recorder=recorder)
        self._job = _PointJob(
            netlist, events, base_spec, config, seed, pairing, algorithm,
            refiner, sequential, collect=recorder.enabled,
        )
        self._pool: ProcessPoolExecutor | None = None
        if n > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=n,
                initializer=_init_presim_worker,
                initargs=(self._job,),
            )

    @property
    def parallel(self) -> bool:
        return self._pool is not None

    def one(self, k: int, b: float) -> PresimPoint:
        return self._job.evaluate(self._circuit, k, b)

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
    workers: int | None = None,
    algorithm: str = "design",
    refiner: str = "fm",
    recorder: Recorder = NULL_RECORDER,
) -> PresimStudy:
    """Evaluate every (k, b) combination; Tables 3 and 4's generator
    and the ``repro sweep`` / ``repro search`` grid.

    ``algorithm`` selects the partition backend per candidate
    (:func:`partition_netlist`): ``"design"`` (the paper's Figure-2
    flow) or ``"multilevel"``.  ``refiner`` picks the backend's
    per-level improvement engine (``"fm"`` or ``"batch"``, see
    ``docs/refinement.md``).

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
    mapper = _PointMapper(netlist, events, base_spec, config, seed, pairing,
                          workers, algorithm, refiner, recorder)
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
    the partition backend and its improvement engine per candidate
    exactly as in :func:`brute_force_presim`.

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
    mapper = _PointMapper(netlist, events, base_spec, config, seed, pairing,
                          workers, algorithm, refiner, recorder)
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
