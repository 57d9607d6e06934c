"""Process-parallel (k, b) sweeps.

The pre-simulation grid is embarrassingly parallel — every (k, b) cell
partitions and simulates independently — so the sweep itself can use
the host's cores.  Workers rebuild the netlist from source text (cheap,
and far more robust than shipping large object graphs through pickle)
and return slim result rows; determinism is preserved because each cell
is seeded identically to the serial path.

This parallelizes the *experiment harness*, not the simulated cluster —
the virtual cluster inside each cell stays deterministic and modeled.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..core.balance import PAPER_B_VALUES
from ..core.presim import resolve_workers
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.spans import export_telemetry, merge_telemetry, worker_telemetry

__all__ = ["GridCell", "run_presim_grid"]


@dataclass(frozen=True)
class GridCell:
    """One (k, b) result row (slim, pickle-friendly)."""

    k: int
    b: float
    cut_size: int
    balanced: bool
    sim_time: float
    speedup: float
    messages: int
    rollbacks: int

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


def _evaluate_cell(
    source: str,
    top: str | None,
    k: int,
    b: float,
    n_vectors: int,
    seed: int,
    pairing: str,
    algorithm: str = "design",
    collect: bool = False,
    refiner: str = "fm",
) -> tuple[GridCell, dict | None]:
    """Worker: compile, partition, pre-simulate one grid cell.

    With ``collect`` on, the whole cell runs under a per-task
    mini-recorder's ``sweep.cell`` span — the partitioner and Time Warp
    engine record into it, and the export is returned alongside the
    slim row for deterministic merge in the driver (same shape whether
    this runs serially or in a pool worker).
    """
    from ..circuits import random_vectors
    from ..core import design_driven_partition, multilevel_flat_partition
    from ..sim import ClusterSpec, TimeWarpConfig, compile_circuit, run_partitioned
    from ..verilog import compile_verilog

    wrec = worker_telemetry() if collect else NULL_RECORDER
    with wrec.phase("sweep.cell"):
        netlist = compile_verilog(source, top=top)
        circuit = compile_circuit(netlist)
        events = random_vectors(netlist, n_vectors, seed=seed)
        if algorithm == "multilevel":
            part = multilevel_flat_partition(
                netlist, k, b, seed=seed, refiner=refiner, recorder=wrec,
            )
        else:
            part = design_driven_partition(
                netlist, k=k, b=b, seed=seed, pairing=pairing,
                refiner=refiner, recorder=wrec,
            )
        clusters, machines = part.to_simulation()
        report = run_partitioned(
            circuit, clusters, machines, events,
            ClusterSpec(num_machines=k), TimeWarpConfig(), recorder=wrec,
        )
    cell = GridCell(
        k=k,
        b=b,
        cut_size=part.cut_size,
        balanced=part.balanced,
        sim_time=report.parallel_wall_time,
        speedup=report.speedup,
        messages=report.messages,
        rollbacks=report.rollbacks,
    )
    return cell, export_telemetry(wrec) if collect else None


def run_presim_grid(
    source: str,
    ks: tuple[int, ...] = (2, 3, 4),
    bs: tuple[float, ...] = PAPER_B_VALUES,
    n_vectors: int = 40,
    seed: int = 1,
    pairing: str = "gain",
    top: str | None = None,
    workers: int | None = None,
    algorithm: str = "design",
    refiner: str = "fm",
    recorder: Recorder = NULL_RECORDER,
) -> list[GridCell]:
    """Run the (k, b) pre-simulation grid, optionally across processes.

    Worker-count policy is the shared
    :func:`repro.core.presim.resolve_workers`: ``workers=None``
    consults the ``REPRO_WORKERS`` environment variable (unset means
    serial, capped at ``os.cpu_count()``), an explicit count is honoured
    verbatim.  Serial runs stay in-process (no subprocess overhead);
    parallel runs fan the cells out over a process pool.  Rows come back
    in grid order regardless of completion order, and every cell is
    seeded identically to the serial path, so results never depend on
    the worker count.

    ``algorithm`` selects each cell's partition backend — ``"design"``
    (default) or ``"multilevel"``
    (:func:`~repro.core.multilevel.multilevel_flat_partition`, see
    ``docs/multilevel.md``).  ``refiner`` selects the backend's
    improvement engine, ``"fm"`` or ``"batch"`` (``docs/refinement.md``).

    ``recorder`` collects per-cell worker telemetry (a ``sweep.cell``
    span per cell carrying that cell's partition + Time Warp counters),
    merged back in grid order — byte-identical at any ``workers``.
    """
    resolved = resolve_workers(workers)
    collect = recorder.enabled
    cells = [(k, b) for k in ks for b in bs]
    args = [
        (source, top, k, b, n_vectors, seed, pairing, algorithm, collect,
         refiner)
        for k, b in cells
    ]
    if resolved <= 1:
        results = [_evaluate_cell(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=resolved) as pool:
            futures = [pool.submit(_evaluate_cell, *a) for a in args]
            results = [f.result() for f in futures]
    out: list[GridCell] = []
    for cell, telemetry in results:
        out.append(cell)
        merge_telemetry(recorder, telemetry)
    return out
