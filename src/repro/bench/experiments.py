"""Experiment runners: one function per table / figure of the paper.

Each runner takes an :class:`ExperimentConfig` (circuit, grid, vector
counts, seed), computes the data behind one paper artifact, and returns a
structured result that the benchmark scripts print via
:mod:`repro.bench.tables` and the EXPERIMENTS.md generator consumes.

Scaling: the paper simulates a 1.2 M-gate netlist with 10 k pre-sim /
1 M full-run vectors on real hardware; the reproduction uses the
scaled Viterbi (thousands of gates) with a matching pre-sim:full ratio.
Absolute cut sizes and times scale with the circuit; who-wins
relationships and trends are the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from ..circuits import load_circuit, random_vectors
from ..core import (
    PAPER_B_VALUES,
    PAPER_K_VALUES,
    PresimStudy,
    brute_force_presim,
    design_driven_partition,
    evaluate_partition,
    heuristic_presim,
    multilevel_kway_partition,
)
from ..hypergraph import flat_hypergraph
from ..sim import ClusterSpec, compile_circuit, run_sequential_baseline
from ..verilog.netlist import Netlist

__all__ = [
    "ExperimentConfig",
    "CutRow",
    "table1_cutsize_design",
    "table2_cutsize_multilevel",
    "table3_presim",
    "table5_full_sim",
    "fig6_fig7_messages_rollbacks",
    "heuristic_vs_brute_force",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiment runners."""

    circuit: str = "viterbi-single"
    ks: tuple[int, ...] = PAPER_K_VALUES
    bs: tuple[float, ...] = PAPER_B_VALUES
    presim_vectors: int = 40
    full_vectors: int = 400
    seed: int = 1


#: the virtual cluster's cost model (each run sets its machine count)
_SPEC = ClusterSpec(num_machines=1)


@dataclass
class CutRow:
    """One row of Table 1 / Table 2."""

    k: int
    b: float
    cut: int
    balanced: bool = True
    extra: dict = field(default_factory=dict)


@lru_cache(maxsize=8)
def _netlist(circuit: str) -> Netlist:
    return load_circuit(circuit)


# -- Table 1 -----------------------------------------------------------------


def table1_cutsize_design(cfg: ExperimentConfig) -> list[CutRow]:
    """Hyperedge cut of the design-driven algorithm over the (k, b) grid."""
    netlist = _netlist(cfg.circuit)
    rows = []
    for k in cfg.ks:
        for b in cfg.bs:
            r = design_driven_partition(netlist, k=k, b=b, seed=cfg.seed)
            rows.append(
                CutRow(
                    k=k,
                    b=b,
                    cut=r.cut_size,
                    balanced=r.balanced,
                    extra={"flatten_steps": r.flatten_steps},
                )
            )
    return rows


# -- Table 2 -----------------------------------------------------------------


def table2_cutsize_multilevel(cfg: ExperimentConfig) -> list[CutRow]:
    """Hyperedge cut of the multilevel k-way engine on the flattened
    netlist, same grid — the partitioner that cannot see the design
    hierarchy, in the role the paper gave hMetis.

    ``balanced`` records whether the result meets the global Formula-1
    constraint.
    """
    netlist = _netlist(cfg.circuit)
    hg = flat_hypergraph(netlist)
    rows = []
    for k in cfg.ks:
        for b in cfg.bs:
            r = multilevel_kway_partition(hg, k, b, seed=cfg.seed,
                                          refiner="fm")
            rows.append(CutRow(k=k, b=b, cut=r.cut_size, balanced=r.balanced))
    return rows


# -- Table 3 / Table 4 ----------------------------------------------------------


def table3_presim(cfg: ExperimentConfig) -> PresimStudy:
    """Pre-simulation time and speedup for every (k, b)."""
    netlist = _netlist(cfg.circuit)
    events = random_vectors(netlist, cfg.presim_vectors, seed=cfg.seed)
    return brute_force_presim(netlist, events, ks=cfg.ks, bs=cfg.bs,
                              seed=cfg.seed)


# -- Table 5 / Figure 5 ----------------------------------------------------------


@dataclass
class FullSimRow:
    """One row of Table 5: the winning partition of each k, full run."""

    k: int
    b: float
    cut: int
    sim_time: float
    speedup: float
    messages: int
    rollbacks: int


def table5_full_sim(
    cfg: ExperimentConfig, study: PresimStudy
) -> tuple[list[FullSimRow], float]:
    """Full-length simulation of each k's pre-simulation winner.

    Returns the rows and the sequential full-run wall time.
    """
    netlist = _netlist(cfg.circuit)
    events = random_vectors(netlist, cfg.full_vectors, seed=cfg.seed + 1)
    circuit = compile_circuit(netlist)
    sequential, seq_wall = run_sequential_baseline(circuit, events, _SPEC)
    rows: list[FullSimRow] = []
    for k, point in sorted(study.best_per_k().items()):
        full = evaluate_partition(circuit, point.partition, events, _SPEC,
                                  sequential=sequential)
        rows.append(
            FullSimRow(
                k=k,
                b=point.b,
                cut=point.cut_size,
                sim_time=full.sim_time,
                speedup=full.speedup,
                messages=full.messages,
                rollbacks=full.rollbacks,
            )
        )
    return rows, seq_wall


# -- Figures 6 and 7 ---------------------------------------------------------------


def fig6_fig7_messages_rollbacks(
    study: PresimStudy,
) -> tuple[dict[float, list[int]], dict[float, list[int]], list[int]]:
    """Message and rollback counts vs machines, one series per b.

    Returns (messages_by_b, rollbacks_by_b, machine_counts).
    """
    ks = sorted({p.k for p in study.points})
    bs = sorted({p.b for p in study.points})
    messages: dict[float, list[int]] = {b: [] for b in bs}
    rollbacks: dict[float, list[int]] = {b: [] for b in bs}
    index = {(p.k, p.b): p for p in study.points}
    for b in bs:
        for k in ks:
            p = index[(k, b)]
            messages[b].append(p.messages)
            rollbacks[b].append(p.rollbacks)
    return messages, rollbacks, ks


# -- heuristic pre-simulation ------------------------------------------------------


@dataclass
class HeuristicComparison:
    """Heuristic (Fig 3) vs brute-force search outcome."""

    brute: PresimStudy
    heuristic: PresimStudy

    @property
    def runs_saved(self) -> int:
        return self.brute.runs - self.heuristic.runs

    @property
    def speedup_gap(self) -> float:
        """Best brute-force speedup minus the heuristic's pick."""
        return self.brute.best.speedup - self.heuristic.best.speedup


def heuristic_vs_brute_force(
    cfg: ExperimentConfig, brute: PresimStudy | None = None
) -> HeuristicComparison:
    """Quantify the paper's §3.4 trade-off (runs saved vs quality)."""
    netlist = _netlist(cfg.circuit)
    events = random_vectors(netlist, cfg.presim_vectors, seed=cfg.seed)
    if brute is None:
        brute = table3_presim(cfg)
    heur = heuristic_presim(netlist, events, max_k=max(cfg.ks),
                            seed=cfg.seed)
    return HeuristicComparison(brute=brute, heuristic=heur)
