"""The five pipeline workloads: input generation, one timed pass, checks.

Each workload is a ``(setup, run_pass)`` pair over a parameter dict with
a ``full`` and a ``smoke`` size.  ``setup`` generates the inputs from the
seed (Verilog text, streamed netlist, stimulus); ``run_pass`` pushes
them through the repo's public functions, timing every layer call from
outside with a :class:`LayerClock` and handing the clock's recorder to
each call's existing ``recorder=`` parameter.  Nothing under ``src/`` is
touched or patched.

Seeds: ``--seed S`` makes the inputs — every stimulus's bits
(pre-simulation ``seed=S``, full run ``seed=S+1``).  Partitioner seeds are
program configuration and are pinned to ``PARTITION_SEED``: a
partitioner's host time is chaotic in its seed (quartile spread over ten
seeds: 25% of the median for the multilevel engine on ``ladder_100k``,
3.0-4.8 CPU-s at cut 471-727; 13% for design-driven multiway on
``hier_93k``), which no regression bound could absorb.  ``ladder_100k``
and ``hier_93k`` take no stimulus, so they are the same at every seed.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.circuits import circuit_source, load_stream_circuit, random_vectors
from repro.core import (
    BalanceConstraint,
    design_driven_partition,
    evaluate_partition,
    heuristic_presim,
    multilevel_kway_partition,
)
from repro.hypergraph import Clustering
from repro.hypergraph.build import streamed_flat_hypergraph
from repro.obs import NULL_RECORDER
from repro.sim.cluster import ClusterSpec
from repro.sim.compiled import compile_circuit
from repro.sim.engine import run_sequential_baseline
from repro.verilog import elaborate, parse_source

#: the virtual cluster's cost model (k comes from the partition)
BASE_SPEC = ClusterSpec(num_machines=1)

#: see the module docstring: pinned because host time is chaotic in it
PARTITION_SEED = 1


class LayerClock:
    """Times the runner's calls into each layer, from outside.

    ``with clock("verilog.parse_s"):`` adds the block's wall to that
    metric and, when the pass is traced, opens a ``bench.verilog`` span
    so every program phase the call records nests under the layer that
    caused it.  ``scoped`` keeps, per layer, how much each *program*
    phase grew while the runner was inside that layer's call — what
    separates the full run's ``tw.run`` from the pre-simulation's.
    ``probe_rss`` (the cold pass) also records resident-set growth over
    each call, the numerator of ``hypergraph.bytes_per_pin``.
    """

    def __init__(self, recorder=NULL_RECORDER, probe_rss: bool = False) -> None:
        self.recorder = recorder
        self.probe_rss = probe_rss
        self.seconds: dict[str, float] = {}
        self.scoped: dict[tuple[str, str], float] = {}
        self.rss_growth_kb: dict[str, float] = {}

    def _phase_totals(self) -> dict[str, float]:
        return {n: s.host_seconds for n, s in self.recorder.phases.items()}

    @staticmethod
    def _rss_kb() -> float:
        try:
            with open("/proc/self/statm") as fh:
                pages = int(fh.read().split()[1])
            return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
        except (OSError, ValueError, IndexError):
            return 0.0

    @contextmanager
    def __call__(self, metric: str):
        layer = metric.rpartition(".")[0]
        before = self._phase_totals() if self.recorder.enabled else None
        rss0 = self._rss_kb() if self.probe_rss else 0.0
        t0 = time.perf_counter()
        with self.recorder.phase("bench." + layer):
            yield
        took = time.perf_counter() - t0
        self.seconds[metric] = self.seconds.get(metric, 0.0) + took
        if self.probe_rss:
            self.rss_growth_kb[metric] = (self.rss_growth_kb.get(metric, 0.0)
                                          + max(self._rss_kb() - rss0, 0.0))
        if before is not None:
            for name, total in self._phase_totals().items():
                grown = total - before.get(name, 0.0)
                if grown > 0.0:
                    key = (layer, name)
                    self.scoped[key] = self.scoped.get(key, 0.0) + grown


@dataclass
class PassResult:
    """What one pass produced: exact counts by metric name, the output
    checks as (label, ok) pairs, and the result digest.  Checks that
    walk every gate are queued with :meth:`later` and run by
    :meth:`finish`, after the pass's clocks have stopped."""

    facts: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    _hash: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    _deferred: list[tuple] = field(default_factory=list)

    def later(self, check, *args) -> None:
        self._deferred.append((check, args))

    def finish(self) -> "PassResult":
        for check, args in self._deferred:
            check(*args, self)
        self._deferred.clear()
        return self

    def absorb(self, *items) -> None:
        """Fold arrays and numbers into the result digest."""
        for item in items:
            if isinstance(item, np.ndarray):
                self._hash.update(np.ascontiguousarray(item, dtype=np.int64).tobytes())
            else:
                self._hash.update(repr(item).encode())
            self._hash.update(b"|")

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


# -- shared pipeline stages --------------------------------------------------


def _front_end(text: str, clock: LayerClock, out: PassResult):
    with clock("verilog.parse_s"):
        source = parse_source(text)
    with clock("verilog.elaborate_s"):
        netlist = elaborate(source)
    out.facts["verilog.src_bytes"] = len(text)
    out.facts["verilog.gates"] = netlist.num_gates
    out.facts["circuits.gates"] = netlist.num_gates
    return netlist


def _design_partition(netlist, k: int, b: float,
                      clock: LayerClock, out: PassResult):
    """Visible-node hypergraph + the paper's multiway algorithm."""
    with clock("hypergraph.build_s"):
        clustering = Clustering.top_level(netlist)
        hg = clustering.hypergraph()
    with clock("core.multiway.partition_s"):
        part = design_driven_partition(
            clustering, k, b, seed=PARTITION_SEED, workers=1,
            recorder=clock.recorder)
    for key, value in (("vertices", hg.num_vertices), ("edges", hg.num_edges),
                       ("pins", hg.num_pins)):
        out.facts["hypergraph." + key] = out.facts.get("hypergraph." + key, 0) + value
    out.later(_check_multiway, f"design-driven k={k} b={b}", part)
    return part


def _check_multiway(label: str, part, out: PassResult) -> None:
    """Formula 1 and exact cover, recomputed from the assignment."""
    n = part.clustering.netlist.num_gates
    covered = np.fromiter(
        (g for c in part.clustering.clusters for g in c.gate_ids),
        dtype=np.int64)
    gate_part = part.gate_assignment()
    loads = np.bincount(gate_part, minlength=part.k)
    out.checks.append((
        f"{label}: every gate in exactly one cluster",
        covered.size == n and np.array_equal(np.sort(covered), np.arange(n))))
    out.checks.append((
        f"{label}: Formula 1 balance",
        len(loads) == part.k
        and BalanceConstraint(part.k, part.b).satisfied(loads)))
    out.facts["cut"] = out.facts.get("cut", 0) + part.cut_size
    out.facts["core.multiway.cut"] = out.facts["cut"]
    out.absorb(gate_part, part.cut_size)


def _full_run(netlist, part, events, clock: LayerClock, out: PassResult) -> None:
    """Compile, sequential reference, verified Time Warp run."""
    rec = clock.recorder
    with clock("sim.compiled.compile_s"):
        circuit = compile_circuit(netlist)
    with clock("sim.sequential.run_s"):
        seq, _ = run_sequential_baseline(circuit, events, BASE_SPEC, recorder=rec)
    with clock("sim.timewarp.total_s"):
        point = evaluate_partition(circuit, part, events, BASE_SPEC,
                                   sequential=seq, recorder=rec)
    report, stats = point.report, point.report.run_stats
    out.facts.update({
        "circuits.input_events": len(events),
        "sim.compiled.gates": netlist.num_gates,
        "sim.sequential.gate_evals": seq.stats.gate_evals,
        "sim.timewarp.processed_events": report.processed_events,
        "sim.timewarp.committed_events": report.committed_events,
        "sim.timewarp.rollbacks": report.rollbacks,
        "sim.timewarp.rolled_back_events": report.rolled_back_events,
        "sim.timewarp.messages": report.messages,
        "sim.timewarp.anti_messages": report.anti_messages,
        "sim.timewarp.gvt_rounds": stats.gvt_rounds,
        "sim.timewarp.peak_checkpoint_bytes": report.peak_checkpoint_bytes,
        "sim.timewarp.kernel_batch_gates": stats.kernel_batch_gates,
        "sim.timewarp.kernel_scalar_gates": stats.kernel_scalar_gates,
        "modeled_speedup": report.speedup,
    })
    out.checks.append(("Time Warp final net values equal the sequential run's",
                       report.verified))
    out.checks.append(("committed events equal sequential gate evaluations",
                       report.committed_events == seq.stats.gate_evals))
    out.absorb(report.committed_events, report.processed_events,
               report.messages, report.anti_messages, report.rollbacks,
               report.speedup, seq.values)


def _stimulus(text: str, clock: LayerClock, *vector_specs):
    """Random stimulus for the design in ``text``; the front-end pass
    that finds its primary inputs is part of the generation cost."""
    with clock("circuits.vectors_s"):
        netlist = elaborate(parse_source(text))
        return [random_vectors(netlist, n, seed=s) for n, s in vector_specs]


# -- the workloads ---------------------------------------------------------------


def _setup_flow(p: dict, seed: int, clock: LayerClock) -> dict:
    with clock("circuits.generate_s"):
        text = circuit_source(p["circuit"])
    presim, full = _stimulus(text, clock, (p["presim_vectors"], seed),
                             (p["vectors"], seed + 1))
    return {"text": text, "presim_events": presim, "events": full}


def _pass_flow(p: dict, inputs: dict, clock: LayerClock) -> PassResult:
    out = PassResult()
    netlist = _front_end(inputs["text"], clock, out)
    with clock("core.presim.search_s"):
        study = heuristic_presim(
            netlist, inputs["presim_events"], max_k=p["max_k"],
            base_spec=BASE_SPEC, seed=PARTITION_SEED, refine_workers=1,
            workers=1,
            recorder=clock.recorder)
    best = study.best
    out.facts["core.presim.points"] = study.runs
    out.checks.append(("pre-simulation search returned a best point",
                       best is not None and study.runs >= 1))
    out.absorb([(pt.k, pt.b, pt.cut_size, pt.speedup) for pt in study.points])
    if best is None:
        return out
    out.facts["core.presim.best_k"] = best.k
    out.facts["core.presim.best_b"] = best.b
    out.later(_check_multiway, f"presim winner k={best.k} b={best.b}",
              best.partition)
    _full_run(netlist, best.partition, inputs["events"], clock, out)
    return out


def _setup_ladder(p: dict, seed: int, clock: LayerClock) -> dict:
    with clock("circuits.stream_build_s"):
        csr = load_stream_circuit(p["circuit"])
    return {"csr": csr}


def _pass_ladder(p: dict, inputs: dict, clock: LayerClock) -> PassResult:
    out = PassResult()
    csr, k, b = inputs["csr"], p["k"], p["b"]
    with clock("hypergraph.build_s"):
        hg = streamed_flat_hypergraph(csr, recorder=clock.recorder)
    with clock("core.multilevel.partition_s"):
        result = multilevel_kway_partition(
            hg, k, b, seed=PARTITION_SEED, workers=1,
            recorder=clock.recorder, refiner="batch")
    part = result.assignment
    loads = np.bincount(part, minlength=k) if part.size else np.zeros(k)
    out.facts.update({
        "circuits.gates": csr.num_gates,
        "hypergraph.vertices": hg.num_vertices,
        "hypergraph.edges": hg.num_edges,
        "hypergraph.pins": hg.num_pins,
        "core.multilevel.levels": result.levels,
        "core.multilevel.coarse_vertices": result.coarse_vertices,
        "cut": result.cut_size,
    })
    out.checks.append((
        "multilevel: every gate in exactly one of k parts",
        part.size == csr.num_gates and int(part.min()) >= 0
        and int(part.max()) < k))
    out.checks.append((
        "multilevel: Formula 1 balance",
        len(loads) == k and BalanceConstraint(k, b).satisfied(loads)))
    out.absorb(part, result.cut_size)
    return out


def _setup_hier(p: dict, seed: int, clock: LayerClock) -> dict:
    with clock("circuits.generate_s"):
        return {"text": circuit_source(p["circuit"])}


def _pass_hier(p: dict, inputs: dict, clock: LayerClock) -> PassResult:
    out = PassResult()
    netlist = _front_end(inputs["text"], clock, out)
    for k, b in p["kbs"]:
        _design_partition(netlist, k, b, clock, out)
    with clock("sim.compiled.compile_s"):
        compile_circuit(netlist)
    out.facts["sim.compiled.gates"] = netlist.num_gates
    return out


def _setup_sim(p: dict, seed: int, clock: LayerClock) -> dict:
    with clock("circuits.generate_s"):
        text = circuit_source(p["circuit"])
    (events,) = _stimulus(text, clock, (p["vectors"], seed + 1))
    return {"text": text, "events": events}


def _pass_sim(p: dict, inputs: dict, clock: LayerClock) -> PassResult:
    out = PassResult()
    netlist = _front_end(inputs["text"], clock, out)
    part = _design_partition(netlist, p["k"], p["b"], clock, out)
    _full_run(netlist, part, inputs["events"], clock, out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[dict, int, LayerClock], dict]
    run_pass: Callable[[dict, dict, LayerClock], PassResult]
    full: dict
    smoke: dict


#: Sizes: the circuits and (k, b) points are the ones the issue sized the
#: benchmark on; vector counts are cut (viterbi_flow 60/300 -> 20/100,
#: sim_forward_noc 800 -> 250, sim_rollback_cpu 400 -> 150) so that a
#: cold pass plus at least three measured ones fit one 20 s run — the
#: driver's total-time cap allows ~30 s per run.  Rollback ratios keep
#: their character at the shorter stimulus (noc 8%, cpu8 60%).
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "viterbi_flow", _setup_flow, _pass_flow,
        full={"circuit": "viterbi-single", "presim_vectors": 20,
              "vectors": 100, "max_k": 4},
        smoke={"circuit": "viterbi-test", "presim_vectors": 8,
               "vectors": 24, "max_k": 3}),
    Workload(
        "ladder_100k", _setup_ladder, _pass_ladder,
        full={"circuit": "viterbi-s100k", "k": 8, "b": 5.0},
        smoke={"circuit": "viterbi-s10k", "k": 8, "b": 5.0}),
    Workload(
        "hier_93k", _setup_hier, _pass_hier,
        full={"circuit": "viterbi-paper", "kbs": ((4, 5.0), (8, 5.0))},
        smoke={"circuit": "viterbi-test", "kbs": ((2, 10.0), (3, 10.0))}),
    Workload(
        "sim_forward_noc", _setup_sim, _pass_sim,
        full={"circuit": "noc-bench", "k": 4, "b": 10.0, "vectors": 250},
        smoke={"circuit": "noc-test", "k": 2, "b": 10.0, "vectors": 30}),
    Workload(
        "sim_rollback_cpu", _setup_sim, _pass_sim,
        full={"circuit": "cpu8", "k": 4, "b": 10.0, "vectors": 150},
        smoke={"circuit": "cpu-test", "k": 2, "b": 10.0, "vectors": 30}),
)}
