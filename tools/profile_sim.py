#!/usr/bin/env python
"""Profile the simulation substrate: one presim point + one full run.

Runs cProfile over the two workloads the selection loop is made of —

* **presim point**: one short Time Warp run on one (k, b) candidate
  partition, the unit of work ``brute_force_presim`` repeats per grid
  cell (§3.4 / Figure 3 of the paper); and
* **full run**: the same partition driven with a 10x-longer stimulus,
  the shape of the final Table 5 runs —

and prints the top cumulative functions of each (default 20).  This is
the before/after evidence harness for kernel work: run it on two
checkouts and diff where the time goes (docs/performance.md,
"Simulation kernel" and "Time Warp shell", record the numbers).

Every profiled run is first made once without cProfile and summarised
per engine step — one LP batch on one machine: steps, host microseconds
of ``TimeWarpEngine.run`` per step (the ``tw.run`` phase), gate
evaluations per step and inter-LP sends per step, the counts read from
the run's ``RunStats`` — the cost the Time Warp shell work is judged by.
An engine step is one pass of the single loop in
``TimeWarpEngine.run``, which prices the machines, delivers due
arrivals and calls ``ClusterLP.execute_batch`` — the one LP batch
implementation.  A second line, from one more run with
``GateTable.step`` wrapped (so the timing above stays unwrapped),
counts the outputs the kernel rounds produced against the ones they
scheduled because they change their net: the share of no-ops a round
drops instead of carrying to the next tick.

The wrapped runs patch ``ClusterLP.execute_batch`` and
``GateTable.step`` on their classes; the tool exits with an error when
the wrapped run's batch count differs from the engine's steps or the
kernel wrapper saw no call, so a refactor that bypasses either fails
here (``tools/run_checks.py`` runs it at test size) instead of printing
empty tables.

``--batches`` replaces the cProfile listing with the view cProfile
cannot give — LP batches bucketed by size:

* by gate evaluations per batch (0 / 1-7 / 8-23 / 24-63 / 64-255 /
  256+): batches, evals, host seconds and microseconds per
  ``ClusterLP.execute_batch`` call, with the dispatch as shipped;
* by scheduled updates per batch (the quantity the step kernel
  dispatches on): microseconds per kernel step with every batch forced
  onto the scalar side and onto the array side — the break-even row of
  this table is what ``repro.sim.kernel.BATCH_THRESHOLD`` is set from.

Examples::

    PYTHONPATH=src python tools/profile_sim.py
    PYTHONPATH=src python tools/profile_sim.py --circuit viterbi-test \\
        --vectors 20 --top 30
    PYTHONPATH=src python tools/profile_sim.py --skip-full
    PYTHONPATH=src python tools/profile_sim.py --circuit noc-bench \\
        --k 4 --b 10 --vectors 25 --skip-presim --batches
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from bisect import bisect_right
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits import circuit_source, random_vectors  # noqa: E402
from repro.core.multiway import design_driven_partition  # noqa: E402
from repro.core.presim import evaluate_partition  # noqa: E402
from repro.obs import NULL_RECORDER, MetricsRecorder  # noqa: E402
from repro.sim import kernel  # noqa: E402
from repro.sim.cluster import ClusterSpec, TimeWarpConfig  # noqa: E402
from repro.sim.compiled import compile_circuit  # noqa: E402
from repro.sim.lp import ClusterLP  # noqa: E402
from repro.verilog import compile_verilog  # noqa: E402

#: lower bucket edges: gate evaluations per batch / scheduled updates
EVAL_EDGES = (0, 1, 8, 24, 64, 256)
UPDATE_EDGES = (1, 8, 24, 48, 64, 96, 128, 192, 256)


def _per_step(label: str, func) -> int:
    """One plain run: what an engine step costs and carries; returns
    the number of steps."""
    recorder = MetricsRecorder()
    stats = func(recorder).run_stats
    host = recorder.phases["tw.run"].host_seconds
    steps = max(sum(m.batches for m in stats.machines), 1)
    sends = sum(lp.msgs_sent + lp.antis_sent for lp in stats.lps)
    print(f"[{label}] engine steps={steps} "
          f"host us/step={host / steps * 1e6:.2f} "
          f"evals/step={stats.processed_events / steps:.2f} "
          f"sends/step={sends / steps:.3f} (tw.run {host:.3f} s)")
    return steps


def _no_ops(label: str, func) -> None:
    """One more run, untimed: how many of the outputs its kernel rounds
    produced change their net (and so are scheduled)."""
    calls = produced = changed = 0
    inner = kernel.GateTable.step

    def counting(*args):
        nonlocal calls, produced, changed
        calls += 1
        result = inner(*args)
        if result is not None:
            produced += result[2]
            due = result[3]  # a dict, an (nets, values) array pair or None
            if due is not None:
                changed += len(due) if type(due) is dict else len(due[0])
        return result

    kernel.GateTable.step = counting
    try:
        func()
    finally:
        kernel.GateTable.step = inner
    if not calls:
        raise SystemExit(f"[{label}] the wrapped GateTable.step was never "
                         "called: the LP batch no longer reaches it")
    print(f"[{label}] outputs produced={produced} scheduled (changed)="
          f"{changed} no-ops={1 - changed / max(produced, 1):.1%} "
          f"(rolled-back rounds included)")


def _profile(label: str, func, top: int, sort: str) -> None:
    print(f"\n=== {label} ===")
    prof = cProfile.Profile()
    result = prof.runcall(func)
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    if result is not None:
        print(f"[{label}] committed_events={result.committed_events} "
              f"rollbacks={result.rollbacks} "
              f"speedup={result.speedup:.3f}")


def _label(edges: tuple[int, ...], i: int) -> str:
    if i + 1 == len(edges):
        return f"{edges[i]}+"
    last = edges[i + 1] - 1
    return str(last) if last == edges[i] else f"{edges[i]}-{last}"


def _timed(owner, name: str, edges, size_of, run):
    """Run ``run()`` with ``owner.name`` timed per call; returns per
    bucket ``[calls, evals, seconds]``, bucketed by ``size_of(args,
    result)`` against ``edges``."""
    inner = getattr(owner, name)
    rows = [[0, 0, 0.0] for _ in edges]

    def timed(*args):
        t0 = time.perf_counter()
        result = inner(*args)
        dt = time.perf_counter() - t0
        size, evals = size_of(args, result)
        row = rows[bisect_right(edges, size) - 1]
        row[0] += 1
        row[1] += evals
        row[2] += dt
        return result

    setattr(owner, name, timed)
    try:
        run()
    finally:
        setattr(owner, name, inner)
    return rows


def _batch_tables(label: str, run, steps: int) -> None:
    print(f"\n=== {label}: LP batches by gate evaluations ===")
    rows = _timed(ClusterLP, "execute_batch", EVAL_EDGES,
                  lambda args, res: (res[0], res[0]), run)
    batches = sum(row[0] for row in rows)
    if batches != steps:
        raise SystemExit(f"[{label}] the wrapped ClusterLP.execute_batch "
                         f"ran {batches} batches, the engine {steps} steps")
    print(f"{'evals/batch':>12} {'batches':>9} {'evals':>10} "
          f"{'host s':>8} {'us/batch':>9}")
    for i, (calls, evals, secs) in enumerate(rows):
        print(f"{_label(EVAL_EDGES, i):>12} {calls:>9} {evals:>10} "
              f"{secs:>8.3f} {secs / max(calls, 1) * 1e6:>9.1f}")

    def step_size(args, res):
        updates = args[2]  # a dict, or an (nets, values) array pair
        size = len(updates) if type(updates) is dict else len(updates[0])
        return size, (res[1] if res is not None else 0)

    sides = {}
    shipped = kernel.BATCH_THRESHOLD
    try:
        for side, threshold in (("scalar", 1 << 62), ("array", 0)):
            kernel.BATCH_THRESHOLD = threshold
            sides[side] = _timed(kernel.GateTable, "step", UPDATE_EDGES,
                                 step_size, run)
    finally:
        kernel.BATCH_THRESHOLD = shipped
    print(f"\n=== {label}: kernel steps by scheduled updates "
          f"(BATCH_THRESHOLD = {shipped}) ===")
    print(f"{'updates/step':>12} {'steps':>9} {'evals':>10} "
          f"{'scalar us':>10} {'array us':>9}")
    for i, (calls, evals, secs) in enumerate(sides["scalar"]):
        array_secs = sides["array"][i][2]
        print(f"{_label(UPDATE_EDGES, i):>12} {calls:>9} {evals:>10} "
              f"{secs / max(calls, 1) * 1e6:>10.1f} "
              f"{array_secs / max(calls, 1) * 1e6:>9.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one presim point and one full run")
    parser.add_argument("--circuit", default="viterbi-single",
                        help="named circuit generator (default: %(default)s)")
    parser.add_argument("--k", type=int, default=4,
                        help="machine count for the candidate partition")
    parser.add_argument("--b", type=float, default=12.5,
                        help="balance factor for the candidate partition")
    parser.add_argument("--vectors", type=int, default=60,
                        help="presim stimulus vectors (full run uses 10x)")
    parser.add_argument("--full-vectors", type=int, default=None,
                        help="override the full-run vector count")
    parser.add_argument("--seed", type=int, default=1,
                        help="stimulus and partitioner seed")
    parser.add_argument("--top", type=int, default=20,
                        help="functions to print per profile")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "calls"),
                        help="pstats sort order")
    parser.add_argument("--skip-presim", action="store_true",
                        help="profile only the full run")
    parser.add_argument("--skip-full", action="store_true",
                        help="profile only the presim point")
    parser.add_argument("--batches", action="store_true",
                        help="print per-batch-size tables instead of "
                             "the cProfile listing")
    args = parser.parse_args(argv)

    netlist = compile_verilog(circuit_source(args.circuit))
    circuit = compile_circuit(netlist)
    partition = design_driven_partition(netlist, args.k, args.b,
                                        seed=args.seed)
    spec = ClusterSpec(num_machines=args.k)
    config = TimeWarpConfig()
    print(f"circuit={args.circuit} gates={circuit.num_gates} "
          f"k={args.k} b={args.b} cut={partition.cut_size}")

    full = (args.full_vectors if args.full_vectors is not None
            else args.vectors * 10)
    for skip, label, vectors in (
        (args.skip_presim, "presim point", args.vectors),
        (args.skip_full, "full run", full),
    ):
        if skip:
            continue
        events = random_vectors(netlist, vectors, seed=args.seed)

        def run(recorder=NULL_RECORDER, events=events):
            return evaluate_partition(circuit, partition, events, spec,
                                      config, recorder=recorder).report

        label = f"{label} ({vectors} vectors)"
        steps = _per_step(label, run)
        _no_ops(label, run)
        if args.batches:
            _batch_tables(label, run, steps)
        else:
            _profile(label, run, args.top, args.sort)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
