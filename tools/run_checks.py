#!/usr/bin/env python
"""One-shot pre-PR gate: every fast repository check, chained.

Runs, in order, stopping at the first failure:

1. the tier-1 test suite (``pytest tests/ -x -q`` with ``src`` on the
   path) — the correctness gate ROADMAP.md names;
2. the documentation reference linter (``tools/check_docs.py``) —
   every ``repro.*`` path, CLI flag and metric/phase/host-value name
   in the docs must resolve;
3. the committed-results gate (``benchmarks/make_experiments_md.py
   --check``, 0.2 s) — rebuilds ``EXPERIMENTS.md`` in memory and
   schema-validates every ``benchmarks/out/BENCH_*.json``, so a deleted
   section or a hand-edited document fails here instead of waiting
   for the minutes-long benchmark run;
4. the scale-ladder smoke rung (``benchmarks/bench_scale_ladder.py
   --rungs 1``) — the 10k rung builds, partitions balanced, and its
   per-phase coarsen/refine wall breakdown carries every expected
   recorder phase (the smoke asserts the breakdown keys exist);
5. the pipeline benchmark's smoke size (``benchmarks/pipeline/run.py
   --smoke``) — all five workloads at test size, front end through
   verified Time Warp, every output check on, under 30 s; it writes
   only the git-ignored ``benchmarks/pipeline/out/``;
6. the same at ``--smoke --verify-determinism`` — every workload twice
   in fresh processes, result digests must match — which catches a
   set-ordered or hash-seeded path in the simulators or partitioners
   at tier-1 cost;
7. the pipeline benchmark's own tests (``pytest
   benchmarks/pipeline/test_pipeline_bench.py``, ~20 s) — the only
   test of the traced pass (``run.py --trace 1``), the runner's one use
   of the recorder (spans, phase totals, counters); tier-1 does not
   collect them (``testpaths = ["tests"]``);
8. the simulation profiler at test size (``tools/profile_sim.py
   --circuit cpu-test --k 2 --b 10 --vectors 5``, once with
   ``--batches`` and once with ``--top 5``, ~1.5 s each) — it wraps
   ``ClusterLP.execute_batch`` and ``GateTable.step`` by patching their
   classes and exits non-zero when the engine loop no longer calls
   them, so a refactor that moves the batch fails here;
9. the front-end profiler at test size (``tools/profile_frontend.py
   --circuit viterbi-test --top 3``, under 1 s) — it drives the
   elaborator's private ``_Elaborator`` and reads its work counters;
10. the partition profiler at test size, once flat multilevel
    (``tools/profile_partition.py --circuit viterbi-s10k``) and once
    design-driven (``--algorithm multiway --circuit viterbi-test --k
    3``), under 1 s each — it wraps ``_cluster_level``, ``_kick``,
    ``BoundaryGains.refresh`` and the other kernels it times and exits
    non-zero when one it wraps records no call.

Usage::

    python tools/run_checks.py            # run everything
    python tools/run_checks.py --list     # show the steps and exit

Exit code 0 means every step passed (the README names this as the
command to run before opening a PR).  The full-size benchmarks are
*not* included — they take minutes; run ``pytest benchmarks/
--benchmark-only`` when a change touches measured claims.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: test-size arguments of the two simulation-profiler steps
_PROFILE_SIM_SMOKE = ("--circuit", "cpu-test", "--k", "2", "--b", "10",
                      "--vectors", "5")

#: (label, argv, extra PYTHONPATH entries) for each gate step
STEPS: list[tuple[str, list[str], tuple[str, ...]]] = [
    ("tier-1 tests",
     [sys.executable, "-m", "pytest", "tests/", "-x", "-q"],
     ("src",)),
    ("docs references",
     [sys.executable, "tools/check_docs.py"],
     ()),
    ("EXPERIMENTS.md freshness",
     [sys.executable, "benchmarks/make_experiments_md.py", "--check"],
     ()),
    ("scale-ladder smoke rung",
     [sys.executable, "benchmarks/bench_scale_ladder.py", "--rungs", "1"],
     ("src",)),
    ("pipeline benchmark smoke",
     [sys.executable, "benchmarks/pipeline/run.py", "--smoke"],
     ()),
    ("pipeline benchmark determinism",
     [sys.executable, "benchmarks/pipeline/run.py", "--smoke",
      "--verify-determinism"],
     ()),
    ("pipeline benchmark tests",
     [sys.executable, "-m", "pytest",
      "benchmarks/pipeline/test_pipeline_bench.py", "-q"],
     ()),
    ("simulation profiler, batch tables",
     [sys.executable, "tools/profile_sim.py", *_PROFILE_SIM_SMOKE,
      "--batches"],
     ()),
    ("simulation profiler, cProfile listing",
     [sys.executable, "tools/profile_sim.py", *_PROFILE_SIM_SMOKE,
      "--top", "5"],
     ()),
    ("front-end profiler",
     [sys.executable, "tools/profile_frontend.py", "--circuit",
      "viterbi-test", "--top", "3"],
     ()),
    ("partition profiler, flat multilevel",
     [sys.executable, "tools/profile_partition.py", "--circuit",
      "viterbi-s10k"],
     ()),
    ("partition profiler, design-driven",
     [sys.executable, "tools/profile_partition.py", "--algorithm",
      "multiway", "--circuit", "viterbi-test", "--k", "3"],
     ()),
]


def run_step(label: str, argv: list[str],
             pythonpath: tuple[str, ...]) -> int:
    env = dict(os.environ)
    if pythonpath:
        extra = os.pathsep.join(str(REPO_ROOT / p) for p in pythonpath)
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (f"{extra}{os.pathsep}{prior}" if prior
                             else extra)
    print(f"==> {label}: {' '.join(argv)}")
    t0 = time.perf_counter()
    code = subprocess.call(argv, cwd=REPO_ROOT, env=env)
    dt = time.perf_counter() - t0
    status = "ok" if code == 0 else f"FAILED (exit {code})"
    print(f"<== {label}: {status} in {dt:.1f}s\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the steps without running them")
    args = parser.parse_args(argv)
    if args.list:
        for label, step_argv, _ in STEPS:
            print(f"{label}: {' '.join(step_argv)}")
        return 0
    for label, step_argv, pythonpath in STEPS:
        code = run_step(label, step_argv, pythonpath)
        if code != 0:
            print(f"gate failed at step: {label}")
            return code
    print(f"all {len(STEPS)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
