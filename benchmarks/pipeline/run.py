"""Pipeline benchmark: Verilog text to verified Time Warp, end to end and
layer by layer.

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints, as the last line of stdout, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is what ``BENCHMARK.json``'s ``command`` runs.
* ``run.py`` alone runs the suite: every workload in a fresh child
  process, round-robin over ``ROUNDS`` rounds so a noisy minute
  spreads over all workloads, then one traced child per workload; it
  prints every metric by name with its unit and writes
  ``benchmarks/pipeline/out/latest.json`` plus one Chrome trace per
  workload.  ``--smoke``, ``--record``, ``--verify-determinism`` and
  ``--compare A.json B.json`` are variations of it (see README.md).

It claims no gain; it is the baseline later issues name their metric
and workload from.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
HISTORY = HERE / "HISTORY.jsonl"

#: suite: untraced runs per workload, round-robin (the issue's floor)
ROUNDS = 3
#: measured passes behind every median, at least (the cold pass is extra)
MIN_PASSES = 3
#: input generations behind ``setup_s``'s median
SETUP_REPS = 5
#: a run is marked noisy above this quartile spread of its pass walls
NOISY_IQR_PCT = 10.0
#: host-speed kernel time after each pass, as a share of the pass
CALIBRATION_SHARE = 0.08

#: program phase -> the layer that owns its self time; any other span
#: belongs to the layer of the span that caused it
PHASE_LAYER = {
    "partition.coarsen": "core.multilevel",
    "partition.uncoarsen": "core.multilevel",
    "partition.batch_refine": "core.batch_refine",
    "partition.refine": "core.multiway",
    "partition.flatten": "core.multiway",
    "partition.rebalance": "core.multiway",
    "refine.pair": "core.multiway",
    "presim.point": "core.presim",
    "presim.partition": "core.multiway",
    "presim.simulate": "sim.timewarp",
    "tw.load": "sim.timewarp",
    "tw.run": "sim.timewarp",
    "tw.verify": "sim.timewarp",
    "seq.run": "sim.sequential",
}

#: per-layer metric -> (runner layers whose calls it is scoped to, or
#: None for the whole pass; program phase whose seconds it reports).
#: Traced passes only.  Both partition drivers record ``partition.initial``;
#: the pre-simulation search records ``tw.*`` for its trial runs.
PHASE_METRICS = {
    "core.multiway.initial_s": (("core.multiway",), "partition.initial"),
    "core.multiway.refine_s": (None, "partition.refine"),
    "core.multiway.flatten_s": (None, "partition.flatten"),
    "core.multiway.rebalance_s": (None, "partition.rebalance"),
    "core.multilevel.coarsen_s": (None, "partition.coarsen"),
    "core.multilevel.initial_s": (("core.multilevel",), "partition.initial"),
    "core.multilevel.uncoarsen_s": (None, "partition.uncoarsen"),
    "core.batch_refine.refine_s": (None, "partition.batch_refine"),
    "core.presim.partition_s": (None, "presim.partition"),
    "core.presim.simulate_s": (None, "presim.simulate"),
    "sim.timewarp.load_s": (("sim.timewarp",), "tw.load"),
    "sim.timewarp.run_s": (("sim.timewarp",), "tw.run"),
    "sim.timewarp.verify_s": (("sim.timewarp",), "tw.verify"),
}

#: per-layer metric -> recorder counter (whole traced pass)
COUNTER_METRICS = {
    "core.multiway.fm_passes": "part.fm.passes",
    "core.multiway.fm_moves": "part.fm.moves",
    "core.multiway.lambda_hits": "part.core.lambda_hits",
    "core.multiway.flatten_steps": "part.flatten.steps",
    "core.multilevel.matched_pairs": "part.ml.matched_pairs",
    "core.batch_refine.rounds": "part.batch.rounds",
    "core.batch_refine.moves": "part.batch.moves",
    "core.batch_refine.candidates": "part.batch.candidates",
    "core.batch_refine.gathered": "part.batch.gathered",
}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def _iqr_pct(values: list[float]) -> float:
    q1, q3 = _quartiles(values)
    return 100.0 * (q3 - q1) / statistics.median(values)


def metric_units() -> dict[str, str]:
    from metrics import END_TO_END, PER_LAYER

    return {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def _forget_peak_rss() -> None:
    """Reset VmHWM to the current RSS, so that the host-speed kernel's
    temporaries do not count as the workload's peak.  Where the kernel
    file is missing or read-only the peak simply includes them."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _scaled(seconds: dict, speed: float) -> dict:
    return {key: value * speed for key, value in seconds.items()}


def layer_self_times(rows: list[dict]) -> dict[str, float]:
    """Self time per layer: each span's duration minus what its child
    spans cover, charged to the layer that owns the span."""
    covered: dict[int, float] = {}
    for row in rows:
        if row["parent"] is not None:
            covered[row["parent"]] = (covered.get(row["parent"], 0.0)
                                      + row["t1"] - row["t0"])
    layer_of: dict[int, str] = {}
    out: dict[str, float] = {}
    for row in rows:  # parents precede children (validate_spans)
        name = row["name"]
        if name.startswith("bench"):
            layer = name.removeprefix("bench.")
        elif name in PHASE_LAYER:
            layer = PHASE_LAYER[name]
        else:
            layer = layer_of.get(row["parent"], "bench")
        layer_of[row["sid"]] = layer
        own = row["t1"] - row["t0"] - covered.get(row["sid"], 0.0)
        out[layer] = out.get(layer, 0.0) + max(own, 0.0)
    return out


# -- one workload, in this process ----------------------------------------------


def run_passes(wl, params, inputs, seconds: float, trace: bool,
               min_passes: int, before: list[float]) -> list[dict]:
    """One cold pass, then measured passes until ``seconds`` are used up
    (``min_passes`` at least); traced and plain passes alternate under
    ``trace``.  The host-speed kernel runs after every pass for about
    ``CALIBRATION_SHARE`` of it (``before`` holds its samples from just
    before the first), and each pass's times are scaled by the samples on
    both sides of it; ``raw_wall`` / ``raw_cpu`` / ``host_speed`` keep what
    was measured.  Each pass is reduced to plain numbers before the next."""
    import hostspeed
    from workloads import LayerClock

    from repro.obs import NULL_RECORDER, ResourceSampler, SpanRecorder

    passes: list[dict] = []
    window = time.perf_counter()
    while True:
        if not passes:
            kind = "cold"
        else:
            kind = "traced" if trace and len(passes) % 2 == 1 else "plain"
        recorder = SpanRecorder() if kind == "traced" else NULL_RECORDER
        clock = LayerClock(recorder, probe_rss=(kind == "cold"))
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        with recorder.phase("bench"):
            result = wl.run_pass(params, inputs, clock)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        result.finish()
        peak_rss_kb = ResourceSampler().stop().peak_rss_kb
        spans, phases, counters = [], {}, {}
        if kind == "traced":
            spans = recorder.span_rows()
            phases = {n: s.host_seconds for n, s in recorder.phases.items()}
            counters = dict(recorder.counters)
        facts, checks, digest = result.facts, result.checks, result.digest
        del result, recorder

        after = hostspeed.sample(CALIBRATION_SHARE * wall)
        _forget_peak_rss()
        speed = hostspeed.factor(before + after)
        passes.append({
            "kind": kind, "host_speed": speed, "kernel_samples": len(after),
            "raw_wall": wall, "raw_cpu": cpu,
            "wall": wall * speed, "cpu": cpu * speed,
            "seconds": _scaled(clock.seconds, speed),
            "scoped": _scaled(clock.scoped, speed),
            "phases": _scaled(phases, speed),
            "self": _scaled(layer_self_times(spans), speed),
            "counters": counters, "spans": spans, "peak_rss_kb": peak_rss_kb,
            "rss_growth_kb": clock.rss_growth_kb,
            "facts": facts, "checks": checks, "digest": digest})
        before = after
        elapsed = time.perf_counter() - window
        if len(passes) - 1 >= min_passes and elapsed + 0.5 * wall >= seconds:
            return passes


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run the passes, and derive every metric from them.

    Every time is scaled by the host speed measured beside it
    (``hostspeed.py``).  A timing is the median over the measured passes;
    a layer's times are those of the traced pass with the median wall, so
    they add up to one real pass.  ``raw`` in the returned document keeps
    the unscaled end-to-end values and every pass's factor.
    """
    import hostspeed
    import numpy as np
    from metrics import LAYERS, PER_LAYER
    from workloads import WORKLOADS, LayerClock

    from repro.errors import MetricsError
    from repro.obs import span_depths, validate_spans

    import_s = time.perf_counter() - _T0
    wl = WORKLOADS[name]
    params = wl.smoke if smoke else wl.full

    setup_walls, setup_clocks, kernel = [], [], []
    for _ in range(2 if smoke else SETUP_REPS):
        kernel += hostspeed.sample()
        clock = LayerClock()
        t0 = time.perf_counter()
        inputs = wl.setup(params, seed, clock)
        setup_walls.append(time.perf_counter() - t0)
        setup_clocks.append(clock)
    before = hostspeed.sample()
    setup_speed = hostspeed.factor(kernel + before)

    min_passes = 1 if smoke else MIN_PASSES
    if trace:
        min_passes = max(min_passes, 2)  # one traced and one plain at least
    _forget_peak_rss()
    passes = run_passes(wl, params, inputs, seconds, trace, min_passes, before)

    def middle(of: list[dict]) -> dict:
        return sorted(of, key=lambda p: p["wall"])[(len(of) - 1) // 2]

    cold = passes[0]
    plain = [p for p in passes[1:] if p["kind"] == "plain"]
    traced = [p for p in passes[1:] if p["kind"] == "traced"]
    walls = [p["wall"] for p in plain]
    typical = middle(traced) if traced else None
    spans = typical["spans"] if traced else []

    checks = [c for p in passes for c in p["checks"]]
    checks += [("pass repeats the first pass's result digest",
                p["digest"] == cold["digest"]) for p in passes[1:]]
    if traced:
        try:
            validate_spans(spans)
            checks.append(("traced pass yields a valid span tree", True))
        except MetricsError as exc:
            checks.append((f"traced pass yields a valid span tree ({exc})", False))
        checks.append((
            "layer self times sum to within 5% of the traced pass's wall",
            abs(sum(typical["self"].values()) - typical["wall"])
            <= 0.05 * typical["wall"]))
    failed = [label for label, ok in checks if not ok]

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    facts = {k: v.item() if isinstance(v, np.generic) else v
             for k, v in cold["facts"].items()}
    layer = dict.fromkeys((n for n, *_ in PER_LAYER), 0.0)
    layer.update({k: v for k, v in facts.items() if k in layer})
    for metric in ("circuits.generate_s", "circuits.stream_build_s",
                   "circuits.vectors_s"):
        layer[metric] = setup_speed * statistics.median(
            c.seconds.get(metric, 0.0) for c in setup_clocks)
    layer.update((typical or middle(plain))["seconds"])
    if traced:
        for metric, (scope, phase) in PHASE_METRICS.items():
            layer[metric] = (
                typical["phases"].get(phase, 0.0) if scope is None
                else sum(typical["scoped"].get((s, phase), 0.0) for s in scope))
        for metric, counter in COUNTER_METRICS.items():
            layer[metric] = typical["counters"].get(counter, 0)
        layer["obs.trace_overhead_pct"] = 100.0 * (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(walls) - 1.0)
        layer["obs.spans"] = len(spans)
        layer["obs.span_depth"] = max(span_depths(spans).values())
        for name_ in LAYERS:
            layer[f"{name_}.self_s"] = typical["self"].get(name_, 0.0)
        layer["bench.traced_wall_s"] = typical["wall"]

    # rates: exact counts over the median stage wall of the untraced passes
    def stage_s(*metrics: str, raw: bool = False) -> float:
        return statistics.median(
            sum(p["seconds"].get(m, 0.0) for m in metrics)
            / (p["host_speed"] if raw else 1.0) for p in plain)

    partition = ("hypergraph.build_s", "core.multiway.partition_s",
                 "core.multilevel.partition_s")
    gates = facts.get("circuits.gates", 0)
    committed = facts.get("sim.timewarp.committed_events", 0)
    processed = facts.get("sim.timewarp.processed_events", 0)
    layer.update({
        "gates_per_s": ratio(gates, stage_s(*partition)),
        "events_per_s": ratio(committed, stage_s("sim.timewarp.total_s")),
        "verilog.bytes_per_s": ratio(
            facts.get("verilog.src_bytes", 0),
            stage_s("verilog.parse_s", "verilog.elaborate_s")),
        "hypergraph.bytes_per_pin": ratio(
            cold["rss_growth_kb"].get("hypergraph.build_s", 0.0) * 1024.0,
            facts.get("hypergraph.pins", 0)),
        "core.batch_refine.apply_ratio": ratio(
            layer["core.batch_refine.moves"],
            layer["core.batch_refine.candidates"]),
        "core.presim.point_s": ratio(layer["core.presim.search_s"],
                                     facts.get("core.presim.points", 0)),
        "sim.sequential.evals_per_s": ratio(
            facts.get("sim.sequential.gate_evals", 0),
            stage_s("sim.sequential.run_s")),
        "sim.timewarp.efficiency": ratio(committed, processed),
        "sim.timewarp.processed_per_s": ratio(
            processed, stage_s("sim.timewarp.total_s")),
        "bench.import_s": import_s * setup_speed,
        "bench.cold_wall_s": cold["wall"],
        "bench.passes": len(plain),
        "bench.wall_iqr_pct": _iqr_pct(walls),
        "bench.loadavg_1m": _loadavg(),
        "bench.host_speed": statistics.median(p["host_speed"] for p in plain),
        "bench.host_speed_samples": (len(kernel) + len(before)
                                     + sum(p["kernel_samples"] for p in passes)),
        "bench.checks": len(checks),
        "bench.checks_failed": len(failed),
        "bench.result_digest48": int(cold["digest"][:12], 16),
    })
    raw_setup_s = import_s + statistics.median(setup_walls)
    end_to_end = {
        "setup_s": raw_setup_s * setup_speed,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    # what the same statistics read before scaling
    raw = {
        "setup_s": raw_setup_s,
        "wall_s": statistics.median(p["raw_wall"] for p in plain),
        "cpu_s": statistics.median(p["raw_cpu"] for p in plain),
        "gates_per_s": ratio(gates, stage_s(*partition, raw=True)),
        "events_per_s": ratio(
            committed, stage_s("sim.timewarp.total_s", raw=True)),
        "setup_host_speed": setup_speed,
        "pass_wall_s": [p["raw_wall"] for p in plain],
        "pass_cpu_s": [p["raw_cpu"] for p in plain],
        "pass_host_speed": [p["host_speed"] for p in plain],
        "traced_wall_s": typical["raw_wall"] if traced else 0.0,
    }
    return {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "failed_checks": failed, "digest": cold["digest"],
        "end_to_end": end_to_end, "per_layer": layer, "raw": raw,
        "spans": spans,
    }


def contract_main(args) -> int:
    """The driver's entry: measure, print metrics, print the result line."""
    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    units = metric_units()
    shown = detail["per_layer"] if args.trace else detail["end_to_end"]
    if not args.trace:
        # what the untraced passes already know about the layers
        for name, value in detail["per_layer"].items():
            if value:
                print(f"# {name:40} {value:.6g} {units[name]}")
        for name in ("setup_s", "wall_s", "cpu_s"):
            print(f"# unscaled {name:31} {detail['raw'][name]:.6g} s")
    for name, value in shown.items():
        print(f"{name:42} {value:.6g} {units[name]}")
    for label in detail["failed_checks"]:
        print(f"CHECK FAILED: {label}")
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail) + "\n")
    if args.trace and detail["spans"]:
        write_trace(args.workload, detail["spans"])
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in shown.items()},
    }))
    return 0


def write_trace(workload: str, spans: list[dict]) -> Path:
    from repro.obs import write_chrome_trace

    OUT_DIR.mkdir(exist_ok=True)
    return write_chrome_trace(OUT_DIR / f"trace_{workload}.json",
                              {"name": f"pipeline.{workload}", "spans": spans})


# -- the suite: fresh child per workload, round-robin -------------------------


def host_block() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_1m_start": _loadavg()}


def commit_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One contract run in a fresh single-threaded interpreter."""
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f".detail_{workload}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--detail", str(detail_path)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{proc.stdout}\n{proc.stderr}")
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    return detail


def suite_end_to_end(workload: str, runs: list[dict]) -> dict:
    """The issue's nine end-to-end metrics over one workload's untraced
    runs: median, quartiles and every sample, with the unscaled samples
    beside the scaled times and rates.  A metric is left out where the
    workload has no such stage."""
    from metrics import SUITE_END_TO_END

    units = metric_units()
    out = {}
    for metric, source, *_, where in SUITE_END_TO_END:
        if where is not None and workload not in where:
            continue
        values = [d["end_to_end"][source] if source in d["end_to_end"]
                  else d["per_layer"][source] for d in runs]
        q1, q3 = _quartiles(values)
        out[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                       "samples": values, "unit": units[source]}
        if metric in runs[0]["raw"]:
            out[metric]["raw_samples"] = [d["raw"][metric] for d in runs]
    return out


def run_suite(args) -> dict:
    from metrics import WORKLOADS

    names = [n for n, _ in WORKLOADS]
    rounds = 1 if args.smoke else ROUNDS
    host = host_block()
    plain: dict[str, list[dict]] = {n: [] for n in names}
    for r in range(rounds):
        for n in names:
            print(f"round {r + 1}/{rounds}: {n}", file=sys.stderr, flush=True)
            plain[n].append(child(n, args.seed, args.seconds, 0, args.smoke))
    traced = {}
    for n in names:
        print(f"traced: {n}", file=sys.stderr, flush=True)
        traced[n] = child(n, args.seed, args.seconds, 1, args.smoke)
        write_trace(n, traced[n]["spans"])
    host["loadavg_1m_end"] = _loadavg()

    units = metric_units()
    doc = {"schema": 2, "commit": commit_id(), "seed": args.seed,
           "smoke": args.smoke, "run_seconds": args.seconds, "rounds": rounds,
           "host": host, "workloads": {}}
    worst_iqr = 0.0
    for n in names:
        runs = plain[n] + [traced[n]]
        pass_walls = [w for d in plain[n] for w in d["raw"]["pass_wall_s"]]
        worst_iqr = max(worst_iqr, _iqr_pct(pass_walls))
        doc["workloads"][n] = {
            "end_to_end": suite_end_to_end(n, plain[n]),
            # host speed beside every untraced run's setup and passes
            "runs": [{k: d["raw"][k] for k in (
                "setup_host_speed", "pass_wall_s", "pass_host_speed")}
                for d in plain[n]],
            "per_layer": {m: {"value": v, "unit": units[m]}
                          for m, v in traced[n]["per_layer"].items()},
            "digests": sorted({d["digest"] for d in runs}),
            "attempted": sum(d["attempted"] for d in runs),
            "failed": sum(d["failed"] for d in runs),
            "failed_checks": sorted({c for d in runs for c in d["failed_checks"]}),
            "pass_wall_iqr_pct": _iqr_pct(pass_walls),
        }
    doc["noisy"] = bool(
        max(host["loadavg_1m_start"], host["loadavg_1m_end"]) > host["nproc"]
        or worst_iqr > NOISY_IQR_PCT)
    return doc


def print_suite(doc: dict) -> None:
    print(f"host: {json.dumps(doc['host'])}  noisy: {doc['noisy']}")
    for n, w in doc["workloads"].items():
        print(f"\n== {n}  checks {w['attempted'] - w['failed']}/{w['attempted']}"
              f"  digest {w['digests'][0][:16]}")
        for m, v in w["end_to_end"].items():
            line = (f"{m:42} {v['median']:.6g} {v['unit']}  "
                    f"[q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={len(v['samples'])}]")
            if "raw_samples" in v:
                line += f"  raw {statistics.median(v['raw_samples']):.6g}"
            print(line)
        for m, v in w["per_layer"].items():
            print(f"{m:42} {v['value']:.6g} {v['unit']}")
        for label in w["failed_checks"]:
            print(f"CHECK FAILED: {label}")


def suite_main(args) -> int:
    doc = run_suite(args)
    print_suite(doc)
    OUT_DIR.mkdir(exist_ok=True)
    latest = OUT_DIR / ("smoke.json" if args.smoke else "latest.json")
    latest.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {latest.relative_to(REPO)}")
    if args.record:
        # per metric the scaled median and, for a time or rate, the
        # median of what the runs read before scaling
        row = {"commit": doc["commit"], "seed": doc["seed"],
               "run_seconds": doc["run_seconds"], "rounds": doc["rounds"],
               "noisy": doc["noisy"], "host": doc["host"],
               "workloads": {
                   n: {m: ({"scaled": v["median"],
                            "raw": statistics.median(v["raw_samples"])}
                           if "raw_samples" in v else v["median"])
                       for m, v in w["end_to_end"].items()}
                   for n, w in doc["workloads"].items()}}
        with HISTORY.open("a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended {HISTORY.relative_to(REPO)}")
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


def determinism_main(args) -> int:
    """Each workload twice, fresh processes, same seed: identical or fail."""
    from metrics import WORKLOADS

    bad = 0
    for n, _ in WORKLOADS:
        a, b = (child(n, args.seed, 0, 0, args.smoke) for _ in range(2))
        same = all(a[k] == b[k] for k in ("digest", "attempted", "failed")) and all(
            a["per_layer"][m] == b["per_layer"][m]
            for m in ("cut", "modeled_speedup"))
        print(f"{n:20} {'identical' if same else 'DIFFERS'}  "
              f"digest {a['digest'][:16]}  cut {a['per_layer']['cut']:.0f}  "
              f"modeled_speedup {a['per_layer']['modeled_speedup']:.9f}")
        bad += not same
    return 1 if bad else 0


def compare_main(path_a: str, path_b: str) -> int:
    """Two suite documents: per workload x end-to-end metric, both
    medians, the difference and the issue's bound; exit 1 when any
    differs by more than its bound (exact metrics and digests: at all),
    2 when the documents were not measured the same way."""
    from metrics import SUITE_END_TO_END

    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("schema", "seed", "smoke", "run_seconds", "rounds"):
        if a.get(key) != b.get(key):
            print(f"not comparable: {key} is {a.get(key)!r} in A and "
                  f"{b.get(key)!r} in B")
            return 2
    bad = 0
    print(f"{'workload':18} {'metric':16} {'A':>12} {'B':>12} {'diff':>9} {'bound':>8}")
    for n, wa in a["workloads"].items():
        wb = b["workloads"][n]
        for metric, _, better, kind, bound, _ in SUITE_END_TO_END:
            ea, eb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ea is None and eb is None:
                continue  # a stage this workload does not have
            if ea is None or eb is None:
                print(f"{n:18} {metric:16} reported by one document only")
                bad += 1
                continue
            va, vb = ea["median"], eb["median"]
            if kind == "abs":
                outside = abs(vb - va) > bound
                diff, limit = f"{vb - va:+.3f} s", f"{bound:.2f} s"
            elif kind == "rel":
                outside = abs(vb - va) > bound * va
                diff, limit = f"{(vb - va) / va:+.1%}", f"{bound:.0%}"
            else:
                outside = va != vb
                diff, limit = f"{vb - va:+.3g}", "exact"
            verdict = ""
            if outside:
                worse = (vb > va) == (better == "lower")
                verdict = "  B WORSE" if worse else "  B BETTER"
                bad += 1
            print(f"{n:18} {metric:16} {va:12.6g} {vb:12.6g} {diff:>9} "
                  f"{limit:>8}{verdict}")
        if wa["digests"] != wb["digests"]:
            print(f"{n:18} {'result digest':16} {wa['digests'][0]:>12.12} "
                  f"{wb['digests'][0]:>12.12}  NOT IDENTICAL")
            bad += 1
    print("agree within bounds" if not bad else f"{bad} outside bounds")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="test-size circuits, one measured pass")
    parser.add_argument("--record", action="store_true",
                        help="suite: append the medians to HISTORY.jsonl")
    parser.add_argument("--verify-determinism", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.compare:
        return compare_main(*args.compare)

    if not (REPO / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {REPO}: the benchmark measures the "
              f"repository it is checked out in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    # one thread, serial refinement: host time must not depend on the
    # caller's environment
    os.environ.pop("REPRO_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from metrics import RUN_SECONDS

    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(RUN_SECONDS)

    if args.workload:
        return contract_main(args)
    if args.verify_determinism:
        return determinism_main(args)
    return suite_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
