"""The pipeline benchmark's own checks: the smoke suite runs, every
declared metric and workload shows up, ``BENCHMARK.json`` matches the
declaration table and the driver's limits, and the traced pass yields a
valid span tree whose layer self times account for the pass.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/pipeline/test_pipeline_bench.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RUN = str(HERE / "run.py")
sys.path[:0] = [str(HERE), str(REPO / "src")]

import metrics  # noqa: E402
from run import layer_self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [n for n, _ in metrics.WORKLOADS]
E2E_NAMES = [n for n, *_ in metrics.END_TO_END]
LAYER_NAMES = [n for n, *_ in metrics.PER_LAYER]


def run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, check=False)


@pytest.fixture(scope="module")
def smoke() -> tuple[dict, str]:
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((HERE / "out" / "smoke.json").read_text()), proc.stdout


def test_manifest_is_the_declaration_table():
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def test_manifest_within_driver_limits():
    m = metrics.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert m["paths"] == ["benchmarks/pipeline"]
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert 1 <= m["run_seconds"] <= 60
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer")
             for e in m[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert 0 < e["bound"] <= 0.25
    for e in m["end_to_end"] + m["per_layer"]:
        assert UNIT.fullmatch(e["unit"]) and e["better"] in ("lower", "higher")
    setup = next(e for e in m["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])
    # 4 + 22 runs per workload, each run_seconds plus set-up and a pass of
    # overshoot, must end inside the driver's 3420 s
    assert (4 + 22 * len(m["workloads"])) * (m["run_seconds"] + 8) <= 3420
    assert len(json.dumps(m)) <= 64 * 1024


def test_every_layer_metric_names_what_it_should_move():
    user_visible = E2E_NAMES + ["gates_per_s", "events_per_s"]
    for name, _, _, moves in metrics.PER_LAYER:
        if moves.startswith("none: "):
            continue
        assert any(m in moves for m in user_visible), (name, moves)
        assert ("every workload" in moves
                or any(w in moves for w in WORKLOAD_NAMES)), (name, moves)


def test_smoke_reports_every_declared_metric(smoke):
    doc, stdout = smoke
    assert list(doc["workloads"]) == WORKLOAD_NAMES
    assert {"nproc", "cpu_model", "python", "numpy", "loadavg_1m_start",
            "loadavg_1m_end"} <= set(doc["host"])
    assert isinstance(doc["noisy"], bool)
    for name, w in doc["workloads"].items():
        rate = "gates_per_s" if name in ("ladder_100k", "hier_93k") else "events_per_s"
        exact = ["cut", "checks_failed"]
        if rate == "events_per_s":
            exact.insert(1, "modeled_speedup")
        assert list(w["end_to_end"]) == E2E_NAMES + [rate] + exact
        assert list(w["per_layer"]) == LAYER_NAMES
        for metric in E2E_NAMES + [rate]:
            assert w["end_to_end"][metric]["median"] > 0, (name, metric)
        for metric in ("setup_s", "wall_s", "cpu_s", rate):
            assert len(w["end_to_end"][metric]["raw_samples"]) == doc["rounds"]
        assert all(len(r["pass_wall_s"]) == len(r["pass_host_speed"]) >= 1
                   and r["setup_host_speed"] > 0 for r in w["runs"])
        layer = {m: v["value"] for m, v in w["per_layer"].items()}
        assert sum(v for m, v in layer.items() if m.endswith(".self_s")) == pytest.approx(
            layer["bench.traced_wall_s"], rel=0.05)
        assert w["failed"] == 0 and w["attempted"] >= 4, w["failed_checks"]
        assert len(w["digests"]) == 1, "plain and traced runs must agree"
        assert "obs.trace_overhead_pct" in w["per_layer"]
    for metric in E2E_NAMES + LAYER_NAMES:
        assert re.search(rf"^{re.escape(metric)}\s", stdout, re.M), metric


def test_each_workload_enters_its_own_layers(smoke):
    doc, _ = smoke
    used = {
        name: {m.rsplit(".", 1)[0] for m, v in w["per_layer"].items()
               if m.endswith(".self_s") and v["value"] > 0}
        for name, w in doc["workloads"].items()
    }
    assert {"core.multilevel", "core.batch_refine"} <= used["ladder_100k"]
    assert not used["ladder_100k"] & {"verilog", "sim.timewarp", "core.multiway"}
    assert {"verilog", "core.multiway", "sim.compiled"} <= used["hier_93k"]
    assert not used["hier_93k"] & {"sim.timewarp", "core.batch_refine"}
    assert "core.presim" in used["viterbi_flow"]
    for sim in ("viterbi_flow", "sim_forward_noc", "sim_rollback_cpu"):
        assert {"sim.timewarp", "sim.sequential"} <= used[sim]


def test_contract_line_and_span_tree(tmp_path):
    from repro.obs import validate_spans

    detail_path = tmp_path / "detail.json"
    for trace, declared in ((0, E2E_NAMES), (1, LAYER_NAMES)):
        proc = run("--workload", "viterbi_flow", "--seed", "3", "--seconds", "0",
                   "--smoke", "--trace", str(trace), "--detail", str(detail_path))
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == declared
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())

    detail = json.loads(detail_path.read_text())
    spans = validate_spans(detail["spans"])
    root = spans[0]
    assert root["name"] == "bench" and root["parent"] is None
    layer_spans = [s for s in spans if s["name"].startswith("bench.")]
    assert layer_spans and all(s["parent"] == root["sid"] for s in layer_spans)
    by_name = {s["name"] for s in spans}
    assert {"presim.point", "presim.partition", "presim.simulate", "tw.run",
            "seq.run"} <= by_name
    own = layer_self_times(spans)
    assert sum(own.values()) == pytest.approx(
        detail["raw"]["traced_wall_s"], rel=0.05)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    dest = tmp_path / "benchmarks" / "pipeline"
    dest.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, dest)
    proc = subprocess.run(
        [sys.executable, str(dest / "run.py"), "--workload", "ladder_100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_holds_suite_documents_to_the_issues_bounds(smoke, tmp_path):
    doc, _ = smoke
    same = HERE / "out" / "smoke.json"
    assert run("--compare", str(same), str(same)).returncode == 0

    def compare_with(edit) -> subprocess.CompletedProcess:
        other = json.loads(json.dumps(doc))
        edit(other)
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other))
        return run("--compare", str(same), str(path))

    def slower(other):
        other["workloads"]["hier_93k"]["end_to_end"]["wall_s"]["median"] *= 1.15
        other["workloads"]["ladder_100k"]["end_to_end"]["gates_per_s"]["median"] *= 1.15
        other["workloads"]["sim_forward_noc"]["end_to_end"]["setup_s"]["median"] += 0.2
        other["workloads"]["ladder_100k"]["end_to_end"]["cut"]["median"] += 1
        other["workloads"]["sim_rollback_cpu"]["digests"] = ["0" * 64]

    proc = compare_with(slower)
    assert proc.returncode == 1
    flagged = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()
               if "WORSE" in line or "BETTER" in line or "NOT IDENTICAL" in line}
    assert flagged == {("hier_93k", "wall_s"), ("ladder_100k", "gates_per_s"),
                       ("sim_forward_noc", "setup_s"), ("ladder_100k", "cut"),
                       ("sim_rollback_cpu", "result")}

    def within(other):
        other["workloads"]["hier_93k"]["end_to_end"]["wall_s"]["median"] *= 1.08
        other["workloads"]["sim_forward_noc"]["end_to_end"]["setup_s"]["median"] += 0.08

    assert compare_with(within).returncode == 0

    def other_seed(other):
        other["seed"] += 1

    proc = compare_with(other_seed)
    assert proc.returncode == 2 and "not comparable" in proc.stdout
