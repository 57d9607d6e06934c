"""CLI smoke and behaviour tests (in-process via main())."""

import io

import pytest

from repro.cli import main
from tests.conftest import PIPEADD_SRC


@pytest.fixture()
def vfile(tmp_path):
    p = tmp_path / "design.v"
    p.write_text(PIPEADD_SRC)
    return p


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestBasics:
    def test_circuits_lists_registry(self):
        code, text = run("circuits")
        assert code == 0
        assert "viterbi-bench" in text
        assert "gates" in text

    def test_generate(self):
        code, text = run("generate", "adder8")
        assert code == 0
        assert "module" in text and "endmodule" in text

    def test_generate_unknown(self, capsys):
        code, _ = run("generate", "nope")
        assert code == 1

    def test_info(self, vfile):
        code, text = run("info", str(vfile))
        assert code == 0
        assert "gates      : 34" in text
        assert "flip-flops : 14" in text

    def test_info_tree(self, vfile):
        code, text = run("info", str(vfile), "--tree")
        assert code == 0
        assert "[fa]" in text

    def test_missing_file(self):
        code, _ = run("info", "/does/not/exist.v")
        assert code == 1


class TestPartitionCommand:
    def test_design_driven(self, vfile):
        code, text = run("partition", str(vfile), "-k", "2", "-b", "10")
        assert code == 0
        assert "design-driven" in text
        assert "cut size" in text

    def test_multilevel(self, vfile):
        code, text = run("partition", str(vfile), "--algorithm", "multilevel")
        assert code == 0
        assert "multilevel" in text

    @pytest.mark.parametrize("refiner", ["fm", "batch"])
    def test_multilevel_names_the_refiner_that_ran(self, vfile, refiner):
        code, text = run("partition", str(vfile), "--algorithm",
                         "multilevel", "--refiner", refiner)
        assert code == 0
        assert (f"algorithm : multilevel (coarsen + k-way uncoarsening, "
                f"refiner={refiner})\n") in text

    def test_random(self, vfile):
        code, text = run("partition", str(vfile), "--algorithm", "random")
        assert code == 0

    def test_assignment_file(self, vfile, tmp_path):
        out_file = tmp_path / "assign.txt"
        code, _ = run(
            "partition", str(vfile), "-k", "2",
            "--assignment-out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 34
        assert all(line.rsplit(" ", 1)[1] in ("0", "1") for line in lines)


class TestOptimizeCommand:
    def test_optimize_reports_and_writes(self, vfile, tmp_path):
        out_v = tmp_path / "opt.v"
        code, text = run("optimize", str(vfile), "-o", str(out_v))
        assert code == 0
        assert "gates" in text
        assert out_v.exists()
        # the optimized output recompiles
        from repro.verilog import compile_verilog

        assert compile_verilog(out_v.read_text()).num_gates >= 0


class TestSimulateCommands:
    def test_sequential(self, vfile):
        code, text = run("simulate", str(vfile), "--vectors", "10")
        assert code == 0
        assert "gate events" in text

    def test_psim(self, vfile):
        code, text = run("psim", str(vfile), "-k", "2", "--vectors", "10")
        assert code == 0
        assert "speedup" in text
        assert "verified        : True" in text

    def test_psim_aggressive(self, vfile):
        code, text = run(
            "psim", str(vfile), "-k", "2", "--vectors", "10", "--aggressive"
        )
        assert code == 0
        assert "verified        : True" in text

    def test_search_brute(self, vfile):
        code, text = run(
            "search", str(vfile), "--max-k", "2", "--vectors", "8"
        )
        assert code == 0
        assert "best: k=" in text

    def test_sweep(self, vfile):
        code, text = run(
            "sweep", str(vfile), "--ks", "2", "--bs", "10", "--vectors", "8"
        )
        assert code == 0
        assert "best: k=2" in text

    def test_search_heuristic(self, vfile):
        code, text = run(
            "search", str(vfile), "--max-k", "3", "--vectors", "8", "--heuristic"
        )
        assert code == 0
        assert "best: k=" in text

    def test_search_presim_workers_identical_output(self, vfile):
        # the parallel sweep is a wall-time knob only: the chosen best
        # (k, b) and every per-point stat line must match the serial run
        base = ("search", str(vfile), "--max-k", "2", "--vectors", "8")
        code_s, text_s = run(*base)
        code_p, text_p = run(*base, "--presim-workers", "2")
        assert code_s == code_p == 0
        assert "best: k=" in text_s
        assert text_p == text_s


class TestSweepIsBruteForcePresim:
    """``sweep`` and brute-force ``search`` are two views of one
    ``brute_force_presim`` study."""

    GRID = ("--vectors", "8", "--seed", "1")

    def test_same_values_as_search(self, vfile):
        import re

        code_w, sweep = run("sweep", str(vfile), "--ks", "2,3", *self.GRID)
        code_s, search = run("search", str(vfile), "--max-k", "3", *self.GRID)
        assert code_w == code_s == 0
        table = [line.split() for line in sweep.splitlines()
                 if re.match(r"\d", line)]
        # k, b, cut, time, speedup of every point, in grid order
        assert [(k, float(b), cut, t, sp)
                for k, b, cut, _, t, sp, _, _ in table] == [
            (k, float(b), cut, t, sp) for k, b, cut, t, sp in re.findall(
                r"k=(\d+) b=(\S+) +cut=(\d+) +time=(\S+)s speedup=(\S+)",
                search)]
        assert len(table) == 2 * 6

    def test_documents_share_rows(self, vfile, tmp_path):
        from repro.obs import read_metrics

        sweep, search = tmp_path / "sweep.json", tmp_path / "search.json"
        run("sweep", str(vfile), "--ks", "2", "--bs", "7.5,10", *self.GRID,
            "--metrics-out", str(sweep))
        run("search", str(vfile), "--max-k", "2", *self.GRID,
            "--metrics", str(search))
        doc = read_metrics(sweep)  # validates against schema v1
        assert doc["kind"] == "sweep" and doc["name"] == "sweep"
        assert doc["counters"]["bench.rows"] == len(doc["rows"]) == 2
        assert {"k", "b", "cut_size", "balanced", "sim_time", "speedup",
                "messages", "rollbacks"} == set(doc["rows"][0])
        names = {span["name"] for span in doc["spans"]}
        assert "presim.point" in names and "sweep.cell" not in names
        assert sum(s["name"] == "presim.point" for s in doc["spans"]) == 2
        # msgs / rollbacks too: same row dicts for the shared points
        rows = {(r["k"], r["b"]): r for r in read_metrics(search)["rows"]}
        assert all(rows[r["k"], r["b"]] == r for r in doc["rows"])

    def test_workers_do_not_change_stdout(self, vfile):
        base = ("sweep", str(vfile), "--ks", "2,3", "--bs", "7.5,15",
                *self.GRID)
        code_1, text_1 = run(*base, "--workers", "1")
        code_2, text_2 = run(*base, "--workers", "2")
        assert code_1 == code_2 == 0
        assert text_2 == text_1


class TestCircuitSpellings:
    """``circuit:NAME`` / ``stream:NAME`` go through the one loader."""

    def test_sweep_accepts_circuit_spelling(self):
        code, text = run("sweep", "circuit:viterbi-test", "--ks", "2",
                         "--bs", "10", "--vectors", "6")
        assert code == 0
        assert "(k, b) sweep: circuit:viterbi-test (6 vectors)" in text

    @pytest.mark.parametrize("argv", [
        ("info", "--tree", "--stats"),
        ("psim", "-k", "2", "--vectors", "6"),
        ("search", "--max-k", "2", "--vectors", "4"),
        ("simulate", "--vectors", "4"),
    ], ids=["info", "psim", "search", "simulate"])
    def test_stream_circuit_prints_like_its_text_twin(self, argv):
        """``stream:NAME`` carries the text path's hierarchy and names,
        so every verb prints what ``circuit:NAME`` prints."""
        verb, *rest = argv
        code, text = run(verb, "circuit:noc-test", *rest)
        assert code == 0
        assert run(verb, "stream:noc-test", *rest) == (0, text)

    def test_stream_circuit_design_partition_file_matches(self, tmp_path):
        outs = {}
        for spelling in ("circuit", "stream"):
            path = tmp_path / f"{spelling}.json"
            code, text = run("partition", f"{spelling}:noc-test", "-k", "3",
                             "--algorithm", "design", "--save", str(path))
            assert code == 0
            outs[spelling] = (text.replace(str(path), "<saved>"),
                              path.read_bytes())
        assert outs["circuit"] == outs["stream"]


class TestObsCommands:
    @pytest.fixture()
    def run_artifacts(self, vfile, tmp_path):
        """One fixed-seed psim run with metrics + trace dumped."""
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        code, text = run(
            "psim", str(vfile), "-k", "2", "--vectors", "10",
            "--metrics", str(metrics), "--trace", str(trace),
        )
        assert code == 0 and "verified        : True" in text
        return metrics, trace

    def test_psim_progress_keeps_results(self, vfile):
        code, text = run(
            "psim", str(vfile), "-k", "2", "--vectors", "10", "--progress"
        )
        assert code == 0
        assert "verified        : True" in text

    def test_report_byte_identical_across_invocations(
        self, vfile, run_artifacts, tmp_path
    ):
        metrics, trace = run_artifacts
        # a second independent run of the same fixed-seed experiment
        metrics2 = tmp_path / "m2.json"
        trace2 = tmp_path / "t2.jsonl"
        code, _ = run(
            "psim", str(vfile), "-k", "2", "--vectors", "10",
            "--metrics", str(metrics2), "--trace", str(trace2),
        )
        assert code == 0
        code_a, report_a = run("obs", "report", str(trace), str(metrics))
        code_b, report_b = run("obs", "report", str(trace2), str(metrics2))
        assert code_a == code_b == 0
        assert report_a == report_b
        assert "# Run report: psim" in report_a
        assert "## GVT progress" in report_a

    def test_hotspots(self, run_artifacts):
        _, trace = run_artifacts
        code, text = run("obs", "hotspots", str(trace), "--top", "3")
        assert code == 0
        assert "rollbacks" in text or "no rollbacks in trace" in text

    def test_diff_identical_exits_zero(self, run_artifacts):
        metrics, _ = run_artifacts
        code, text = run("obs", "diff", str(metrics), str(metrics),
                         "--fail-on-regression")
        assert code == 0
        assert "no deltas" in text

    def _doctor(self, metrics, tmp_path, name, factor):
        import json

        doc = json.loads(metrics.read_text())
        old = doc["counters"].get(name, 0)
        doc["counters"][name] = old * factor if old else 5
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        return doctored

    def test_diff_doctored_regression_fails(self, run_artifacts, tmp_path):
        metrics, _ = run_artifacts
        doctored = self._doctor(metrics, tmp_path, "tw.rollbacks", 1.25)
        code, text = run("obs", "diff", str(metrics), str(doctored),
                         "--fail-on-regression")
        assert code == 1
        assert "REGRESSED" in text
        # without the gate flag the diff reports but exits 0
        code, _ = run("obs", "diff", str(metrics), str(doctored))
        assert code == 0

    def test_diff_threshold_override(self, run_artifacts, tmp_path):
        metrics, _ = run_artifacts
        doctored = self._doctor(metrics, tmp_path, "tw.rollbacks", 1.25)
        code, _ = run("obs", "diff", str(metrics), str(doctored),
                      "--threshold", "tw.rollbacks=10.0",
                      "--fail-on-regression")
        assert code == 0

    def test_diff_json_verdict(self, run_artifacts, tmp_path):
        import json

        metrics, _ = run_artifacts
        doctored = self._doctor(metrics, tmp_path, "tw.rollbacks", 1.25)
        code, text = run("obs", "diff", str(metrics), str(doctored), "--json")
        assert code == 0
        verdict = json.loads(text)
        assert verdict["ok"] is False
        assert "tw.rollbacks" in verdict["regressions"]

    def test_diff_malformed_threshold_errors(self, run_artifacts):
        metrics, _ = run_artifacts
        code, _ = run("obs", "diff", str(metrics), str(metrics),
                      "--threshold", "nonsense")
        assert code == 1
