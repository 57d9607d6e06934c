"""Benchmark harness: formatting and miniature experiment runs."""

import pytest

from repro.bench import (
    ExperimentConfig,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    fig6_fig7_messages_rollbacks,
    format_kv,
    format_series,
    format_table,
    heuristic_vs_brute_force,
    shape_checks_cutsize,
    shape_checks_speedup,
    table1_cutsize_design,
    table2_cutsize_multilevel,
    table3_presim,
    table5_full_sim,
)


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(["k", "b", "cut"], [[2, 2.5, 2428], [2, 15.0, 513]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "cut" in lines[0]
        assert "2428" in lines[2]

    def test_table_title(self):
        out = format_table(["x"], [[1]], title="Table 1")
        assert out.startswith("Table 1")

    def test_series(self):
        out = format_series("machines", [2, 3, 4], {"b=2.5": [10, 20, 30]})
        assert "b=2.5" in out
        assert "30" in out

    def test_kv(self):
        out = format_kv({"speedup": 1.96, "cut": 513})
        assert "1.96" in out and "513" in out


TINY = ExperimentConfig(
    circuit="viterbi-test", ks=(2, 3), bs=(7.5, 15.0),
    presim_vectors=8, full_vectors=16, seed=1,
)


class TestExperiments:
    def test_table1_rows(self):
        rows = table1_cutsize_design(TINY)
        assert len(rows) == 4
        assert all(r.cut >= 0 for r in rows)

    def test_table2_rows(self):
        rows = table2_cutsize_multilevel(TINY)
        assert len(rows) == 4

    def test_design_competitive_and_far_cheaper_at_scale(self):
        """A strong multilevel baseline can tie the hierarchy-aware cut
        at laptop scale; the robust advantages are (a) never being
        meaningfully worse and (b) partitioning a ~40-vertex hypergraph
        instead of a ~4000-vertex one, orders of magnitude faster."""
        import time

        cfg = ExperimentConfig(circuit="viterbi-bench", ks=(2,), bs=(10.0,), seed=1)
        t0 = time.perf_counter()
        d = table1_cutsize_design(cfg)[0].cut
        t_design = time.perf_counter() - t0
        t0 = time.perf_counter()
        m = table2_cutsize_multilevel(cfg)[0].cut
        t_multilevel = time.perf_counter() - t0
        assert d <= 1.2 * m
        assert t_design < t_multilevel

    def test_table3_through_5_pipeline(self):
        study = table3_presim(TINY)
        assert study.runs == 4
        best = study.best_per_k()
        assert set(best) == {2, 3}
        rows, seq_wall = table5_full_sim(TINY, study)
        assert len(rows) == 2
        assert seq_wall > 0
        msgs, rbs, ks = fig6_fig7_messages_rollbacks(study)
        assert ks == [2, 3]
        assert set(msgs) == {7.5, 15.0}

    def test_heuristic_comparison(self):
        comp = heuristic_vs_brute_force(TINY)
        assert comp.heuristic.runs >= 1
        assert comp.brute.runs == 4


class TestShapeChecks:
    def test_paper_data_passes_cut_checks(self):
        checks = shape_checks_cutsize(PAPER_TABLE1, PAPER_TABLE2)
        assert all(c.passed for c in checks), [str(c) for c in checks]

    def test_paper_data_passes_speedup_checks(self):
        speedups = {kb: s for kb, (_, s) in PAPER_TABLE3.items()}
        checks = shape_checks_speedup(speedups)
        assert all(c.passed for c in checks), [str(c) for c in checks]

    def test_failing_shape_detected(self):
        bad = dict(PAPER_TABLE1)
        worst = dict(PAPER_TABLE2)
        # invert the relationship
        bad, worst = worst, bad
        checks = shape_checks_cutsize(bad, worst)
        assert not all(c.passed for c in checks)
