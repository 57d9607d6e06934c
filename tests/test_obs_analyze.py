"""Trace analyzers, run reports and the regression gate.

The synthetic traces here are hand-built against the kernel's trace
contract (the cascade-ownership invariant documented in
``repro.obs.analyze``): anti-messages a rollback injects occupy the
``send`` sequence numbers immediately before the rollback's own event.
The known answers (cascade depth/width/culprit, stall windows, the 2x2
locality matrix) are therefore exact, not fuzzy.
"""

from __future__ import annotations

import pytest

from repro.circuits import random_vectors
from repro.core import design_driven_partition
from repro.errors import TraceError
from repro.hypergraph import Clustering
from repro.obs import (
    DEFAULT_THRESHOLDS,
    GVT_DONE,
    HIGHER_IS_BETTER,
    NEUTRAL_METRICS,
    TRACE_EVENT_KINDS,
    TRACE_FIELD_REGISTRY,
    ProgressHeartbeat,
    TraceBuffer,
    analyze_run,
    diff_metrics,
    dumps_metrics,
    gate_directories,
    gvt_progress,
    is_registered,
    message_locality,
    metrics_document,
    parse_trace,
    reconstruct_cascades,
    rollback_hotspots,
    strip_volatile,
    write_metrics,
)
from repro.obs.report import _SUMMARY_COUNTERS
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    run_partitioned,
)


def ev(seq, kind, **fields):
    return {"seq": seq, "kind": kind, **fields}


def send(seq, src, dst, *, uid, sign=1, src_part=None, dst_part=None):
    return ev(seq, "send", src_machine=src, dst_machine=dst,
              src_lp=src, dst_lp=dst,
              src_partition=src if src_part is None else src_part,
              dst_partition=dst if dst_part is None else dst_part,
              net=0, recv_time=10, sign=sign, uid=uid,
              local=int(src == dst), wall=0.0)


def rollback(seq, lp, *, src, uid, sign, antis=0, undone=1, depth=1,
             part=None, src_part=None):
    return ev(seq, "rollback", machine=lp, lp=lp,
              partition=lp if part is None else part,
              straggler_vt=10, straggler_src=src,
              src_partition=src if src_part is None else src_part,
              straggler_uid=uid, sign=sign, restored_to=5,
              undone=undone, antis=antis, depth=depth, wall=0.0)


# A straggler from LP0 rolls back LP1; LP1's anti-message rolls back
# LP2 — the canonical 3-LP cascade of depth 2.
CASCADE_3LP = [
    send(0, 0, 1, uid=7),                       # the straggler itself
    send(1, 1, 2, uid=3, sign=-1),              # anti injected by seq-2 rollback
    rollback(2, 1, src=0, uid=7, sign=1, antis=1, undone=4, depth=2),
    rollback(3, 2, src=1, uid=3, sign=-1, undone=2),
]


# ---------------------------------------------------------------------------
# Parsing


class TestParseTrace:
    def test_roundtrip_through_tracebuffer(self):
        buf = TraceBuffer()
        buf.emit("exec", lp=0, vt=5)
        buf.emit("gvt", round=1, gvt=3)
        events = parse_trace(buf.to_jsonl())
        assert [e["kind"] for e in events] == ["exec", "gvt"]
        assert events[0]["lp"] == 0 and events[1]["gvt"] == 3

    def test_blank_lines_skipped(self):
        assert parse_trace("\n\n") == []

    @pytest.mark.parametrize("text, match", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "expected an object"),
        ('{"kind": "mystery", "seq": 0}', "unknown event kind"),
        ('{"kind": "exec"}', "missing integer 'seq'"),
    ])
    def test_rejects_malformed(self, text, match):
        with pytest.raises(TraceError, match=match):
            parse_trace(text)


# ---------------------------------------------------------------------------
# Hotspots


class TestHotspots:
    def test_ranking_and_share(self):
        events = [
            rollback(0, 5, src=1, uid=1, sign=1, undone=3, depth=4, part=2),
            rollback(1, 5, src=1, uid=2, sign=1, undone=2, depth=1, part=2),
            rollback(2, 8, src=1, uid=3, sign=1, undone=9, depth=2, part=0),
        ]
        hs = rollback_hotspots(events)
        assert [h.lp for h in hs] == [5, 8]
        top = hs[0]
        assert (top.partition, top.rollbacks, top.undone, top.antis,
                top.max_depth) == (2, 2, 5, 0, 4)
        assert top.share == pytest.approx(2 / 3)
        assert hs[1].share == pytest.approx(1 / 3)

    def test_ties_break_by_undone_then_lp(self):
        events = [
            rollback(0, 9, src=1, uid=1, sign=1, undone=1),
            rollback(1, 4, src=1, uid=2, sign=1, undone=5),
            rollback(2, 2, src=1, uid=3, sign=1, undone=1),
        ]
        assert [h.lp for h in rollback_hotspots(events)] == [4, 2, 9]

    def test_top_limits(self):
        events = [rollback(i, i, src=0, uid=i, sign=1) for i in range(5)]
        assert len(rollback_hotspots(events, top=2)) == 2

    def test_empty_trace(self):
        assert rollback_hotspots([]) == []


# ---------------------------------------------------------------------------
# Cascade reconstruction (the ISSUE's exactness criterion)


class TestCascades:
    def test_3lp_depth2_exact(self):
        (cascade,) = reconstruct_cascades(CASCADE_3LP)
        assert cascade.root_seq == 2
        assert cascade.culprit_lp == 0
        assert cascade.culprit_partition == 0
        assert cascade.depth == 2
        assert cascade.width == 1
        assert cascade.size == 2
        assert cascade.lps == (1, 2)
        assert cascade.rollback_seqs == (2, 3)

    def test_width_two_fanout(self):
        # one rollback at LP1 injects antis to LP2 AND LP3; both victims
        # roll back -> depth 2, width 2, size 3
        events = [
            send(0, 0, 1, uid=7),
            send(1, 1, 2, uid=3, sign=-1),
            send(2, 1, 3, uid=4, sign=-1),
            rollback(3, 1, src=0, uid=7, sign=1, antis=2),
            rollback(4, 2, src=1, uid=3, sign=-1),
            rollback(5, 3, src=1, uid=4, sign=-1),
        ]
        (cascade,) = reconstruct_cascades(events)
        assert (cascade.depth, cascade.width, cascade.size) == (2, 2, 3)
        assert cascade.lps == (1, 2, 3)
        assert cascade.culprit_lp == 0

    def test_lazy_flushed_anti_starts_new_cascade(self):
        # an anti with no owning rollback (lazy cancellation's deferred
        # flush) cannot link its victim to a parent
        events = [
            send(0, 1, 2, uid=3, sign=-1),      # ownerless anti
            rollback(1, 2, src=1, uid=3, sign=-1),
        ]
        (cascade,) = reconstruct_cascades(events)
        assert cascade.root_seq == 1
        assert (cascade.depth, cascade.size) == (1, 1)

    def test_independent_stragglers_are_separate_roots(self):
        events = [
            rollback(0, 1, src=0, uid=1, sign=1),
            rollback(1, 2, src=0, uid=2, sign=1),
        ]
        cascades = reconstruct_cascades(events)
        assert len(cascades) == 2
        assert all(c.size == 1 for c in cascades)

    def test_sorted_by_size_then_root_seq(self):
        events = CASCADE_3LP + [rollback(10, 4, src=0, uid=9, sign=1)]
        cascades = reconstruct_cascades(events)
        assert [c.size for c in cascades] == [2, 1]

    def test_empty(self):
        assert reconstruct_cascades([]) == []


# ---------------------------------------------------------------------------
# Message locality


class TestLocality:
    def _events(self):
        return [
            send(0, 0, 0, uid=1),
            send(1, 0, 0, uid=2),
            send(2, 0, 0, uid=3),
            send(3, 0, 1, uid=4),
            send(4, 1, 1, uid=5),
            send(5, 1, 1, uid=6),
            send(6, -1, 0, uid=7),              # environment: excluded
            send(7, 1, 0, uid=8, sign=-1),      # anti: counted separately
        ]

    def test_2x2_matrix_exact(self):
        loc = message_locality(self._events())
        assert loc.k == 2
        assert loc.counts == ((3, 1), (0, 2))
        assert loc.total_messages == 6
        assert loc.local_messages == 5
        assert loc.remote_messages == 1
        assert loc.local_fraction == pytest.approx(5 / 6)
        assert loc.anti_messages == 1

    def test_empty(self):
        loc = message_locality([])
        assert loc.k == 0 and loc.local_fraction == 1.0


# ---------------------------------------------------------------------------
# GVT progress


class TestGvtProgress:
    def test_stall_windows_and_rate(self):
        gvts = [10, 10, 10, 20, 30, 30]
        events = [ev(i, "gvt", round=i + 1, gvt=g)
                  for i, g in enumerate(gvts)]
        events.append(ev(6, "gvt", round=7, gvt=GVT_DONE))
        g = gvt_progress(events)
        assert g.rounds == 7
        assert g.completed is True
        assert (g.first_gvt, g.final_gvt) == (10, 30)
        # 20 ticks over rounds 1..6
        assert g.advance_rate == pytest.approx(4.0)
        assert [(s.start_round, s.end_round, s.gvt, s.rounds)
                for s in g.stalls] == [(1, 3, 10, 2), (5, 6, 30, 1)]

    def test_monotone_progress_has_no_stalls(self):
        events = [ev(i, "gvt", round=i + 1, gvt=10 * (i + 1))
                  for i in range(4)]
        g = gvt_progress(events)
        assert g.stalls == () and g.completed is False
        assert g.advance_rate == pytest.approx(10.0)

    def test_only_sentinel(self):
        g = gvt_progress([ev(0, "gvt", round=1, gvt=GVT_DONE)])
        assert g.completed is True
        assert g.first_gvt is None and g.advance_rate == 0.0

    def test_empty(self):
        g = gvt_progress([])
        assert g.rounds == 0 and g.completed is False


# ---------------------------------------------------------------------------
# diff_metrics / regression gate


def doc(counters, name="unit", **kw):
    return metrics_document(name, kind="run", params={"k": 2, "seed": 1},
                            counters=counters, **kw)


class TestDiffMetrics:
    def test_identity_diff_is_empty(self):
        d = doc({"tw.rollbacks": 100, "tw.speedup": 1.9})
        result = diff_metrics(d, d)
        assert result.deltas == () and not result.has_regressions
        assert result.verdict()["ok"] is True
        assert "no deltas" in result.render()

    def test_volatile_fields_never_diff(self):
        a = doc({"tw.rollbacks": 1}, generated_at="2026-01-01T00:00:00Z")
        b = doc({"tw.rollbacks": 1}, generated_at="2026-02-02T00:00:00Z")
        b["host_timings"] = {"tw.run": 3.5}
        assert diff_metrics(a, b).deltas == ()
        assert dumps_metrics(strip_volatile(a)) == dumps_metrics(
            strip_volatile(b))

    def test_25pct_more_rollbacks_regresses(self):
        result = diff_metrics(doc({"tw.rollbacks": 100}),
                              doc({"tw.rollbacks": 125}))
        (d,) = result.deltas
        assert d.direction == "worse" and d.regressed
        assert d.rel_delta == pytest.approx(0.25)
        assert result.has_regressions
        assert result.verdict()["regressions"] == ["tw.rollbacks"]
        assert "REGRESSED" in result.render()

    def test_small_move_within_threshold_passes(self):
        result = diff_metrics(doc({"tw.rollbacks": 100}),
                              doc({"tw.rollbacks": 105}))
        (d,) = result.deltas
        assert d.direction == "worse" and not d.regressed

    def test_threshold_override_suppresses(self):
        result = diff_metrics(doc({"tw.rollbacks": 100}),
                              doc({"tw.rollbacks": 125}),
                              thresholds={"tw.rollbacks": 0.5})
        assert not result.has_regressions

    def test_higher_is_better_direction(self):
        worse = diff_metrics(doc({"tw.speedup": 2.0}),
                             doc({"tw.speedup": 1.5}))
        assert worse.deltas[0].direction == "worse"
        assert worse.has_regressions
        better = diff_metrics(doc({"tw.speedup": 1.5}),
                              doc({"tw.speedup": 2.0}))
        assert better.deltas[0].direction == "better"
        assert not better.has_regressions
        assert better.verdict()["improvements"] == ["tw.speedup"]

    def test_neutral_metrics_never_gate(self):
        result = diff_metrics(doc({"tw.committed_events": 100}),
                              doc({"tw.committed_events": 500}))
        (d,) = result.deltas
        assert d.direction == "neutral" and not d.regressed

    def test_appearance_from_zero_regresses_regardless(self):
        result = diff_metrics(doc({"tw.rollbacks": 0}),
                              doc({"tw.rollbacks": 5}))
        (d,) = result.deltas
        assert d.rel_delta is None and d.regressed

    def test_default_per_name_thresholds(self):
        loose = diff_metrics(doc({"tw.peak_checkpoint_bytes": 1000}),
                             doc({"tw.peak_checkpoint_bytes": 1200}))
        assert not loose.has_regressions          # +20% < 25% gate
        tight = diff_metrics(doc({"tw.peak_checkpoint_bytes": 1000}),
                             doc({"tw.peak_checkpoint_bytes": 1300}))
        assert tight.has_regressions

    def test_added_removed_and_param_changes(self):
        old = metrics_document("a", kind="run", params={"k": 2},
                               counters={"tw.rollbacks": 1})
        new = metrics_document("b", kind="run", params={"k": 4},
                               counters={"tw.messages_sent": 9})
        result = diff_metrics(old, new)
        assert result.added == ("tw.messages_sent",)
        assert result.removed == ("tw.rollbacks",)
        assert result.param_changes == ("k",)
        assert "different experiments" in result.render()


class TestGateDirectories:
    def _dirs(self, tmp_path, base_counters, cur_counters):
        base, cur = tmp_path / "base", tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        write_metrics(base / "BENCH_x.json", doc(base_counters, name="x"))
        write_metrics(cur / "BENCH_x.json", doc(cur_counters, name="x"))
        return base, cur

    def test_identical_documents_pass(self, tmp_path):
        base, cur = self._dirs(tmp_path, {"tw.rollbacks": 10},
                               {"tw.rollbacks": 10})
        messages, ok = gate_directories(base, cur)
        assert ok and messages == []

    def test_regression_fails_with_message(self, tmp_path):
        base, cur = self._dirs(tmp_path, {"tw.rollbacks": 100},
                               {"tw.rollbacks": 130})
        messages, ok = gate_directories(base, cur)
        assert not ok
        assert any("tw.rollbacks" in m and "REGRESSED" in m
                   for m in messages)

    def test_missing_baseline_is_reported_not_fatal(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        base.mkdir()
        cur.mkdir()
        write_metrics(cur / "BENCH_new.json", doc({"tw.rollbacks": 1},
                                                  name="new"))
        messages, ok = gate_directories(base, cur)
        assert ok
        assert messages == ["BENCH_new.json: no baseline (new benchmark?)"]

    def test_invalid_document_fails(self, tmp_path):
        base, cur = self._dirs(tmp_path, {"tw.rollbacks": 1},
                               {"tw.rollbacks": 1})
        (cur / "BENCH_x.json").write_text("{not json")
        messages, ok = gate_directories(base, cur)
        assert not ok and messages


# ---------------------------------------------------------------------------
# Run reports


class TestRunReport:
    def _events(self):
        return CASCADE_3LP + [
            ev(4, "gvt", round=1, gvt=10),
            ev(5, "gvt", round=2, gvt=GVT_DONE),
        ]

    def _metrics(self):
        return doc({"tw.processed_events": 100, "tw.committed_events": 80,
                    "tw.rollbacks": 2, "tw.speedup": 1.5,
                    "part.cut_size": 7},
                   generated_at="2026-08-06T00:00:00Z")

    def test_report_contents(self):
        report = analyze_run(self._events(), self._metrics())
        assert report.commit_efficiency == pytest.approx(0.8)
        assert report.trace_events == 6
        assert len(report.cascades) == 1
        text = report.render()
        assert "# Run report: unit" in text
        assert "`tw.rollbacks` | 2" in text
        assert "commit efficiency" in text and "0.8000" in text
        assert "## Rollback cascades" in text

    def test_byte_identical_across_invocations(self):
        # fresh inputs both times: determinism must not lean on aliasing
        a = analyze_run(self._events(), self._metrics()).render()
        b = analyze_run(self._events(), self._metrics()).render()
        assert a == b

    def test_trace_only_report(self):
        report = analyze_run(self._events())
        assert report.commit_efficiency is None
        assert report.counters == {}
        assert "no gvt events" not in report.render()


# ---------------------------------------------------------------------------
# Registry enforcement: analyzers, gates and the trace contract


class TestRegistryEnforcement:
    @pytest.mark.parametrize("table", [
        _SUMMARY_COUNTERS,
        sorted(HIGHER_IS_BETTER),
        sorted(NEUTRAL_METRICS),
        sorted(DEFAULT_THRESHOLDS),
    ], ids=["referenced", "higher-is-better", "neutral", "thresholds"])
    def test_direction_tables_use_registered_names(self, table):
        unregistered = [n for n in table if not is_registered(n)]
        assert unregistered == []

    def test_trace_field_registry_covers_every_kind(self):
        assert set(TRACE_FIELD_REGISTRY) == set(TRACE_EVENT_KINDS)
        for kind, fields in TRACE_FIELD_REGISTRY.items():
            assert fields, kind
            for name, meaning in fields.items():
                assert name == name.lower() and meaning.strip()

    def test_synthetic_traces_use_registered_fields(self):
        for e in CASCADE_3LP:
            extra = set(e) - {"seq", "kind"} - set(TRACE_FIELD_REGISTRY[e["kind"]])
            assert not extra, (e["kind"], extra)


# ---------------------------------------------------------------------------
# Real-engine integration


@pytest.fixture(scope="module")
def traced_run(viterbi_test, viterbi_test_circuit):
    events = random_vectors(viterbi_test, 12, seed=3)
    part = design_driven_partition(viterbi_test, k=3, b=10.0, seed=2)
    clusters, lpm = part.to_simulation()
    trace = TraceBuffer()
    report = run_partitioned(
        viterbi_test_circuit, clusters, lpm, events,
        ClusterSpec(num_machines=3), TimeWarpConfig(), trace=trace,
    )
    return trace, report


class TestEngineTraceContract:
    def test_emitted_fields_are_registered(self, traced_run):
        trace, _ = traced_run
        for e in trace.events():
            extra = set(e.fields) - set(TRACE_FIELD_REGISTRY[e.kind])
            assert not extra, (e.kind, extra)

    def test_rollback_events_carry_culprit_enrichment(self, traced_run):
        trace, report = traced_run
        rollbacks = trace.events("rollback")
        if report.rollbacks == 0:
            pytest.skip("no rollbacks at this seed")
        for e in rollbacks:
            assert {"partition", "src_partition",
                    "straggler_uid"} <= set(e.fields)

    def test_analyzers_consume_live_trace(self, traced_run):
        trace, report = traced_run
        events = parse_trace(trace.to_jsonl())
        run_report = analyze_run(events, top=3)
        assert run_report.trace_events == len(events)
        assert sum(h.rollbacks for h in
                   rollback_hotspots(events)) == report.rollbacks
        assert reconstruct_cascades(events) is not None
        assert gvt_progress(events).completed

    def test_cascade_rollbacks_account_for_all(self, traced_run):
        trace, report = traced_run
        events = parse_trace(trace.to_jsonl())
        cascades = reconstruct_cascades(events)
        assert sum(c.size for c in cascades) == report.rollbacks


class TestHeartbeatNeutrality:
    def test_heartbeat_does_not_change_results(self, pipeadd,
                                               pipeadd_circuit,
                                               pipeadd_events, capsys):
        """The change-stream oracle passes with a heartbeat attached and
        the run is bit-identical to a silent one."""
        seq = SequentialSimulator(pipeadd_circuit, record_changes=True)
        seq.add_inputs(pipeadd_events)
        seq.run()
        clusters = Clustering.top_level(pipeadd).gate_clusters()
        lpm = [i % 3 for i in range(len(clusters))]

        def run(progress):
            eng = TimeWarpEngine(
                pipeadd_circuit, clusters, lpm,
                ClusterSpec(num_machines=3),
                TimeWarpConfig(record_changes=True),
                progress=progress,
            )
            eng.load_inputs(pipeadd_events)
            stats = eng.run()
            eng.verify_change_stream(seq)
            return stats

        beat = ProgressHeartbeat()
        silent, chatty = run(None), run(beat)
        assert silent == chatty
        assert beat.lines >= 1 and capsys.readouterr().err.startswith("tw: ")

    def test_throttling_by_host_clock(self):
        ticks = iter([0.0, 0.2, 0.4, 2.0, 2.1])
        beat = ProgressHeartbeat()
        beat._clock = lambda: next(ticks)
        for i in range(5):
            beat.update(gvt=i, rounds=i, processed=10 * i, rollbacks=0,
                        wall=0.0)
        # first line prints immediately, then only the t=2.0 update
        assert beat.lines == 2

    def test_done_sentinel_rendered(self, capsys):
        beat = ProgressHeartbeat()
        beat.update(gvt=GVT_DONE, rounds=9, processed=100, rollbacks=5,
                    wall=1.0)
        line = capsys.readouterr().err
        assert "gvt=done" in line and "(5.0%)" in line
