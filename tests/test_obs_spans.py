"""Hierarchical spans, cross-process telemetry merge and the timeline
exporter (repro.obs.spans / repro.obs.timeline / repro.obs.sampler).

The load-bearing claims:

* nested ``recorder.phase()`` calls become a well-formed span tree
  (parents precede children, child intervals sit inside their parents);
* worker mini-recorder payloads merge back losslessly and in
  deterministic order, so the volatile-stripped metrics document is
  **sha256-identical at any worker count** for every parallel fan-out
  (refine rounds, presim searches);
* ``chrome_trace`` turns a spans-bearing document into valid
  Chrome-trace JSON with one lane per worker process.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_vectors
from repro.core import (
    brute_force_presim,
    design_driven_partition,
    heuristic_presim,
)
from repro.errors import MetricsError
from repro.obs import (
    MetricsRecorder,
    ResourceSampler,
    SpanRecorder,
    chrome_trace,
    dumps_metrics,
    export_telemetry,
    merge_telemetry,
    metrics_document,
    span_depths,
    strip_volatile,
    validate_spans,
    worker_lane,
)
from repro.sim import TimeWarpConfig


def fake_clock():
    """Deterministic whole-second clock for exact trees and sums."""
    wall = iter(float(x) for x in range(1000))
    return lambda: next(wall)


def clocked(clock, lane="main") -> MetricsRecorder:
    """A recorder stamping its spans from ``clock``."""
    rec = MetricsRecorder(lane=lane)
    rec._clock = clock
    return rec


def nested_recorder() -> MetricsRecorder:
    rec = clocked(fake_clock())
    with rec.phase("sweep.cell"):
        with rec.phase("presim.partition"):
            pass
        with rec.phase("presim.simulate"):
            pass
    return rec


class TestSpanTree:
    def test_nesting_becomes_parent_links(self):
        rows = nested_recorder().span_rows()
        by_name = {r["name"]: r for r in rows}
        assert by_name["sweep.cell"]["parent"] is None
        root = by_name["sweep.cell"]["sid"]
        assert by_name["presim.partition"]["parent"] == root
        assert by_name["presim.simulate"]["parent"] == root

    def test_invariants_hold(self):
        rows = nested_recorder().span_rows()
        assert validate_spans(rows) is rows
        assert max(span_depths(rows).values()) == 2

    def test_structural_counters(self):
        rec = nested_recorder()
        counters = metrics_document("t", kind="custom",
                                    recorder=rec)["counters"]
        assert counters["obs.span.count"] == 3
        assert counters["obs.span.depth.max"] == 2
        # phase call counts are the closed spans per name
        assert counters["sweep.cell.calls"] == 1
        assert counters["presim.partition.calls"] == 1
        assert "obs.span.count" not in rec.as_counters()

    def test_open_spans_not_exported(self):
        rec = clocked(fake_clock())
        with rec.phase("sweep.cell"):
            with rec.phase("presim.partition"):
                pass
            assert [r["name"] for r in rec.span_rows()] == []
        assert len(rec.span_rows()) == 2

    def test_closed_spans_under_an_open_ancestor_not_exported(self):
        rec = clocked(fake_clock())
        with rec.phase("root"):
            with rec.phase("child"):
                with rec.phase("grand"):
                    pass
            # grand's parent is closed but its grandparent is not
            assert rec.span_rows() == []
            assert set(rec.phases) == {"child", "grand"}
        rows = rec.span_rows()
        assert [r["name"] for r in rows] == ["root", "child", "grand"]
        assert validate_spans(rows) is rows

    def test_driver_lane_is_main(self):
        assert worker_lane() == "main"
        assert all(r["lane"] == "main"
                   for r in nested_recorder().span_rows())


class TestMerge:
    def worker_payload(self, lane="worker-1", t0=10.5, t1=10.6):
        wall = iter([t0, t1])
        wrec = clocked(lambda: next(wall), lane=lane)
        with wrec.phase("refine.pair"):
            wrec.incr("part.fm.moves", 3)
            wrec.observe_max("part.fm.gain", 7)
        return export_telemetry(wrec)

    def test_roundtrip_is_lossless(self):
        payload = self.worker_payload()
        assert payload["counters"]["part.fm.moves"] == 3
        assert payload["maxima"]["part.fm.gain"] == 7
        # the spans carry the phase data; there is no second channel
        assert set(payload) == {"counters", "maxima", "spans"}
        assert [r["name"] for r in payload["spans"]] == ["refine.pair"]

    def test_merge_grafts_under_open_span(self):
        rec = clocked(fake_clock())
        with rec.phase("sweep.cell"):
            merge_telemetry(rec, self.worker_payload())
        rows = rec.span_rows()
        worker = next(r for r in rows if r["lane"] == "worker-1")
        root = next(r for r in rows if r["name"] == "sweep.cell")
        assert worker["parent"] == root["sid"]
        counters = rec.as_counters()
        assert counters["part.fm.moves"] == 3
        assert counters["part.fm.gain.max"] == 7
        assert counters["refine.pair.calls"] == 1

    def test_merge_order_gives_stable_sids(self):
        rec = clocked(fake_clock())
        with rec.phase("sweep.cell"):
            # inside the driver span, which the fake clock opens at 0
            # and closes at 1
            merge_telemetry(rec, self.worker_payload("worker-1", 0.2, 0.3))
            merge_telemetry(rec, self.worker_payload("worker-2", 0.4, 0.5))
        lanes = [r["lane"] for r in rec.span_rows()]
        assert lanes.count("worker-1") == 1 and lanes.count("worker-2") == 1
        assert validate_spans(rec.span_rows())

    def test_noop_payloads(self):
        rec = MetricsRecorder()
        merge_telemetry(rec, None)
        assert rec.span_rows() == []
        from repro.obs import NULL_RECORDER

        merge_telemetry(NULL_RECORDER, self.worker_payload())  # no raise


#: a phase program: nested (name, children) nodes; a WORKER node runs
#: its children on a worker mini-recorder and merges the payload there
WORKER = "@worker"
programs = st.recursive(
    st.just([]),
    lambda kids: st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", WORKER]), kids),
        max_size=3),
    max_leaves=16)


def run_program(rec, program, clock):
    for name, kids in program:
        if name == WORKER:
            wrec = clocked(clock, lane="worker-1")
            run_program(wrec, kids, clock)
            merge_telemetry(rec, export_telemetry(wrec))
        else:
            with rec.phase(name):
                rec.incr("ops")
                run_program(rec, kids, clock)


def recorded(program) -> MetricsRecorder:
    """Run ``program`` on a driver recorder; driver and workers share
    one fake clock, so worker spans nest inside driver spans."""
    clock = fake_clock()
    rec = clocked(clock)
    run_program(rec, program, clock)
    return rec


def phase_names(program):
    for name, kids in program:
        if name != WORKER:
            yield name
        yield from phase_names(kids)


class TestOneStore:
    """Phase totals are derived from the span list, so the two cannot
    disagree — also after worker payloads merge in task order."""

    @given(programs)
    @settings(max_examples=150, deadline=None)
    def test_phases_are_the_closed_spans(self, program):
        rec = recorded(program)
        rows = rec.span_rows()
        assert len(rows) == len(rec.spans)  # everything closed
        validate_spans(rows)
        names = list(phase_names(program))
        assert {n: s.calls for n, s in rec.phases.items()} == {
            n: names.count(n) for n in set(names)}
        for name, stats in rec.phases.items():
            durations = [r["t1"] - r["t0"] for r in rows
                         if r["name"] == name]
            assert stats.calls == len(durations)
            assert stats.host_seconds == sum(durations)
        assert rec.host_timings() == {
            n: s.host_seconds for n, s in sorted(rec.phases.items())}

    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_document_adds_span_counters_iff_it_embeds_spans(self, program):
        rec = recorded(program)
        assert not any(k.startswith("obs.span.")
                       for k in rec.as_counters())
        doc = metrics_document("t", kind="custom", recorder=rec)
        spans = doc.get("spans", [])
        assert ("obs.span.count" in doc["counters"]) == bool(spans)
        assert ("obs.span.depth.max" in doc["counters"]) == bool(spans)
        if spans:
            assert doc["counters"]["obs.span.count"] == len(spans)
            assert doc["counters"]["obs.span.depth.max"] == max(
                span_depths(spans).values())


class TestValidateSpans:
    GOOD = {"sid": 0, "parent": None, "name": "a", "lane": "main",
            "t0": 0.0, "t1": 1.0}

    def test_orphan_rejected(self):
        with pytest.raises(MetricsError, match="orphan"):
            validate_spans([self.GOOD,
                            {**self.GOOD, "sid": 1, "parent": 99}])

    def test_sid_must_increase(self):
        with pytest.raises(MetricsError, match="does not increase"):
            validate_spans([self.GOOD, dict(self.GOOD)])

    def test_backwards_interval_rejected(self):
        with pytest.raises(MetricsError, match="precedes"):
            validate_spans([{**self.GOOD, "t0": 2.0, "t1": 1.0}])

    def test_child_escaping_parent_rejected(self):
        child = {**self.GOOD, "sid": 1, "parent": 0, "t0": 0.5, "t1": 5.0}
        with pytest.raises(MetricsError, match="escapes parent"):
            validate_spans([self.GOOD, child])


class TestDocumentSpans:
    def test_spans_field_is_volatile(self):
        doc = metrics_document("t", kind="custom",
                               recorder=nested_recorder())
        assert len(doc["spans"]) == 3
        assert "spans" not in strip_volatile(doc)
        dumps_metrics(doc)  # validates

    def test_malformed_span_rows_rejected(self):
        doc = metrics_document("t", kind="custom",
                               recorder=nested_recorder())
        bad = {**doc, "spans": [{"sid": 0, "oops": True}]}
        with pytest.raises(MetricsError, match="spans"):
            dumps_metrics(bad)


def _digest(recorder, counters=None) -> str:
    doc = metrics_document("digest", kind="custom", counters=counters,
                           recorder=recorder)
    return hashlib.sha256(
        dumps_metrics(strip_volatile(doc)).encode()).hexdigest()


class TestWorkerCountDigests:
    """ISSUE acceptance: merged telemetry is byte-identical at any
    worker count, for every parallel fan-out in the repo."""

    def test_refine_document_digest_is_pinned(self, viterbi_test):
        # refinement has no fan-out: its document is pinned to the one
        # the last commit with a refinement pool produced at 1, 2 and 4
        # workers (counters, phase call counts, refine.pair span count),
        # re-pinned once for FM's locked-cut bound: three part.core.*
        # work tallies fell and part.fm.executed / bound_stops appeared,
        # and once when FM passes moved to a pass-local working set: the
        # stripped documents of parent and change differ in one line,
        # part.core.lambda_hits 3669 -> 3095 (no rollback moves, one
        # walk per decided vertex instead of two), and once when the
        # pair-round scheduler went: the stripped documents differ in
        # the two deleted rows, part.refine.rounds 12 and
        # part.refine.tasks 24, and nothing else
        rec = SpanRecorder()
        design_driven_partition(
            viterbi_test, k=4, b=10.0, seed=0, pairing="exhaustive",
            recorder=rec,
        )
        assert _digest(rec) == ("9e37bf9b0cf5a2a32f7966e52eed5832"
                                "c189606c5889f727cbd1e5a9c44e7abb")
        pairs = [r for r in rec.span_rows() if r["name"] == "refine.pair"]
        refines = {r["sid"] for r in rec.span_rows()
                   if r["name"] == "partition.refine"}
        assert len(pairs) == 24
        assert all(r["parent"] in refines and r["lane"] == "main"
                   for r in pairs)

    def test_brute_force_presim_digest_identical(self, viterbi_test):
        events = random_vectors(viterbi_test, 8, seed=2)
        digests = set()
        for workers in (1, 2):
            rec = SpanRecorder()
            brute_force_presim(
                viterbi_test, events, ks=(2, 3), bs=(7.5,), seed=1,
                config=TimeWarpConfig(gvt_interval=64),
                workers=workers, recorder=rec,
            )
            digests.add(_digest(rec))
        assert len(digests) == 1

    def test_heuristic_presim_digest_identical(self, viterbi_test):
        events = random_vectors(viterbi_test, 8, seed=2)
        digests = set()
        for workers in (1, 2):
            rec = SpanRecorder()
            heuristic_presim(
                viterbi_test, events, max_k=3, seed=1,
                config=TimeWarpConfig(gvt_interval=64),
                workers=workers, recorder=rec,
            )
            digests.add(_digest(rec))
        assert len(digests) == 1

    def test_parallel_run_has_worker_lanes(self, viterbi_test):
        rec = SpanRecorder()
        brute_force_presim(
            viterbi_test, random_vectors(viterbi_test, 8, seed=2),
            ks=(2, 3), bs=(7.5,), seed=1,
            config=TimeWarpConfig(gvt_interval=64),
            workers=2, recorder=rec,
        )
        lanes = {r["lane"] for r in rec.span_rows()}
        assert "main" in lanes
        assert any(lane.startswith("worker-") for lane in lanes)
        validate_spans(rec.span_rows())


class TestTimeline:
    def test_chrome_trace_shape(self):
        doc = metrics_document("t", kind="custom",
                               recorder=nested_recorder())
        trace = chrome_trace(doc)
        events = trace["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(slices) == 3
        assert all(e["cat"] == "span" for e in slices)
        assert all(e["dur"] >= 0 for e in slices)
        assert {e["name"] for e in metas} >= {"process_name",
                                              "thread_name"}
        json.dumps(trace)  # serializable as-is

    def test_lanes_get_distinct_tids_main_first(self):
        rec = clocked(fake_clock())
        wall = iter([0.3, 0.6])
        wrec = clocked(lambda: next(wall), lane="worker-7")
        with wrec.phase("refine.pair"):
            pass
        with rec.phase("sweep.cell"):
            merge_telemetry(rec, export_telemetry(wrec))
        trace = chrome_trace(
            metrics_document("t", kind="custom", recorder=rec))
        lanes = {}
        for e in trace["traceEvents"]:
            if e["ph"] == "M" and e["name"] == "thread_name":
                lanes[e["args"]["name"]] = e["tid"]
        assert set(lanes) == {"main", "worker-7"}
        assert lanes["main"] < lanes["worker-7"]

    def test_document_without_spans_rejected(self):
        doc = metrics_document("t", kind="custom",
                               counters={"part.cut_size": 1})
        with pytest.raises(MetricsError, match="span"):
            chrome_trace(doc)

    def test_cli_timeline_roundtrip(self, tmp_path):
        from repro.cli import main
        from repro.obs import write_metrics

        doc = metrics_document("t", kind="custom",
                               recorder=nested_recorder())
        metrics_path = tmp_path / "m.json"
        write_metrics(metrics_path, doc)
        out_path = tmp_path / "m.trace.json"
        import io

        assert main(["obs", "timeline", str(metrics_path)],
                    out=io.StringIO()) == 0
        trace = json.loads(out_path.read_text())
        assert len([e for e in trace["traceEvents"]
                    if e["ph"] == "X"]) == 3


class TestResourceSampler:
    def test_samples_and_host_values(self):
        with ResourceSampler() as sampler:
            sum(range(10000))
        vals = sampler.as_host_values()
        assert vals["obs.sampler.peak_rss_kb"] > 0
        assert vals["obs.sampler.cpu_seconds"] >= 0

    def test_record_into_quarantines(self):
        rec = SpanRecorder()
        sampler = ResourceSampler()
        sampler.start()
        sampler.stop()
        sampler.record_into(rec)
        host = rec.host_timings()
        assert "obs.sampler.peak_rss_kb" in host
        # host channel only: nothing leaked into the gated counters
        assert not any(k.startswith("obs.sampler")
                       for k in rec.as_counters())


class TestDroppedCounter:
    def test_engine_records_ring_evictions(self, viterbi_test):
        from repro.circuits import random_vectors
        from repro.core import design_driven_partition
        from repro.obs import TraceBuffer
        from repro.sim import (
            ClusterSpec,
            compile_circuit,
            run_partitioned,
        )

        events = random_vectors(viterbi_test, 20, seed=0)
        part = design_driven_partition(viterbi_test, k=2, b=10.0, seed=0)
        clusters, machines = part.to_simulation()
        rec = SpanRecorder()
        trace = TraceBuffer(capacity=4)
        run_partitioned(
            compile_circuit(viterbi_test), clusters, machines, events,
            ClusterSpec(num_machines=2), recorder=rec, trace=trace,
        )
        counters = rec.as_counters()
        assert counters["obs.trace.dropped"] == trace.dropped
        assert trace.dropped > 0

    def test_report_surfaces_truncation(self):
        from repro.obs import TraceBuffer, analyze_run, parse_trace

        buf = TraceBuffer(capacity=2)
        for r in range(5):
            buf.emit("gvt", round=r, gvt=r)
        events = parse_trace(buf.to_jsonl())
        # inference from surviving seqs, no metrics document needed
        report = analyze_run(events)
        assert report.trace_dropped == 3
        assert "trace truncated" in report.render()
        # the recorded counter is authoritative when present
        doc = metrics_document(
            "t", kind="custom", counters={"obs.trace.dropped": 3})
        assert analyze_run(events, doc).trace_dropped == 3

    def test_untruncated_trace_is_quiet(self):
        from repro.obs import TraceBuffer, analyze_run, parse_trace

        buf = TraceBuffer(capacity=16)
        buf.emit("gvt", round=1, gvt=1)
        report = analyze_run(parse_trace(buf.to_jsonl()))
        assert report.trace_dropped == 0
        assert "truncated" not in report.render()
