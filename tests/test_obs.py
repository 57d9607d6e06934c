"""The observability layer: recorders, traces, metrics JSON, registry.

The layer's two contracts (docs/observability.md) are enforced here:
zero cost when off — attaching a recorder/trace never changes results —
and determinism — identical inputs give byte-identical metric dumps
modulo ``generated_at``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.circuits import random_vectors
from repro.core import design_driven_partition
from repro.obs import (
    METRIC_REGISTRY,
    METRICS_SCHEMA_VERSION,
    NULL_RECORDER,
    PHASE_REGISTRY,
    TRACE_EVENT_KINDS,
    TRACE_FIELD_REGISTRY,
    MetricsError,
    MetricsRecorder,
    TraceBuffer,
    dumps_metrics,
    is_registered,
    metrics_document,
    read_metrics,
    strip_volatile,
    validate_metrics,
    write_metrics,
)
from repro.sim import ClusterSpec, TimeWarpConfig, run_partitioned


# ---------------------------------------------------------------------------
# Recorder


class TestRecorder:
    def test_null_recorder_is_disabled_noop(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.incr("tw.rollbacks")
        NULL_RECORDER.observe_max("tw.straggler_depth", 5)
        with NULL_RECORDER.phase("tw.run"):
            pass
        # a Null recorder accumulates nothing and exposes no counters
        assert not hasattr(NULL_RECORDER, "as_counters") or not dict(
            NULL_RECORDER.as_counters()
        )

    def test_incr_and_observe_max(self):
        rec = MetricsRecorder()
        rec.incr("tw.rollbacks")
        rec.incr("tw.rollbacks", 2)
        rec.observe_max("tw.straggler_depth", 3)
        rec.observe_max("tw.straggler_depth", 1)
        c = rec.as_counters()
        assert c["tw.rollbacks"] == 3
        assert c["tw.straggler_depth.max"] == 3

    def test_phase_calls_and_host_timings(self):
        ticks = iter(range(100))
        rec = MetricsRecorder()
        rec._clock = lambda: float(next(ticks))
        with rec.phase("partition.refine"):
            pass
        with rec.phase("partition.refine"):
            pass
        c = rec.as_counters()
        assert c["partition.refine.calls"] == 2
        # host seconds live ONLY in the quarantined channel
        assert "partition.refine" not in c
        assert rec.host_timings()["partition.refine"] == pytest.approx(2.0)

    def test_as_counters_sorted(self):
        rec = MetricsRecorder()
        rec.incr("tw.rollbacks")
        rec.incr("part.cut_size", 7)
        assert list(rec.as_counters()) == sorted(rec.as_counters())


# ---------------------------------------------------------------------------
# Trace buffer


class TestTraceBuffer:
    def test_bounded_with_dropped_count_and_seq_gap(self):
        buf = TraceBuffer(capacity=3)
        for i in range(5):
            buf.emit("gvt", round=i)
        events = buf.events()
        assert len(events) == 3
        assert buf.dropped == 2
        # the tail survives; the seq gap reveals the eviction
        assert [e.seq for e in events] == [2, 3, 4]
        assert [e.fields["round"] for e in events] == [2, 3, 4]

    def test_kind_filter_and_unknown_kind(self):
        buf = TraceBuffer()
        buf.emit("exec", lp=0)
        buf.emit("rollback", lp=1)
        assert [e.kind for e in buf.events("rollback")] == ["rollback"]
        with pytest.raises(ValueError):
            buf.emit("nonsense")
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_jsonl_deterministic_and_parseable(self, tmp_path):
        def fill(buf):
            buf.emit("send", src_lp=1, dst_lp=2, sign=1)
            buf.emit("rollback", lp=2, to=5, depth=3)

        a, b = TraceBuffer(), TraceBuffer()
        fill(a)
        fill(b)
        assert a.to_jsonl() == b.to_jsonl()
        path = tmp_path / "t.jsonl"
        assert a.dump(path) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(l)["kind"] for l in lines] == ["send", "rollback"]
        # sorted keys per line -> byte-stable
        assert path.read_text() == a.to_jsonl()


# ---------------------------------------------------------------------------
# Metrics documents


def _doc(**over):
    doc = metrics_document(
        "unit",
        kind="custom",
        params={"k": 4, "b": 7.5},
        counters={"tw.rollbacks": 3, "tw.speedup": 1.5},
        rows=[{"k": 2, "cut": 10}],
        series={"machines": [2, 3, 4]},
    )
    doc.update(over)
    return doc


class TestMetricsDocument:
    def test_roundtrip_validates(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(path, _doc())
        back = read_metrics(path)  # read_metrics validates
        assert back == _doc()
        assert back["schema_version"] == METRICS_SCHEMA_VERSION

    def test_dumps_canonical(self):
        out = dumps_metrics(_doc())
        assert out.endswith("\n")
        assert json.loads(out) == _doc()
        # key order is canonical regardless of construction order
        assert out == dumps_metrics(json.loads(out))

    def test_recorder_counters_merged(self):
        rec = MetricsRecorder()
        rec.incr("tw.rollbacks", 2)
        doc = metrics_document("r", kind="run", recorder=rec,
                               counters={"part.cut_size": 9})
        assert doc["counters"] == {"part.cut_size": 9, "tw.rollbacks": 2}

    def test_strip_volatile(self):
        doc = _doc(generated_at="2026-08-06T00:00:00+00:00")
        stripped = strip_volatile(doc)
        # normalized to null (the key stays so the doc remains valid)
        assert stripped["generated_at"] is None
        validate_metrics(stripped)
        assert doc["generated_at"] is not None  # original untouched
        assert strip_volatile(_doc(generated_at="1999-01-01")) == stripped

    @pytest.mark.parametrize(
        "breakage",
        [
            {"schema_version": 99},
            {"name": ""},
            {"kind": "mystery"},
            {"counters": {"tw.rollbacks": True}},  # bool is not a count
            {"counters": {"tw.rollbacks": "3"}},
            {"rows": [{"k": [1, 2]}]},  # non-scalar cell
            {"series": {"xs": [1, "two"]}},
            {"surprise": 1},  # unknown top-level field
        ],
    )
    def test_validation_rejects(self, breakage):
        with pytest.raises(MetricsError):
            validate_metrics(_doc(**breakage))

    def test_validation_error_names_path(self):
        with pytest.raises(MetricsError, match="counters"):
            validate_metrics(_doc(counters={"x": "bad"}))


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_lookup_and_derived_suffixes(self):
        assert is_registered("tw.rollbacks")
        assert is_registered("tw.straggler_depth.max")
        assert is_registered("partition.refine.calls")
        assert not is_registered("tw.made_up")
        assert not is_registered("tw.made_up.max")
        assert not is_registered("tw.rollbacks.calls")

    def test_registries_are_documented(self):
        for table in (METRIC_REGISTRY, PHASE_REGISTRY):
            for name, meaning in table.items():
                assert name == name.lower() and " " not in name
                assert meaning.strip()

    def test_trace_field_registry_matches_kinds(self):
        assert set(TRACE_FIELD_REGISTRY) == set(TRACE_EVENT_KINDS)
        assert set(TRACE_FIELD_REGISTRY["rollback"]) >= {
            "partition", "src_partition", "straggler_uid"}

    def test_kernel_counters_registered(self):
        # the vectorized gate-eval kernel's counters are first-class
        # registered names (enforced like every RunStats counter below)
        for name in ("sim.kernel.batches", "sim.kernel.batch_gates",
                     "sim.kernel.scalar_gates"):
            assert is_registered(name)


class TestRegistryReaders:
    """Every registered metric, phase and host value is read somewhere
    other than the code that records it and ``obs/registry.py``: in a
    doc's prose, a report or gate (``repro.obs.diffing`` / ``report`` /
    ``analyze``, ``repro.cli``), a benchmark or a tool.  A name nothing
    reads is a registry row to delete."""

    #: report and gate modules of ``src/`` that read recorded names
    SRC_READERS = ("repro/obs/diffing.py", "repro/obs/report.py",
                   "repro/obs/analyze.py", "repro/cli.py")
    #: a literal that records the name rather than reading it: a
    #: recorder call's argument or a counters dict key
    EMITS = re.compile(
        r"(?:incr|observe_max|phase|record_host)\(\s*$")
    #: prefixes that filter span names, not recorded names: the
    #: pipeline benchmark's layer spans are ``bench.<layer>``
    SPAN_PREFIXES = {"bench."}

    @staticmethod
    def reader_texts() -> dict[str, str]:
        root = Path(__file__).resolve().parent.parent
        docs = [root / "README.md", root / "DESIGN.md",
                *sorted((root / "docs").glob("*.md"))]
        texts = {}
        for path in docs:
            text = path.read_text()
            if path.name == "observability.md":
                # the registry's own rendering names every row: not a read
                head = text.index("## Metric name registry")
                tail = text.index("\n## ", head + 1)
                text = text[:head] + text[tail:]
            texts[str(path.relative_to(root))] = text
        code = [root / "src" / name for name in
                TestRegistryReaders.SRC_READERS]
        for tree in ("benchmarks", "tools"):
            code += [p for p in sorted((root / tree).rglob("*.py"))
                     if p.name != "check_docs.py"]  # lints the registry
        for path in code:
            texts[str(path.relative_to(root))] = path.read_text()
        return texts

    @classmethod
    def is_read(cls, name: str, texts: dict[str, str]) -> bool:
        word = re.compile(r"(?<![\w.])" + re.escape(name) + r"(?!\w)")
        prefixes = {name[:i + 1] for i, ch in enumerate(name)
                    if ch == "."} - cls.SPAN_PREFIXES
        for path, text in texts.items():
            for m in word.finditer(text):
                if path.endswith(".md"):
                    return True
                before = text[:m.start()]
                after = text[m.end():]
                quoted = before[-1:] in "'\"" and after[:1] in "'\""
                if not quoted:
                    return True
                if cls.EMITS.search(before[:-1]):
                    continue
                if re.match(r"['\"]\s*:", after):
                    continue  # a counters dict key
                return True
            # prefix reads: key.startswith(("circ.", "part.build."))
            for call in re.finditer(r"startswith\(([^)]*)\)", text):
                if prefixes & set(re.findall(r"['\"]([\w.]+)['\"]",
                                             call.group(1))):
                    return True
        return False

    def test_every_registered_name_has_a_reader(self):
        from repro.obs.registry import HOST_VALUE_REGISTRY

        texts = self.reader_texts()
        names = [*METRIC_REGISTRY, *PHASE_REGISTRY, *HOST_VALUE_REGISTRY]
        unread = [name for name in names if not self.is_read(name, texts)]
        assert unread == []

    def test_the_scan_sees_emitters_and_prefix_reads(self):
        texts = {
            "bench.py": 'emit({"bench.x": 1})\nrec.incr("bench.y")\n'
                        'if k.startswith(("circ.",)): pass\n',
            "gate.py": 'NEUTRAL = {"bench.z"}\n',
        }
        assert not self.is_read("bench.x", texts)
        assert not self.is_read("bench.y", texts)
        assert self.is_read("bench.z", texts)
        assert self.is_read("circ.gates", texts)


# ---------------------------------------------------------------------------
# End to end: instrumented runs


@pytest.fixture(scope="module")
def stimulus(viterbi_test):
    return random_vectors(viterbi_test, 12, seed=3)


def _run(viterbi_test, viterbi_test_circuit, stimulus, **obs):
    part = design_driven_partition(viterbi_test, k=3, b=10.0, seed=2,
                                   **({"recorder": obs["recorder"]}
                                      if "recorder" in obs else {}))
    clusters, lpm = part.to_simulation()
    report = run_partitioned(
        viterbi_test_circuit, clusters, lpm, stimulus,
        ClusterSpec(num_machines=3), TimeWarpConfig(), **obs,
    )
    return part, report


class TestInstrumentedRun:
    def test_observability_does_not_change_results(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        _, bare = _run(viterbi_test, viterbi_test_circuit, stimulus)
        _, observed = _run(
            viterbi_test, viterbi_test_circuit, stimulus,
            recorder=MetricsRecorder(), trace=TraceBuffer(),
        )
        assert bare.run_stats == observed.run_stats
        assert bare.to_counters() == observed.to_counters()
        assert bare.verified and observed.verified

    def test_every_emitted_counter_is_registered(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        rec = MetricsRecorder()
        _run(viterbi_test, viterbi_test_circuit, stimulus, recorder=rec)
        unregistered = [n for n in rec.as_counters() if not is_registered(n)]
        assert unregistered == []

    def test_partitioner_and_kernel_counters_present(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        rec = MetricsRecorder()
        _, report = _run(viterbi_test, viterbi_test_circuit, stimulus,
                         recorder=rec)
        c = rec.as_counters()
        assert c["partition.initial.calls"] == 1
        assert c["partition.refine.calls"] >= 1
        assert c["part.pairing.rounds"] >= 1
        assert c["tw.run.calls"] == 1
        assert c["tw.committed_events"] == report.committed_events
        assert c["seq.gate_evals"] == report.seq_stats.gate_evals

    def test_run_stats_counters_all_registered(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        # every name RunStats flattens to — including the sim.kernel.*
        # counters the vectorized kernel added — must be registered,
        # and the kernel totals must reconcile with the report
        _, report = _run(viterbi_test, viterbi_test_circuit, stimulus)
        counters = report.run_stats.to_counters()
        unregistered = [n for n in counters if not is_registered(n)]
        assert unregistered == []
        assert counters["sim.kernel.batches"] == \
            report.run_stats.kernel_batches
        assert counters["sim.kernel.batch_gates"] == \
            report.run_stats.kernel_batch_gates
        assert counters["sim.kernel.scalar_gates"] == \
            report.run_stats.kernel_scalar_gates
        assert counters["sim.kernel.scalar_gates"] > 0

    def test_identical_seeds_identical_dumps(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        def dump():
            rec = MetricsRecorder()
            _run(viterbi_test, viterbi_test_circuit, stimulus,
                 recorder=rec, trace=(trace := TraceBuffer()))
            doc = metrics_document(
                "det", kind="run", recorder=rec, params={"seed": 2},
                generated_at="2026-01-01T00:00:00+00:00",
            )
            return dumps_metrics(strip_volatile(doc)), trace.to_jsonl()

        assert dump() == dump()

    def test_trace_captures_kernel_events(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        trace = TraceBuffer()
        _, report = _run(viterbi_test, viterbi_test_circuit, stimulus,
                         trace=trace)
        kinds = {e.kind for e in trace.events()}
        assert "exec" in kinds and "gvt" in kinds
        if report.messages:
            assert "send" in kinds
        if report.rollbacks:
            assert len(trace.events("rollback")) == report.rollbacks
        seqs = [e.seq for e in trace.events()]
        assert seqs == sorted(seqs)

    def test_every_emitted_trace_field_is_registered(
        self, viterbi_test, viterbi_test_circuit, stimulus
    ):
        trace = TraceBuffer()
        _run(viterbi_test, viterbi_test_circuit, stimulus, trace=trace)
        for e in trace.events():
            extra = set(e.fields) - set(TRACE_FIELD_REGISTRY[e.kind])
            assert not extra, (e.kind, extra)
