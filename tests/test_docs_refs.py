"""Documentation references stay live (tools/check_docs.py in CI).

Every ``repro.*`` dotted path and ``--flag`` named in the docs must
resolve against the actual package and CLI — renames and flag removals
fail here instead of rotting silently in prose.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_have_no_dangling_references():
    complaints = check_docs.check_docs(REPO_ROOT)
    assert not complaints, "\n".join(complaints)


def test_every_registered_name_is_recorded_somewhere():
    assert check_docs.orphaned_registry_names(REPO_ROOT) == []


def test_registry_audit_catches_an_orphaned_name(tmp_path):
    names, _ = check_docs._registry_names()
    orphan = "part.pairing.pairs"
    lines = [f'rec.incr("{n}")' for n in sorted(names)
             if n != orphan and not n.startswith(("part.core.", "obs.span."))]
    # an f-string family head and a derived-suffix literal count as use
    lines += ['rec.incr(f"part.core.{name}")', 'out["obs.span.count"] = 1',
              'out["obs.span.depth.max"] = 2']
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("\n".join(lines))
    assert check_docs.orphaned_registry_names(tmp_path) == [orphan]


def test_linter_catches_bad_module(tmp_path):
    root = tmp_path
    (root / "docs").mkdir()
    (root / "benchmarks").mkdir()
    (root / "tools").mkdir()
    (root / "README.md").write_text(
        "see `repro.core.no_such_module` and `repro.obs`\n"
    )
    complaints = check_docs.check_docs(root)
    assert len(complaints) == 1
    assert "repro.core.no_such_module" in complaints[0]


def test_linter_catches_unknown_flag(tmp_path):
    root = tmp_path
    (root / "docs").mkdir()
    (root / "benchmarks").mkdir()
    (root / "tools").mkdir()
    (root / "README.md").write_text(
        "run with `--presim-workers` or `--no-such-flag`\n"
    )
    complaints = check_docs.check_docs(root)
    assert len(complaints) == 1
    assert "--no-such-flag" in complaints[0]


def test_attribute_chains_resolve():
    assert check_docs.resolves("repro.obs.registry.METRIC_REGISTRY")
    assert check_docs.resolves("repro.core.pairing")
    assert not check_docs.resolves("repro.obs.registry.NOPE")
    assert not check_docs.resolves("repro.nonexistent")


def test_linter_catches_stale_metric_name(tmp_path):
    root = tmp_path
    (root / "docs").mkdir()
    (root / "benchmarks").mkdir()
    (root / "tools").mkdir()
    (root / "README.md").write_text(
        "watch `part.ml.levels` and `part.ml.no_such_counter`, "
        "plus the `partition.coarsen` phase and the `part.ml.*` family; "
        "`part.to_simulation()` and `part.json` are not metrics\n"
    )
    complaints = check_docs.check_docs(root)
    assert len(complaints) == 1
    assert "part.ml.no_such_counter" in complaints[0]


def test_linter_catches_empty_wildcard(tmp_path):
    root = tmp_path
    (root / "docs").mkdir()
    (root / "benchmarks").mkdir()
    (root / "tools").mkdir()
    (root / "README.md").write_text("the whole `part.nosuch.*` family\n")
    complaints = check_docs.check_docs(root)
    assert len(complaints) == 1
    assert "part.nosuch.*" in complaints[0]


def test_derived_suffixes_pass():
    names, families = check_docs._registry_names()
    assert check_docs.metric_complaint(
        "part.ml.reduction.max", names, families) is None
    assert check_docs.metric_complaint(
        "partition.coarsen.calls", names, families) is None
    assert check_docs.metric_complaint(
        "part.ml.level_cut", names, families) is None
    # host-value names (quarantined channel) are documented too
    assert check_docs.metric_complaint(
        "obs.sampler.peak_rss_kb", names, families) is None


def test_cli_flag_universe_includes_subcommands():
    flags = check_docs.cli_flags()
    assert "--presim-workers" in flags
    assert "--fail-on-regression" in flags  # obs diff, nested subparser
    assert "--metrics-out" in flags


def test_command_flag_table_is_per_subcommand():
    table = check_docs.cli_command_flags()
    assert "--refiner" in table["partition"]
    assert "--refiner" in table["sweep"]
    # psim-only flag does not leak into partition's set
    assert "--trace" in table["psim"]
    assert "--trace" not in table["partition"]
    # top-level options live under the "" key
    assert "--version" in table[""]


def test_invocation_flags_checked_against_their_subcommand(tmp_path):
    root = tmp_path
    (root / "docs").mkdir()
    (root / "benchmarks").mkdir()
    (root / "tools").mkdir()
    # --trace exists (on psim), so the flat flag check passes; the
    # invocation check must still flag it on `repro partition`
    (root / "README.md").write_text(
        "run `python -m repro partition a.v --trace out.json`\n"
        "and `repro psim a.v --trace out.json` (fine)\n"
    )
    complaints = check_docs.check_docs(root)
    assert len(complaints) == 1
    assert "--trace" in complaints[0]
    assert "repro partition" in complaints[0]


def test_invocation_check_joins_continuation_lines():
    table = check_docs.cli_command_flags()
    text = "```\npython -m repro sweep design.v \\\n  --refiner batch\n```\n"
    assert check_docs.invocation_complaints(text, table) == []
    bad = "`repro sweep design.v --trace t.json`"
    out = check_docs.invocation_complaints(bad, table)
    assert out == ["`--trace` is not accepted by `repro sweep`"]


def test_experiments_check_rejects_unregistered_names(tmp_path, monkeypatch):
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import json

    import make_experiments_md

    doc = json.loads((REPO_ROOT / "benchmarks" / "out"
                      / "BENCH_table1_cutsize_design.json").read_text())
    doc["counters"]["part.no_such_counter"] = 1
    doc["counters"]["rung.viterbi-s10k.part.batch.rounds"] = 2
    doc["host_timings"] = {"obs.sampler.no_such_value": 1.0, "fm": 2.0}
    (tmp_path / "BENCH_x.json").write_text(json.dumps(doc))
    monkeypatch.setattr(make_experiments_md, "OUT", tmp_path)
    errors: list[str] = []
    make_experiments_md._metrics_note("x", errors)
    assert [e.split("`")[1] for e in errors] == [
        "obs.sampler.no_such_value", "part.no_such_counter"]


def test_citation_check_catches_a_missing_heading(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text(
        "# Title\n\n## Real section: detail\n\n**Bold lead.**  text\n"
        "```\n# Fenced comment\n```\n")
    cite = "docs/" + "a.md"
    (tmp_path / "README.md").write_text(
        f'{cite}, "Real section" and {cite}`, sections "Bold lead" and\n'
        f'"Fenced comment"; {cite}, "Real\nsection: detail"\n')
    assert check_docs.citation_complaints(tmp_path) == [
        'README.md: `docs/a.md` has no heading "Fenced comment"']


def test_length_check_catches_an_overlong_performance_doc(tmp_path):
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "performance.md"
    doc.write_text("line\n" * 1000)
    assert check_docs.length_complaints(tmp_path) == []
    doc.write_text("line\n" * 1001)
    assert check_docs.length_complaints(tmp_path) == [
        "docs/performance.md: 1001 lines, over its 1000-line budget"]
