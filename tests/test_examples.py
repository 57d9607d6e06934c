"""Smoke-run the fastest example scripts end to end.

The heavyweight studies (viterbi_partition_study, parallel_speedup)
are exercised through their underlying library calls elsewhere; these
tests run the quick scripts exactly as a user would.
"""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", [], capsys)
    assert "compiled:" in out
    assert "verified=True" in out


def test_custom_verilog_flow(tmp_path, monkeypatch, capsys):
    # the script writes its .hgr file under tempfile.mkdtemp()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = run_example("custom_verilog_flow.py", [], capsys)
    assert "design-driven cut:" in out
    assert "multilevel (flat) cut:" in out
    assert "verified=True" in out


def test_waveforms_and_analysis(tmp_path, capsys):
    out = run_example("waveforms_and_analysis.py", [str(tmp_path)], capsys)
    assert "net locality" in out
    assert "events/s" in out
    assert (tmp_path / "cpu.vcd").exists()
    assert (tmp_path / "cpu_k2.json").exists()
    assert "verified=True" in out
