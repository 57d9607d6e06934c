"""Circuit structure analysis."""


from repro.circuits import load_circuit
from repro.hypergraph import analyze_netlist, locality_fraction


class TestLocality:
    def test_adder_boundary_nets_are_carries(self, adder4):
        local, boundary = locality_fraction(adder4)
        # carries between fa instances cross visible nodes; intra-fa
        # nets (s1, c1, c2 and ha internals) stay local
        assert boundary >= 3  # the carry chain
        assert local > 0

    def test_viterbi_is_highly_local(self, viterbi_test):
        local, boundary = locality_fraction(viterbi_test)
        assert local / (local + boundary) > 0.5

    def test_counts_only_multi_pin_nets(self, adder4):
        local, boundary = locality_fraction(adder4)
        total_nets = adder4.num_nets
        assert local + boundary < total_nets  # constants etc. excluded


class TestAnalyze:
    def test_fields(self, pipeadd):
        s = analyze_netlist(pipeadd)
        assert s.gates == pipeadd.num_gates
        assert s.flip_flops == 14
        assert s.top_instances == 4
        assert s.hierarchy_depth == 2  # fa -> ha
        assert s.logic_depth >= 3
        assert s.fanout_max >= 1
        assert 0.0 <= s.locality <= 1.0

    def test_summary_text(self, viterbi_test):
        text = analyze_netlist(viterbi_test).summary()
        assert "net locality" in text
        assert "logic depth" in text

    def test_viterbi_vs_cpu_shapes_differ(self):
        """The two workloads' structure — the reason their partitioning
        outcomes differ — is visible in the stats."""
        vit = analyze_netlist(load_circuit("viterbi-test"))
        cpu = analyze_netlist(load_circuit("cpu-test"))
        # the CPU has far fewer, much bigger top instances
        assert cpu.top_instances < vit.top_instances
        assert max(cpu.instance_sizes) > max(vit.instance_sizes)


class TestCli:
    def test_cli_stats_flag(self, tmp_path):
        import io

        from repro.cli import main
        from tests.conftest import PIPEADD_SRC

        p = tmp_path / "d.v"
        p.write_text(PIPEADD_SRC)
        out = io.StringIO()
        assert main(["info", str(p), "--stats"], out=out) == 0
        assert "net locality" in out.getvalue()
