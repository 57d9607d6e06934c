"""Public API surface: lazy exports, versioning, depth utility."""

import sys
from pathlib import Path

import pytest

import repro
from repro.sim.compiled import combinational_depth, compile_circuit
from repro.verilog import compile_verilog

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402


class TestTopLevel:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_lazy_design_driven_export(self):
        fn = repro.design_driven_partition
        from repro.core import design_driven_partition

        assert fn is design_driven_partition

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol

    def test_error_types_exported(self):
        assert issubclass(repro.ParseError, repro.ReproError)


class TestOneGridEvaluator:
    def test_second_grid_runner_is_gone(self):
        import repro.bench
        import repro.core

        for name in ("run_presim_grid", "GridCell"):
            assert name not in repro.bench.__all__
            assert not hasattr(repro.bench, name)
        with pytest.raises(ImportError):
            import repro.bench.parallel  # noqa: F401
        assert "partition_netlist" in repro.core.__all__

    def test_unset_knobs_are_not_parameters(self):
        import inspect

        from repro.core import (
            MultilevelConfig,
            brute_force_presim,
            design_driven_partition,
            heuristic_presim,
            recursive_design_driven_partition,
        )

        assert set(MultilevelConfig.__dataclass_fields__) == {
            "coarsest_vertices", "coarsest_per_part", "large_edge_limit"}
        for fn in (brute_force_presim, heuristic_presim,
                   design_driven_partition,
                   recursive_design_driven_partition):
            assert not {"partitioner", "max_fm_passes", "max_rounds"} & set(
                inspect.signature(fn).parameters)


class TestOneGateVertexArray:
    #: retired with the pair-round scheduler and the per-node gate lists
    RETIRED = (
        "repro.core.schedule_rounds",
        "repro.core.pairing.schedule_rounds",
        "repro.core.pairing_rounds",
        "repro.core.pairing.pairing_rounds",
        "repro.core.pairing.refine_round",
        "repro.verilog.netlist.HierNode.subtree_gates",
        "repro.hypergraph.build.Clustering._level_below",
    )

    def test_retired_names_do_not_resolve(self):
        import repro.core

        for path in self.RETIRED:
            assert check_docs.resolves(path.rsplit(".", 1)[0]), path
            assert not check_docs.resolves(path), path
            assert path.rsplit(".", 1)[1] not in repro.core.__all__

    def test_nothing_live_mentions_a_retired_name(self):
        # docs/performance.md is the history document: it names what went
        import re

        root = Path(__file__).resolve().parent.parent
        live = [root / "README.md", root / "DESIGN.md"]
        live += [p for p in (root / "docs").glob("*.md")
                 if p.name != "performance.md"]
        for tree in ("src", "examples", "benchmarks", "tools"):
            live += (root / tree).rglob("*.py")
        names = sorted({path.rsplit(".", 1)[1] for path in self.RETIRED})
        word = re.compile(r"\b(" + "|".join(names) + r")\b")
        hits = [f"{p.relative_to(root)}: {m.group(1)}"
                for p in live for m in word.finditer(p.read_text())]
        assert not hits, hits

    def test_hierarchy_nodes_hold_no_gate_lists(self):
        from repro.verilog.netlist import HierNode

        assert "gate_ids" not in HierNode.__dataclass_fields__


class TestNetlistIsItsColumns:
    #: retired with the gate records, the netlist's list views, its
    #: incremental construction route and the compiled circuit's mirrors
    RETIRED = (
        "repro.verilog.Gate",
        *(f"repro.verilog.netlist.Netlist.{name}" for name in (
            "gates", "net_driver", "net_sinks", "add_net", "add_gate",
            "finalize", "driver_of", "sinks_of", "sequential_gates")),
        "repro.verilog.netlist_csr.NetlistCSR.from_netlist",
        *(f"repro.sim.compiled.CompiledCircuit.{name}" for name in (
            "gate_inputs", "net_sinks", "gate_code_list", "gate_output_list",
            "eval_combinational")),
        "repro.hypergraph.HypergraphBuilder",
    )
    #: the retired names no live code or doc could mean anything else by
    UNAMBIGUOUS = ("add_gate", "add_net", "sequential_gates", "sinks_of",
                   "HypergraphBuilder", "gate_code_list", "gate_output_list",
                   "eval_combinational")

    def test_retired_names_do_not_resolve(self):
        for path in self.RETIRED:
            assert check_docs.resolves(path.rsplit(".", 1)[0]), path
            assert not check_docs.resolves(path), path

    def test_nothing_live_mentions_a_retired_name(self):
        import re

        root = Path(__file__).resolve().parent.parent
        live = [root / "README.md", root / "DESIGN.md"]
        live += [p for p in (root / "docs").glob("*.md")
                 if p.name != "performance.md"]
        for tree in ("src", "examples", "benchmarks", "tools"):
            live += (root / tree).rglob("*.py")
        word = re.compile(r"\b(" + "|".join(self.UNAMBIGUOUS) + r")\b")
        hits = [f"{p.relative_to(root)}: {m.group(1)}"
                for p in live for m in word.finditer(p.read_text())]
        assert not hits, hits


class TestOneFlatDriver:
    """The hMetis-style second partitioner is gone; Table 2's flat side
    is ``repro.core.multilevel_kway_partition``."""

    def test_baselines_package_is_gone(self):
        import repro.core

        with pytest.raises(ImportError):
            import repro.baselines  # noqa: F401
        with pytest.raises(AttributeError):
            repro.multilevel_partition
        assert "random_partition" in repro.core.__all__

    def test_nothing_live_mentions_it(self):
        import re

        root = Path(__file__).resolve().parent.parent
        live = [root / "README.md", root / "DESIGN.md"]
        live += [p for p in (root / "docs").glob("*.md")
                 if p.name != "performance.md"]
        for tree in ("src", "examples", "benchmarks", "tools", "tests"):
            live += (root / tree).rglob("*.py")
        word = re.compile(r"\b(repro\.baselines|multilevel_partition)\b")
        hits = [f"{p.relative_to(root)}: {m.group(1)}"
                for p in live if p != Path(__file__).resolve()
                for m in word.finditer(p.read_text())]
        assert not hits, hits


class TestObservabilitySurface:
    def test_all_exports_resolve_and_are_documented(self):
        import repro.obs as obs

        for name in obs.__all__:
            member = getattr(obs, name)
            if callable(member) and not isinstance(member, type):
                assert member.__doc__, f"{name} lacks a docstring"

    def test_instrumented_entry_points_document_recorder(self):
        from repro.core import design_driven_partition
        from repro.sim import run_partitioned

        assert "recorder" in design_driven_partition.__doc__
        assert "recorder" in run_partitioned.__doc__
        assert "trace" in run_partitioned.__doc__

    def test_null_recorder_shared_default(self):
        import inspect

        from repro.core import design_driven_partition
        from repro.obs import NULL_RECORDER
        from repro.sim import run_partitioned

        for fn in (design_driven_partition, run_partitioned):
            assert (
                inspect.signature(fn).parameters["recorder"].default
                is NULL_RECORDER
            )


class TestCombinationalDepth:
    def test_inverter_chain(self):
        n = 7
        wires = "".join(f"wire m{i}; " for i in range(n - 1))
        gates = "not (m0, a); " + "".join(
            f"not (m{i+1}, m{i}); " for i in range(n - 2)
        ) + f"not (o, m{n-2});"
        nl = compile_verilog(
            f"module t (o, a); output o; input a; {wires} {gates} endmodule"
        )
        assert combinational_depth(compile_circuit(nl)) == n

    def test_flipflops_cut_paths(self):
        nl = compile_verilog(
            """
            module t (o, a, clk); output o; input a, clk;
              wire m1, q, m2;
              not (m1, a);
              dff (q, m1, clk);
              not (m2, q);
              not (o, m2);
            endmodule
            """
        )
        # longest purely combinational run: q -> m2 -> o = 2
        assert combinational_depth(compile_circuit(nl)) == 2

    def test_empty_circuit(self):
        nl = compile_verilog("module t (a); input a; endmodule")
        assert combinational_depth(compile_circuit(nl)) == 0

    def test_adder_depth_scales_with_width(self, adder4):
        from repro.circuits import ripple_adder_verilog

        d4 = combinational_depth(compile_circuit(adder4))
        nl8 = compile_verilog(ripple_adder_verilog(8, hierarchical=False))
        d8 = combinational_depth(compile_circuit(nl8))
        assert d8 > d4 >= 4
