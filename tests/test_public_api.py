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

        from repro.bench import ExperimentConfig
        from repro.circuits import (
            lfsr_verilog,
            natural_schedule,
            random_logic_verilog,
            ripple_adder_verilog,
            vector_events,
        )
        from repro.core import (
            BalanceConstraint,
            activity_clustering,
            batch_refine,
            brute_force_presim,
            coarsen_hypergraph,
            design_driven_partition,
            direct_kway_partition,
            estimate_pair_gain,
            heuristic_presim,
            multilevel_flat_partition,
            multilevel_kway_partition,
            profile_activity,
            recursive_design_driven_partition,
        )
        from repro.hypergraph import Clustering
        from repro.obs import (
            MetricsRecorder,
            ProgressHeartbeat,
            ResourceSampler,
            gate_directories,
            validate_spans,
            worker_telemetry,
        )
        from repro.sim import (
            ClusterLP,
            SequentialSimulator,
            VcdWriter,
            run_partitioned,
            run_sequential_baseline,
        )

        for fn in (brute_force_presim, heuristic_presim,
                   design_driven_partition,
                   recursive_design_driven_partition):
            assert not {"partitioner", "max_fm_passes", "max_rounds"} & set(
                inspect.signature(fn).parameters)
        # values only tests set: each is a constant now, or gone
        removed = {
            heuristic_presim: {"b_start", "b_stop", "b_step"},
            design_driven_partition: {"restarts"},
            run_partitioned: {"verify"},
            BalanceConstraint.satisfied: {"total_load"},
            activity_clustering: {"smoothing"},
            profile_activity: {"smoothing"},
            batch_refine: {"max_rounds"},
            estimate_pair_gain: {"sample"},
            multilevel_flat_partition: {"config"},
            multilevel_kway_partition: {"config"},
            coarsen_hypergraph: {"config"},
            direct_kway_partition: {"refiner"},
            recursive_design_driven_partition: {"refiner"},
            SequentialSimulator.run: {"until"},
            natural_schedule: {"margin"},
            vector_events: {"start_time"},
            ripple_adder_verilog: {"hierarchical"},
            lfsr_verilog: {"taps"},
            random_logic_verilog: {"p_ff", "name"},
            gate_directories: {"pattern", "thresholds", "default_threshold"},
            ProgressHeartbeat: {"stream", "min_interval", "clock"},
            MetricsRecorder: {"clock"},
            ResourceSampler: {"interval"},
            worker_telemetry: {"lane"},
            validate_spans: {"tolerance"},
            run_sequential_baseline: {"record_activity"},
            VcdWriter: {"timescale"},
            ClusterLP: {"name"},
            Clustering.flat: {"gate_weights"},
        }
        for fn, names in removed.items():
            assert not names & set(inspect.signature(fn).parameters), fn
        assert not {"pairing", "spec", "tw"} & set(
            ExperimentConfig.__dataclass_fields__)


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
        "repro.verilog.netlist.Netlist.from_netlist",
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


class TestModeledCostsOnly:
    """The cost model is testbed ratios only: the host-calibration
    module, which rescaled it from measured runtimes, is gone."""

    #: retired with repro.sim.calibrate
    RETIRED = (
        "repro.sim.calibrate",
        "repro.sim.CalibrationResult",
        "repro.sim.calibrated_spec",
        "repro.sim.measure_event_cost",
    )
    UNAMBIGUOUS = ("CalibrationResult", "calibrated_spec",
                   "measure_event_cost")

    def test_retired_names_do_not_resolve(self):
        import repro.sim

        for path in self.RETIRED:
            assert check_docs.resolves(path.rsplit(".", 1)[0]), path
            assert not check_docs.resolves(path), path
            assert path.rsplit(".", 1)[1] not in repro.sim.__all__

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


class TestFixedPlacement:
    """Every LP stays on its partitioner-assigned machine for the whole
    run, as on the paper's Clustered Time Warp testbed: dynamic LP
    migration, and the orphan-anti buffer only it needed, are gone."""

    #: retired with migration
    RETIRED = ("repro.sim.cluster.MIGRATION_COST",
               "repro.sim.cluster.MIGRATION_COOLDOWN")
    UNAMBIGUOUS = ("migration_threshold", "_maybe_migrate",
                   "_orphan_antis", r"tw\.migrations")

    def test_config_has_no_migration(self):
        from repro.sim import TimeWarpConfig

        with pytest.raises(TypeError):
            TimeWarpConfig(migration=True)
        with pytest.raises(TypeError):
            TimeWarpConfig(migration_threshold=0.1)

    def test_retired_names_do_not_resolve(self):
        for path in self.RETIRED:
            assert check_docs.resolves(path.rsplit(".", 1)[0]), path
            assert not check_docs.resolves(path), path

    def test_not_registered(self):
        from repro.obs.registry import METRIC_REGISTRY, TRACE_FIELD_REGISTRY
        from repro.obs.trace import TRACE_EVENT_KINDS

        assert "tw.migrations" not in METRIC_REGISTRY
        assert "migrate" not in TRACE_EVENT_KINDS
        assert "migrate" not in TRACE_FIELD_REGISTRY

    def test_nothing_live_mentions_it(self):
        import re

        root = Path(__file__).resolve().parent.parent
        live = [root / "README.md", root / "DESIGN.md"]
        live += [p for p in (root / "docs").glob("*.md")
                 if p.name != "performance.md"]
        for tree in ("src", "examples", "benchmarks", "tools", "tests"):
            live += (root / tree).rglob("*.py")
        word = re.compile(r"(" + "|".join(self.UNAMBIGUOUS) + r")\b")
        hits = [f"{p.relative_to(root)}: {m.group(1)}"
                for p in live if p != Path(__file__).resolve()
                for m in word.finditer(p.read_text())]
        assert not hits, hits


class TestScanScheduling:
    """The Time Warp engine picks each machine's next LP by one linear
    pass over its hosted LPs; the lazy ready-heap scheduler it kept for
    large LP fleets, which no pipeline run reached, is gone."""

    #: retired with the ready-heap scheduler
    RETIRED = ("repro.sim.timewarp.SCAN_SCHED_MAX_LPS",)
    #: prefixes: ``_global_ready`` also covers ``_global_ready_min``
    UNAMBIGUOUS = ("SCAN_SCHED_MAX_LPS", "_heap_sched", "_mark_ready",
                   "_global_ready")

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
        word = re.compile("(" + "|".join(self.UNAMBIGUOUS) + ")")
        hits = [f"{p.relative_to(root)}: {m.group(1)}"
                for p in live for m in word.finditer(p.read_text())]
        assert not hits, hits


class TestOneStamper:
    """Both front ends stamp through the elaborator: the stream path's
    cell templates, its builder and the per-instance walk are gone."""

    #: retired with the second stamper
    RETIRED = ("repro.circuits.ModuleTemplate", "repro.circuits.StreamBuilder",
               "repro.circuits.stream.ModuleTemplate",
               "repro.circuits.stream.StreamBuilder",
               "repro.circuits.stream._shifted",
               "repro.verilog.elaborate._Elaborator._instantiate")
    UNAMBIGUOUS = ("ModuleTemplate", "StreamBuilder", "_shifted",
                   "_instantiate", "expected_nets")

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
        word = re.compile("(" + "|".join(self.UNAMBIGUOUS) + ")")
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
        nl8 = compile_verilog(ripple_adder_verilog(8))
        d8 = combinational_depth(compile_circuit(nl8))
        assert d8 > d4 >= 4


class TestOneCallerSurface:
    """Every exported name, public method and keyword of ``repro`` has a
    caller outside ``tests/``: what only tests reached is gone."""

    #: retired with the test-only surface
    RETIRED = (
        "repro.sim.Testbench",
        "repro.sim.simulate_sequential",
        "repro.sim.sequential.simulate_sequential",
        "repro.sim.eval_gate",
        "repro.sim.logic.eval_gate",
        "repro.sim.logic.invert",
        "repro.sim.logic.CODE_NAMES",
        "repro.sim.lp.ClusterLP.has_net",
        "repro.sim.cluster.RunStats.idle_fraction",
        "repro.sim.cluster.RunStats.efficiency",
        "repro.sim.compiled.CompiledCircuit.max_arity",
        "repro.hypergraph.stuck_x_report",
        "repro.hypergraph.StuckXReport",
        "repro.hypergraph.analysis.stuck_x_report",
        "repro.hypergraph.within_balance",
        "repro.hypergraph.load_imbalance",
        "repro.hypergraph.part_weights",
        "repro.hypergraph.metrics.within_balance",
        "repro.hypergraph.metrics.load_imbalance",
        "repro.hypergraph.metrics.part_weights",
        "repro.hypergraph.Hypergraph.edge_size",
        "repro.hypergraph.Hypergraph.vertex_degree",
        "repro.hypergraph.Hypergraph.vertex_edges",
        "repro.hypergraph.Hypergraph.iter_edges",
        "repro.hypergraph.Hypergraph.neighbors",
        "repro.hypergraph.PartitionState.part_of",
        "repro.hypergraph.PartitionState.move_gain",
        "repro.hypergraph.PartitionState.max_imbalance",
        "repro.verilog.parse_file",
        "repro.verilog.parser.parse_file",
        "repro.verilog.parser.parse_literal_bits",
        "repro.verilog.is_combinational",
        "repro.verilog.primitives.is_combinational",
        "repro.verilog.netlist.HierNode.find",
        "repro.bench.fig5_simulation_time",
        "repro.bench.table4_best_partitions",
        "repro.core.balance.BalanceConstraint.describe",
        "repro.circuits.noc.NocConfig.routers",
        "repro.obs.metrics_equal",
        "repro.obs.metrics.metrics_equal",
        "repro.obs.trace_fields",
        "repro.obs.registry.trace_fields",
        "repro.obs.analyze.GvtProgress.longest_stall",
        "repro.core.MultilevelConfig",
        "repro.core.multilevel.MultilevelConfig",
    )
    #: names no live file has another use for
    UNAMBIGUOUS = (
        "Testbench", "simulate_sequential", "eval_gate", "CODE_NAMES",
        "has_net", "idle_fraction", "max_arity", "stuck_x_report",
        "StuckXReport", "within_balance", "load_imbalance", "edge_size",
        "vertex_degree", "vertex_edges", "iter_edges", "part_of",
        "move_gain", "max_imbalance", "parse_file", "parse_literal_bits",
        "is_combinational", "fig5_simulation_time",
        "table4_best_partitions", "metrics_equal", "trace_fields",
        "longest_stall", "MultilevelConfig",
    )

    def test_retired_names_do_not_resolve(self):
        for path in self.RETIRED:
            assert check_docs.resolves(path.rsplit(".", 1)[0]), path
            assert not check_docs.resolves(path), path
        with pytest.raises(ImportError):
            import repro.sim.testbench  # noqa: F401

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
