"""Circuit generator tests: functional correctness + structural shape."""

import itertools

import numpy as np
import pytest

from repro.circuits import (
    PAPER_CONFIG,
    TEST_CONFIG,
    ViterbiConfig,
    available_circuits,
    circuit_source,
    counter_verilog,
    lfsr_verilog,
    load_circuit,
    mesh_verilog,
    multiplier_verilog,
    pipeline_verilog,
    random_logic_verilog,
    random_vectors,
    ripple_adder_verilog,
    viterbi_verilog,
)
from repro.errors import ConfigError
from repro.sim import InputEvent, SequentialSimulator, compile_circuit
from repro.verilog import compile_verilog


def run_with(nl, cc, pin_values, extra=()):
    sim = SequentialSimulator(cc)
    evs = [InputEvent(0, net, v) for net, v in pin_values] + list(extra)
    sim.add_inputs(sorted(evs, key=lambda e: e.time))
    sim.run()
    return sim


class TestAdder:
    def test_random_cases(self):
        nl = compile_verilog(ripple_adder_verilog(6))
        cc = compile_circuit(nl)
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, b, ci = int(rng.integers(64)), int(rng.integers(64)), int(rng.integers(2))
            pins = [(nl.inputs[i], (a >> i) & 1) for i in range(6)]
            pins += [(nl.inputs[6 + i], (b >> i) & 1) for i in range(6)]
            pins += [(nl.inputs[12], ci)]
            sim = run_with(nl, cc, pins)
            o = sim.output_values()
            got = sum(o[i] << i for i in range(6)) + (o[6] << 6)
            assert got == a + b + ci

    def test_hierarchical_has_instances(self):
        nl = compile_verilog(ripple_adder_verilog(6))
        assert len(nl.hierarchy.children) == 6


class TestMultiplier:
    def test_exhaustive_3bit(self):
        nl = compile_verilog(multiplier_verilog(3))
        cc = compile_circuit(nl)
        for a, b in itertools.product(range(8), range(8)):
            pins = [(nl.inputs[i], (a >> i) & 1) for i in range(3)]
            pins += [(nl.inputs[3 + i], (b >> i) & 1) for i in range(3)]
            sim = run_with(nl, cc, pins)
            o = sim.output_values()
            assert sum(o[i] << i for i in range(6)) == a * b

    def test_width_validation(self):
        with pytest.raises(ConfigError):
            multiplier_verilog(1)


class TestCounter:
    def test_counts_modulo(self):
        nl = compile_verilog(counter_verilog(4))
        cc = compile_circuit(nl)
        clk, rst = nl.inputs
        evs = [InputEvent(0, clk, 0), InputEvent(0, rst, 1),
               InputEvent(4, clk, 1), InputEvent(8, clk, 0),
               InputEvent(10, rst, 0)]
        ticks = 11
        for i in range(ticks):
            evs += [InputEvent(12 + 8 * i, clk, 1), InputEvent(16 + 8 * i, clk, 0)]
        sim = SequentialSimulator(cc)
        sim.add_inputs(evs)
        sim.run()
        o = sim.output_values()
        assert sum(o[i] << i for i in range(4)) == ticks % 16


class TestLfsr:
    def test_leaves_zero_state(self):
        nl = compile_verilog(lfsr_verilog(8))
        cc = compile_circuit(nl)
        clk, rst = nl.inputs
        evs = [InputEvent(0, clk, 0), InputEvent(0, rst, 1),
               InputEvent(4, clk, 1), InputEvent(8, clk, 0),
               InputEvent(10, rst, 0)]
        for i in range(12):
            evs += [InputEvent(12 + 8 * i, clk, 1), InputEvent(16 + 8 * i, clk, 0)]
        sim = SequentialSimulator(cc)
        sim.add_inputs(evs)
        sim.run()
        assert any(v == 1 for v in sim.output_values())


class TestViterbiGenerator:
    def test_paper_config_instance_count(self):
        assert PAPER_CONFIG.instances == 388

    def test_instances_formula_matches_elaboration(self, viterbi_test):
        assert len(viterbi_test.hierarchy.children) == TEST_CONFIG.instances

    def test_smu_blocks_are_heavy_at_bench_scale(self):
        cfg = ViterbiConfig(channels=1, states=8, traceback=16, width=5, smu_cols=8)
        nl = compile_verilog(viterbi_verilog(cfg))
        sizes = {n.name: n.total_gates for n in nl.hierarchy.children.values()}
        smu = [v for k, v in sizes.items() if "smu" in k]
        other = [v for k, v in sizes.items() if "smu" not in k]
        assert max(smu) > max(other)  # the size skew the paper's b exploits

    def test_two_level_hierarchy(self, viterbi_test):
        smu = next(
            n for n in viterbi_test.hierarchy.children.values() if "smu" in n.name
        )
        assert smu.children  # columns inside the block

    def test_decoder_settles_after_reset(self, viterbi_test, viterbi_test_circuit):
        evs = random_vectors(viterbi_test, 20, seed=2)
        sim = SequentialSimulator(viterbi_test_circuit)
        sim.add_inputs(evs)
        sim.run()
        assert all(v in (0, 1) for v in sim.output_values())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ViterbiConfig(states=6)
        with pytest.raises(ConfigError):
            ViterbiConfig(channels=0)
        with pytest.raises(ConfigError):
            ViterbiConfig(width=1)

    def test_tail_block_generated(self):
        cfg = ViterbiConfig(channels=1, states=4, traceback=5, width=4, smu_cols=3)
        src = viterbi_verilog(cfg)
        assert "vit_smu_tail" in src
        nl = compile_verilog(src)
        assert nl.num_gates > 0


class TestOtherGenerators:
    def test_pipeline_stage_structure(self):
        nl = compile_verilog(pipeline_verilog(4, 6))
        assert len(nl.hierarchy.children) == 8  # add+reg per stage

    def test_mesh_structure(self):
        nl = compile_verilog(mesh_verilog(3, 3, 4))
        assert len(nl.hierarchy.children) == 9

    def test_random_logic_compiles_and_runs(self):
        for seed in (0, 1, 2):
            nl = compile_verilog(random_logic_verilog(80, 6, seed=seed))
            cc = compile_circuit(nl)
            evs = random_vectors(nl, 5, seed=seed)
            sim = SequentialSimulator(cc)
            sim.add_inputs(evs)
            sim.run()

    def test_registry_complete(self):
        names = available_circuits()
        assert "viterbi-bench" in names
        assert "adder8" in names
        for name in names:
            assert isinstance(circuit_source(name), str)

    def test_registry_unknown(self):
        with pytest.raises(ConfigError, match="unknown circuit"):
            load_circuit("bogus")
