"""Partition persistence: JSON round trip + integrity checks."""

import io
import json
from pathlib import Path

import pytest

from repro.circuits import random_vectors
from repro.core import (
    design_driven_partition,
    dumps_partition,
    load_partition,
    loads_partition,
    save_partition,
)
from repro.errors import PartitionError
from repro.verilog import compile_verilog


@pytest.fixture()
def partition(viterbi_test):
    return design_driven_partition(viterbi_test, k=3, b=10.0, seed=1)


class TestRoundTrip:
    def test_basic(self, viterbi_test, partition, tmp_path):
        path = tmp_path / "p.json"
        save_partition(partition, path)
        loaded = load_partition(path, viterbi_test)
        assert loaded.k == partition.k
        assert loaded.b == partition.b
        assert loaded.cut_size == partition.cut_size
        assert loaded.part_weights.tolist() == partition.part_weights.tolist()
        assert (loaded.gate_assignment() == partition.gate_assignment()).all()

    def test_survives_re_elaboration(self, partition, tmp_path):
        """Same source recompiled on 'another day' still binds."""
        from repro.circuits import circuit_source

        fresh = compile_verilog(circuit_source("viterbi-test"))
        text = dumps_partition(partition)
        loaded = loads_partition(text, fresh)
        assert loaded.cut_size == partition.cut_size

    def test_simulatable_after_load(self, viterbi_test, partition, tmp_path):
        from repro.sim import ClusterSpec, compile_circuit, run_partitioned

        loaded = loads_partition(dumps_partition(partition), viterbi_test)
        clusters, machines = loaded.to_simulation()
        report = run_partitioned(
            compile_circuit(viterbi_test), clusters, machines,
            random_vectors(viterbi_test, 8, seed=2),
            ClusterSpec(num_machines=loaded.k),
        )
        assert report.verified

    def test_json_is_stable(self, partition):
        assert dumps_partition(partition) == dumps_partition(partition)


class TestValidation:
    def test_not_json(self, viterbi_test):
        with pytest.raises(PartitionError, match="not a partition file"):
            loads_partition("not json {", viterbi_test)

    def test_wrong_format(self, viterbi_test):
        with pytest.raises(PartitionError, match="not a repro-partition"):
            loads_partition(json.dumps({"format": "other"}), viterbi_test)

    def test_wrong_version(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        doc["version"] = 99
        with pytest.raises(PartitionError, match="version"):
            loads_partition(json.dumps(doc), viterbi_test)

    def test_wrong_netlist(self, partition, pipeadd):
        with pytest.raises(PartitionError, match="gates"):
            loads_partition(dumps_partition(partition), pipeadd)

    def test_unknown_gate_name(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        doc["clusters"][0]["gates"][0] = "no.such.gate"
        with pytest.raises(PartitionError, match="no gate named"):
            loads_partition(json.dumps(doc), viterbi_test)

    def test_partition_out_of_range(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        doc["clusters"][0]["partition"] = 99
        with pytest.raises(PartitionError, match="outside"):
            loads_partition(json.dumps(doc), viterbi_test)

    def test_duplicate_gate(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        dup = doc["clusters"][0]["gates"][0]
        doc["clusters"][1]["gates"].append(dup)
        with pytest.raises(PartitionError, match="two clusters"):
            loads_partition(json.dumps(doc), viterbi_test)

    def test_incomplete_cover(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        doc["clusters"][0]["gates"].pop()
        with pytest.raises(PartitionError):
            loads_partition(json.dumps(doc), viterbi_test)


    def test_cluster_without_gates_is_located(self, viterbi_test, partition):
        # was HypergraphError "vertex 16 has non-positive weight"
        doc = json.loads(dumps_partition(partition))
        doc["clusters"].insert(16, {"name": "hollow", "partition": 0, "gates": []})
        with pytest.raises(PartitionError) as exc:
            loads_partition(json.dumps(doc), viterbi_test)
        assert str(exc.value) == "partition file: clusters[16].'gates' names no gate"

    def test_dump_reads_names_not_gate_records(self, partition):
        from repro.circuits import load_circuit

        fresh = load_circuit("viterbi-test")
        result = loads_partition(dumps_partition(partition), fresh)
        assert dumps_partition(result) == dumps_partition(partition)

    def test_not_an_object(self, viterbi_test):
        with pytest.raises(PartitionError, match="not a repro-partition"):
            loads_partition("[1, 2]", viterbi_test)

    @pytest.mark.parametrize("field", ["k", "b", "clusters"])
    def test_missing_field_is_named(self, viterbi_test, partition, field):
        doc = json.loads(dumps_partition(partition))
        del doc[field]
        with pytest.raises(PartitionError, match=f"'{field}' must be"):
            loads_partition(json.dumps(doc), viterbi_test)

    @pytest.mark.parametrize("field", ["name", "gates", "partition"])
    def test_missing_cluster_field_is_named(self, viterbi_test, partition, field):
        doc = json.loads(dumps_partition(partition))
        del doc["clusters"][1][field]
        with pytest.raises(PartitionError,
                           match=rf"clusters\[1\]\.'{field}' must be"):
            loads_partition(json.dumps(doc), viterbi_test)

    @pytest.mark.parametrize("field,value", [
        ("k", "two"), ("k", True), ("k", 2.5), ("k", 0), ("b", "wide"),
        ("b", -1), ("clusters", "x"), ("clusters", [7]),
    ])
    def test_mistyped_field_is_named(self, viterbi_test, partition, field, value):
        doc = json.loads(dumps_partition(partition))
        doc[field] = value
        with pytest.raises(PartitionError, match=f"'{field}'|{field}\\[0\\]"):
            loads_partition(json.dumps(doc), viterbi_test)

    def test_unhashable_gate_name(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        doc["clusters"][0]["gates"][0] = ["nested"]
        with pytest.raises(PartitionError, match="no gate named"):
            loads_partition(json.dumps(doc), viterbi_test)

    def test_balanced_is_recomputed_not_copied(self, viterbi_test, partition):
        doc = json.loads(dumps_partition(partition))
        assert doc["balanced"] is True
        for entry in doc["clusters"]:
            entry["partition"] = 0
        loaded = loads_partition(json.dumps(doc), viterbi_test)
        assert loaded.part_weights.tolist()[1:] == [0] * (loaded.k - 1)
        assert loaded.balanced is False
        # and an honest file still loads as balanced
        assert loads_partition(dumps_partition(partition), viterbi_test).balanced


GOLDEN = Path(__file__).parent / "goldens" / "viterbi-test.k4.b2_5.partition.json.ok"


class TestGoldenFile:
    """``repro partition circuit:viterbi-test -k 4 -b 2.5 --save`` as
    written before the clustering became an array: 2 flatten steps, 146
    clusters, cut 58 — the nested names (``ch0_acs0._g7``) and their
    positions pin the flatten splice order."""

    def test_save_is_byte_identical(self, tmp_path):
        from repro.cli import main

        saved = tmp_path / "p.json"
        assert main(["partition", "circuit:viterbi-test", "-k", "4", "-b", "2.5",
                     "--save", str(saved)], out=io.StringIO()) == 0
        assert saved.read_bytes() == GOLDEN.read_bytes()

    def test_golden_reloads_to_the_same_assignment(self, viterbi_test):
        loaded = load_partition(GOLDEN, viterbi_test)
        fresh = design_driven_partition(viterbi_test, k=4, b=2.5)
        assert (loaded.k, loaded.b, loaded.cut_size) == (4, 2.5, 58)
        assert len(loaded.clustering) == len(fresh.clustering) == 146
        assert loaded.clustering.names == fresh.clustering.names
        assert loaded.gate_assignment().tolist() == fresh.gate_assignment().tolist()
        assert fresh.flatten_steps == 2 and fresh.cut_size == 58


class TestCliIntegration:
    def test_save_then_reuse(self, tmp_path):
        from repro.cli import main
        from tests.conftest import PIPEADD_SRC

        vfile = tmp_path / "d.v"
        vfile.write_text(PIPEADD_SRC)
        pfile = tmp_path / "part.json"
        out = io.StringIO()
        assert main(
            ["partition", str(vfile), "-k", "2", "--save", str(pfile)], out=out
        ) == 0
        assert pfile.exists()
        out = io.StringIO()
        assert main(
            ["psim", str(vfile), "--vectors", "8", "--partition", str(pfile)],
            out=out,
        ) == 0
        assert "loaded partition" in out.getvalue()
        assert "verified        : True" in out.getvalue()

    def test_save_requires_design_algorithm(self, tmp_path):
        from repro.cli import main
        from tests.conftest import PIPEADD_SRC

        vfile = tmp_path / "d.v"
        vfile.write_text(PIPEADD_SRC)
        code = main(
            ["partition", str(vfile), "--algorithm", "random",
             "--save", str(tmp_path / "x.json")],
            out=io.StringIO(),
        )
        assert code == 1

    def test_psim_conservative_flag(self, tmp_path):
        from repro.cli import main
        from tests.conftest import PIPEADD_SRC

        vfile = tmp_path / "d.v"
        vfile.write_text(PIPEADD_SRC)
        out = io.StringIO()
        assert main(
            ["psim", str(vfile), "-k", "2", "--vectors", "8", "--conservative"],
            out=out,
        ) == 0
        assert "rollbacks       : 0 " in out.getvalue()
