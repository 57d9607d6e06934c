"""The production multilevel k-way engine (repro.core.multilevel).

Covers a pinned assignment digest, the coarsening invariants (total vertex weight
preserved per level, no merged cluster past the balance-implied cap),
the randomized projection oracle (the projected assignment's cut equals
a from-scratch recount at every level), and the CLI / presim plumbing.
"""

import gc
import hashlib
import io
import json
import weakref

import numpy as np
import pytest

from repro.circuits import circuit_source, load_circuit, random_vectors
import repro.core.multilevel as multilevel_mod
from repro.cli import main
from repro.core import (
    BalanceConstraint,
    MultilevelConfig,
    brute_force_presim,
    coarsen_hypergraph,
    direct_kway_partition,
    multilevel_flat_partition,
    multilevel_kway_partition,
)
from repro.errors import ConfigError, PartitionError
from repro.hypergraph import Hypergraph, hyperedge_cut, project_hypergraph
from repro.obs import MetricsRecorder
from repro.obs.registry import is_registered


def synthetic_hypergraph(n=1200, seed=3) -> Hypergraph:
    """Deterministic circuit-shaped hypergraph: local windows, wide
    block nets, sparse random long-range pairs, weights in 1..3."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 4, n).tolist()
    edges = []
    for i in range(0, n - 3, 2):
        edges.append([i, i + 1, i + 2])
    for s in range(0, n, 24):
        edges.append(list(range(s, min(s + 24, n))))
    for _ in range(n // 12):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.append([a, b])
    return Hypergraph.from_edges(weights, edges)


@pytest.fixture(scope="module")
def hg():
    return synthetic_hypergraph()


class TestCoarsening:
    def test_invariants_per_level(self, hg):
        constraint = BalanceConstraint(4, 10.0)
        coarsest, levels = coarsen_hypergraph(hg, constraint, seed=1)
        assert levels, "expected at least one coarsening level"
        current = hg
        for level in levels:
            assert level.fine is current
            # total vertex weight is preserved by contraction
            assert level.coarse.total_weight == level.fine.total_weight
            # the mapping is a surjection onto [0, coarse_n)
            assert level.mapping.shape == (level.fine.num_vertices,)
            assert set(level.mapping.tolist()) == set(
                range(level.coarse.num_vertices))
            # strictly shrinking hierarchy
            assert level.coarse.num_vertices < level.fine.num_vertices
            # no *merged* cluster exceeds the cluster weight cap
            counts = np.bincount(level.mapping,
                                 minlength=level.coarse.num_vertices)
            merged = np.flatnonzero(counts >= 2)
            cw = np.asarray(level.coarse.vertex_weight_list)
            assert (cw[merged] <= level.max_cluster_weight).all()
            # the join tallies account for every merged vertex
            assert (level.proposed - level.conflict_dropped
                    - level.cap_dropped
                    == level.fine.num_vertices - level.coarse.num_vertices)
            assert level.sub_rounds >= 1 and level.rating > 0
            current = level.coarse
        assert coarsest is current

    def test_stop_size_honored(self, hg):
        constraint = BalanceConstraint(2, 10.0)
        cfg = MultilevelConfig(coarsest_vertices=300, coarsest_per_part=10)
        coarsest, levels = coarsen_hypergraph(hg, constraint, config=cfg)
        # stopped at/above the target, and the level before was above it
        assert levels[-1].fine.num_vertices > 300

    def test_projection_is_cut_exact(self, hg):
        """Randomized oracle: for any assignment, the coarse cut equals
        the fine cut of the projected assignment — per level and for
        arbitrary contractions no clustering produced."""
        constraint = BalanceConstraint(3, 10.0)
        _, levels = coarsen_hypergraph(hg, constraint, seed=2)
        rng = np.random.default_rng(11)
        for level in levels:
            coarse_assign = rng.integers(0, 3, level.coarse.num_vertices)
            fine_assign = coarse_assign[level.mapping]
            assert (hyperedge_cut(level.coarse, coarse_assign)
                    == hyperedge_cut(level.fine, fine_assign))
        # arbitrary random mapping, not produced by clustering
        mapping = rng.integers(0, 100, hg.num_vertices)
        mapping[np.arange(100)] = np.arange(100)  # keep it surjective
        coarse = project_hypergraph(hg, mapping)
        assert coarse.total_weight == hg.total_weight
        coarse_assign = rng.integers(0, 4, coarse.num_vertices)
        assert (hyperedge_cut(coarse, coarse_assign)
                == hyperedge_cut(hg, coarse_assign[mapping]))

    def test_bad_mapping_rejected(self, hg):
        with pytest.raises(PartitionError):
            project_hypergraph(hg, np.zeros(3, dtype=np.int64))

    def test_cluster_weights_are_exact_above_2_53(self):
        """Cluster weights are integer sums at any magnitude: two
        vertices of weight 2^53 + 1 make a cluster of 2^54 + 2, which a
        float sum rounds to 2^54."""
        big = 2**53 + 1
        hg = Hypergraph.from_edges([big, big, 3], [[0, 1], [1, 2]])
        coarse = project_hypergraph(hg, np.array([0, 0, 1]))
        assert coarse.vertex_weight.tolist() == [2 * big, 3]
        assert coarse.total_weight == hg.total_weight
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            weights = rng.integers(1, 2**57, n).tolist()
            hg = Hypergraph.from_edges(
                weights, [rng.integers(0, n, 3).tolist() for _ in range(n)])
            mapping = rng.integers(0, n // 2 + 1, n)
            _, mapping = np.unique(mapping, return_inverse=True)
            want = [0] * (int(mapping.max()) + 1)
            for w, c in zip(weights, mapping.tolist()):
                want[c] += w
            assert project_hypergraph(
                hg, mapping).vertex_weight.tolist() == want


class TestMultilevelKway:
    @pytest.mark.parametrize("k,b", [(2, 10.0), (4, 10.0), (3, 5.0)])
    def test_cut_oracle_and_balance(self, hg, k, b):
        r = multilevel_kway_partition(hg, k, b, seed=1)
        assert r.cut_size == hyperedge_cut(hg, r.assignment)
        assert r.assignment.shape == (hg.num_vertices,)
        assert set(np.unique(r.assignment)) <= set(range(k))
        assert r.balanced
        lo, hi = BalanceConstraint(k, b).bounds(hg.total_weight)
        assert all(lo <= w <= hi for w in r.part_weights.tolist())

    def test_assignment_digest_is_pinned(self, hg):
        """sha256(assignment) of one seeded run.  Re-pinned when
        synchronous sub-round clustering replaced the heavy-edge pair
        matching loop: the hierarchy under the partition is a different
        one (6 levels of clusters, was 4 of pairs), so every
        ``core.multilevel`` digest moved with it (cut 74)."""
        r = multilevel_kway_partition(hg, 4, 10.0, seed=5)
        assert (r.cut_size, r.levels) == (74, 6)
        assert hashlib.sha256(r.assignment.tobytes()).hexdigest() == (
            "109638cc557a51934509e654f05f8c0c"
            "6dc441ea13fbb868c95fed9feb34fc7b")

    def test_beats_or_matches_direct(self, hg):
        ml = multilevel_kway_partition(hg, 4, 10.0, seed=1)
        direct = direct_kway_partition(hg, 4, 10.0, seed=1)
        assert ml.balanced and direct.balanced
        assert ml.cut_size <= direct.cut_size

    def test_counters_registered_and_sane(self, hg):
        rec = MetricsRecorder()
        r = multilevel_kway_partition(hg, 4, 10.0, seed=1, recorder=rec)
        counters = rec.as_counters()
        unregistered = [n for n in counters if not is_registered(n)]
        assert not unregistered, unregistered
        assert counters["part.ml.levels"] == r.levels > 0
        assert counters["part.ml.coarse_vertices"] == r.coarse_vertices
        # the counter keeps its pair-matching name; it counts vertices
        # merged into another cluster, fine - coarse over all levels
        assert (counters["part.ml.matched_pairs"]
                == hg.num_vertices - r.coarse_vertices)
        assert counters["part.ml.match_weight"] > 0
        assert counters["part.ml.initial_cut"] == r.initial_cut
        assert counters["part.ml.uncoarsen_gain"] >= 0
        assert counters["partition.coarsen.calls"] == 1
        assert counters["partition.uncoarsen.calls"] == 1
        # recorder presence never changes the partition
        bare = multilevel_kway_partition(hg, 4, 10.0, seed=1)
        assert np.array_equal(bare.assignment, r.assignment)

    def test_level_cuts_track_uncoarsening(self, hg):
        r = multilevel_kway_partition(hg, 4, 10.0, seed=1)
        assert len(r.level_cuts) == r.levels
        assert r.level_cuts[-1] == r.cut_size
        assert r.history  # provenance lines present

    def test_level_joins_are_the_hierarchy_that_ran(self, hg):
        r = multilevel_kway_partition(hg, 4, 10.0, seed=1)
        _, levels = coarsen_hypergraph(hg, BalanceConstraint(4, 10.0), seed=1)
        assert r.level_joins == [lv.joins for lv in levels]
        assert len(r.level_joins) == r.levels
        assert r.level_joins[0][0] == hg.num_vertices
        assert r.level_joins[-1][1] == r.coarse_vertices
        for fine, coarse, sub_rounds, proposed, conflict, cap in r.level_joins:
            # every merge is an admitted join
            assert fine - coarse == proposed - conflict - cap
            assert 1 <= sub_rounds

    @pytest.mark.parametrize("refiner", ["fm", "batch"])
    def test_uncoarsening_releases_coarse_levels(self, hg, refiner,
                                                 monkeypatch):
        """When the finest level is refined, no coarser hypergraph is
        still alive: uncoarsening keeps only the level it refines and
        the mappings above it."""
        plain = multilevel_kway_partition(hg, 4, 10.0, seed=1,
                                          refiner=refiner)
        coarse: list[weakref.ref] = []
        project = multilevel_mod.project_hypergraph

        def tracked(fine, mapping):
            graph = project(fine, mapping)
            coarse.append(weakref.ref(graph))
            return graph

        alive_at_finest: list[int] = []
        refine = multilevel_mod._refine_level

        def spy(state, *args):
            if state.hg is hg:
                gc.collect()
                alive_at_finest.append(
                    sum(ref() is not None for ref in coarse))
            return refine(state, *args)

        monkeypatch.setattr(multilevel_mod, "project_hypergraph", tracked)
        monkeypatch.setattr(multilevel_mod, "_refine_level", spy)
        r = multilevel_kway_partition(hg, 4, 10.0, seed=1, refiner=refiner)
        assert len(coarse) >= r.levels > 0
        assert alive_at_finest == [0]
        assert (r.levels, r.level_joins) == (plain.levels, plain.level_joins)
        assert np.array_equal(r.assignment, plain.assignment)

    def test_validation(self, hg):
        with pytest.raises(PartitionError):
            multilevel_kway_partition(hg, 0, 10.0)
        with pytest.raises(PartitionError):
            multilevel_kway_partition(hg, hg.num_vertices + 1, 10.0)

    def test_direct_engine_is_flat(self, hg):
        r = direct_kway_partition(hg, 3, 10.0, seed=2)
        assert r.levels == 0
        assert r.coarse_vertices == hg.num_vertices
        assert r.cut_size == hyperedge_cut(hg, r.assignment)

    def test_to_simulation_partitions_every_gate(self):
        netlist = load_circuit("cpu-test")
        r = multilevel_flat_partition(netlist, 3, 10.0, seed=0)
        clusters, machines = r.to_simulation()
        flat = sorted(g for c in clusters for g in c)
        assert flat == list(range(netlist.num_gates))
        assert len(machines) == len(clusters)
        assert np.array_equal(r.gate_assignment(), r.assignment)


class TestIntegration:
    def test_cli_partition_multilevel_metrics(self, tmp_path):
        src = tmp_path / "c.v"
        src.write_text(circuit_source("cpu-test"))
        metrics = tmp_path / "m.json"
        out = io.StringIO()
        rc = main(["partition", str(src), "-k", "3", "-b", "10",
                   "--algorithm", "multilevel",
                   "--metrics", str(metrics)], out=out)
        assert rc == 0
        text = out.getvalue()
        assert "multilevel" in text and "levels:" in text
        doc = json.loads(metrics.read_text())
        assert doc["counters"]["part.ml.levels"] >= 1
        assert doc["counters"]["part.balanced"] == 1
        assert doc["counters"]["part.cut_size"] >= 0

    def test_cli_search_accepts_algorithm(self, tmp_path):
        src = tmp_path / "c.v"
        src.write_text(circuit_source("counter8"))
        out = io.StringIO()
        rc = main(["search", str(src), "--max-k", "2", "--vectors", "5",
                   "--algorithm", "multilevel"], out=out)
        assert rc == 0
        assert "best:" in out.getvalue()

    def test_presim_multilevel_backend(self):
        netlist = load_circuit("counter8")
        events = random_vectors(netlist, 5, seed=0)
        study = brute_force_presim(netlist, events, ks=(2,), bs=(10.0,),
                                   algorithm="multilevel")
        assert study.runs == 1
        assert study.best.partition.balanced

    def test_presim_rejects_unknown_algorithm(self):
        netlist = load_circuit("counter8")
        events = random_vectors(netlist, 5, seed=0)
        with pytest.raises(ConfigError):
            brute_force_presim(netlist, events, ks=(2,), bs=(10.0,),
                               algorithm="metis")
