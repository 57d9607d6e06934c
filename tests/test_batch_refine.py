"""Batch data-parallel refinement (repro.core.batch_refine).

Covers the ISSUE acceptance matrix: the degenerate exits (empty
boundary, k=1, every move rejected by balance), the randomized
never-worse / oracle-consistency property at the fixpoint, the
move_batch scatter against a sequential-move oracle, the incremental
gain cache (``BoundaryGains``) against a fresh ``move_gains_matrix``
after every applied batch, and the ``refiner="batch"`` plumbing through
multilevel, multiway, recursive and the CLI.
"""

import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import ripple_adder_verilog
from repro.cli import main
from repro.core import (
    REFINERS,
    BalanceConstraint,
    batch_refine,
    cut_degrees,
    design_driven_partition,
    multilevel_flat_partition,
    recursive_design_driven_partition,
    validate_refiner,
)
from repro.core.batch_refine import BoundaryGains
from repro.errors import ConfigError, PartitionError
from repro.hypergraph import Hypergraph, PartitionState, hyperedge_cut
from repro.obs import MetricsRecorder
from repro.obs.registry import is_registered
from repro.verilog import compile_verilog


def synthetic_hypergraph(n=600, seed=7) -> Hypergraph:
    """Circuit-shaped: local windows, wide block nets, random wires."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 4, n).tolist()
    edges = []
    for i in range(0, n - 3, 2):
        edges.append([i, i + 1, i + 2])
    for s in range(0, n, 20):
        edges.append(list(range(s, min(s + 20, n))))
    for _ in range(n // 10):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.append([a, b])
    return Hypergraph.from_edges(weights, edges)


class TestValidateRefiner:
    def test_known_names(self):
        for name in REFINERS:
            assert validate_refiner(name) == name

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            validate_refiner("anneal")

    def test_entry_points_reject_unknown(self):
        nl = compile_verilog(ripple_adder_verilog(4))
        for fn in (design_driven_partition, multilevel_flat_partition,
                   recursive_design_driven_partition):
            with pytest.raises(ConfigError):
                fn(nl, 2, 10.0, refiner="anneal")


class TestDegenerateExits:
    def test_empty_boundary_is_noop(self):
        # two disconnected cliques, one per block: zero cut edges
        hg = Hypergraph.from_edges([1] * 6, [[0, 1, 2], [3, 4, 5]])
        state = PartitionState(hg, 2, [0, 0, 0, 1, 1, 1])
        assert state.cut_size == 0
        res = batch_refine(state, BalanceConstraint(2, 10.0))
        assert (res.rounds, res.moves, res.gain) == (0, 0, 0)
        assert state.part.tolist() == [0, 0, 0, 1, 1, 1]

    def test_single_block_returns_immediately(self):
        hg = Hypergraph.from_edges([1] * 4, [[0, 1], [2, 3]])
        state = PartitionState(hg, 1, [0, 0, 0, 0])
        res = batch_refine(state, BalanceConstraint(1, 10.0))
        assert (res.rounds, res.moves, res.gain) == (0, 0, 0)

    def test_blocks_restriction_needs_two(self):
        hg = Hypergraph.from_edges([1] * 4, [[0, 1], [2, 3]])
        state = PartitionState(hg, 3, [0, 1, 2, 2])
        res = batch_refine(state, BalanceConstraint(3, 10.0), blocks=(1,))
        assert res.moves == 0

    def test_blocks_out_of_range(self):
        hg = Hypergraph.from_edges([1] * 4, [[0, 1], [2, 3]])
        state = PartitionState(hg, 2, [0, 1, 0, 1])
        with pytest.raises(PartitionError):
            batch_refine(state, BalanceConstraint(2, 10.0), blocks=(0, 5))

    def test_all_moves_rejected_by_balance(self):
        # a cut edge whose repair would empty a block: with b=0 the
        # weights must stay exactly ideal, so no move is admissible
        hg = Hypergraph.from_edges([1, 1], [[0, 1]])
        state = PartitionState(hg, 2, [0, 1])
        assert state.cut_size == 1
        res = batch_refine(state, BalanceConstraint(2, 0.0))
        assert (res.rounds, res.moves, res.gain) == (0, 0, 0)
        assert state.part.tolist() == [0, 1]

    def test_no_edges(self):
        hg = Hypergraph.from_edges([1, 1, 1], [])
        state = PartitionState(hg, 2, [0, 1, 0])
        res = batch_refine(state, BalanceConstraint(2, 10.0))
        assert (res.rounds, res.moves, res.gain) == (0, 0, 0)


class TestCutDegrees:
    def test_matches_definition(self):
        hg = synthetic_hypergraph(n=120, seed=1)
        rng = np.random.default_rng(2)
        state = PartitionState(hg, 3, rng.integers(0, 3, hg.num_vertices))
        deg = cut_degrees(state)
        for v in range(hg.num_vertices):
            expect = sum(
                1 for e in hg.vertex_edges(v) if state.edge_lambda[e] > 1
            )
            assert deg[v] == expect


class TestFixpointProperties:
    def test_improves_and_stays_consistent(self):
        hg = synthetic_hypergraph()
        rng = np.random.default_rng(3)
        state = PartitionState(hg, 4, rng.integers(0, 4, hg.num_vertices))
        constraint = BalanceConstraint(4, 10.0)
        cut0 = state.cut_size
        res = batch_refine(state, constraint)
        assert res.cut_size == state.cut_size <= cut0
        assert res.gain == cut0 - state.cut_size > 0
        # incremental bookkeeping matches a from-scratch recount
        assert state.cut_size == hyperedge_cut(hg, state.part)
        fresh = PartitionState(hg, 4, state.part.copy())
        assert (fresh.edge_part_count == state.edge_part_count).all()

    def test_fixpoint_is_idempotent(self):
        hg = synthetic_hypergraph(seed=11)
        rng = np.random.default_rng(4)
        state = PartitionState(hg, 3, rng.integers(0, 3, hg.num_vertices))
        constraint = BalanceConstraint(3, 10.0)
        batch_refine(state, constraint)
        again = batch_refine(state, constraint)
        assert (again.rounds, again.moves, again.gain) == (0, 0, 0)

    def test_deterministic(self):
        hg = synthetic_hypergraph(seed=13)
        rng = np.random.default_rng(5)
        init = rng.integers(0, 4, hg.num_vertices)
        outs = []
        for _ in range(2):
            state = PartitionState(hg, 4, init.copy())
            batch_refine(state, BalanceConstraint(4, 10.0))
            outs.append(state.part.copy())
        assert (outs[0] == outs[1]).all()

    def test_balance_preserved_when_started_inside(self):
        hg = synthetic_hypergraph(seed=17)
        constraint = BalanceConstraint(4, 10.0)
        lo, hi = constraint.bounds(hg.total_weight)
        # start from a balanced greedy fill
        order = np.argsort(-hg.vertex_weight, kind="stable")
        part = np.zeros(hg.num_vertices, dtype=np.int64)
        loads = [0, 0, 0, 0]
        for v in order:
            p = int(np.argmin(loads))
            part[v] = p
            loads[p] += int(hg.vertex_weight[v])
        state = PartitionState(hg, 4, part)
        assert constraint.satisfied(state.part_weight)
        batch_refine(state, constraint)
        assert constraint.satisfied(state.part_weight)
        assert all(lo <= w <= hi for w in state.part_weight.tolist())

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_randomized_never_worse(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        m = int(rng.integers(4, 80))
        k = int(rng.integers(2, 5))
        edges = []
        for _ in range(m):
            size = int(rng.integers(2, min(n, 5)))
            edges.append(rng.choice(n, size=size, replace=False).tolist())
        hg = Hypergraph.from_edges(rng.integers(1, 4, n).tolist(), edges)
        state = PartitionState(hg, k, rng.integers(0, k, n))
        constraint = BalanceConstraint(k, float(rng.choice([5.0, 10.0, 20.0])))
        cut0 = state.cut_size
        satisfied0 = constraint.satisfied(state.part_weight)
        res = batch_refine(state, constraint)
        assert state.cut_size <= cut0
        assert res.gain == cut0 - state.cut_size
        assert state.cut_size == hyperedge_cut(hg, state.part)
        if satisfied0:
            assert constraint.satisfied(state.part_weight)
        # fixpoint: a second call finds nothing
        assert batch_refine(state, constraint).moves == 0


class TestMoveBatchOracle:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_sequential_moves(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        m = int(rng.integers(3, 50))
        k = int(rng.integers(2, 5))
        edges = []
        for _ in range(m):
            size = int(rng.integers(2, min(n, 5)))
            edges.append(rng.choice(n, size=size, replace=False).tolist())
        hg = Hypergraph.from_edges(rng.integers(1, 4, n).tolist(), edges)
        init = rng.integers(0, k, n)
        n_moves = int(rng.integers(1, min(n, 8) + 1))
        verts = rng.choice(n, size=n_moves, replace=False)
        targets = rng.integers(0, k, n_moves)

        batched = PartitionState(hg, k, init.copy())
        gain, touched, old_lam, changed = batched.move_batch(verts, targets)

        serial = PartitionState(hg, k, init.copy())
        cut_before = serial.cut_size
        for v, p in zip(verts, targets):
            serial.move(int(v), int(p))

        assert batched.part.tolist() == serial.part.tolist()
        assert batched.cut_size == serial.cut_size
        assert batched.connectivity == serial.connectivity
        assert batched.part_weight.tolist() == serial.part_weight.tolist()
        assert (batched.edge_part_count == serial.edge_part_count).all()
        assert gain == cut_before - serial.cut_size
        # the flipped-edge report covers exactly the λ changes
        fresh = PartitionState(hg, k, init.copy())
        changed = np.flatnonzero(fresh.edge_lambda != batched.edge_lambda)
        assert set(changed.tolist()) <= set(touched.tolist())
        assert (old_lam == fresh.edge_lambda[touched]).all()

    def test_rejects_bad_target(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1]])
        state = PartitionState(hg, 2, [0, 1])
        with pytest.raises(PartitionError):
            state.move_batch([0], [5])

    def test_empty_batch(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1]])
        state = PartitionState(hg, 2, [0, 1])
        gain, touched, old_lam, changed = state.move_batch([], [])
        assert gain == 0 and len(touched) == 0 and len(old_lam) == 0


def assert_cache_exact(cache: BoundaryGains) -> int:
    """Every non-stale vertex's cached best other block and the
    cut-edge degrees equal a from-scratch computation on the current
    state; returns how many vertices were compared."""
    state = cache.state
    assert np.array_equal(cache.cut_deg, cut_degrees(state))
    fresh = np.flatnonzero(~cache.stale)
    gain, soed = state.move_gains_matrix(fresh, cache.targets)
    for i, v in enumerate(fresh.tolist()):
        # lexicographic (cut, soed) argmax over the blocks other than
        # v's own, lowest target index on ties
        pairs = [(g, s, -j, int(t)) for j, (g, s, t) in enumerate(zip(
            gain[:, i].tolist(), soed[:, i].tolist(), cache.targets))
            if t != state.part[v]]
        g, s, _, t = max(pairs)
        assert cache.best_target[v] == t, v
        assert (cache.best_gain[v], cache.best_soed[v]) == (g, s), v
    return len(fresh)


@pytest.fixture
def checked_gains(monkeypatch):
    """Make batch_refine verify its gain cache against the kernel after
    every applied batch and every kick rollback; yields the tallies."""
    seen = {"applied": 0, "rollbacks": 0, "compared": 0}

    class CheckedGains(BoundaryGains):
        def applied(self, moved, touched, old_lam, changed):
            super().applied(moved, touched, old_lam, changed)
            assert self.stale[moved].all()
            seen["applied"] += 1
            seen["compared"] += assert_cache_exact(self)

        def rollback(self, cut_deg):
            super().rollback(cut_deg)
            seen["rollbacks"] += 1
            assert_cache_exact(self)

    # (repro.core re-exports the function under the module's own name)
    monkeypatch.setattr(sys.modules["repro.core.batch_refine"],
                        "BoundaryGains", CheckedGains)
    return seen


def family_hypergraph(family: str, k: int, seed: int):
    """(hypergraph, initial assignment) of one oracle family."""
    rng = np.random.default_rng(seed)
    n = 40 * k
    weights = rng.integers(1, 4, n).tolist()
    edges = [[i, i + 1, i + 2] for i in range(0, n - 2, 2)]
    edges += [rng.choice(n, size=int(rng.integers(2, 6)),
                         replace=False).tolist() for _ in range(n // 2)]
    edge_weights = [1] * len(edges)
    part = rng.integers(0, k, n)
    if family == "spanning_net":
        # one net over every vertex, >= 2 pins in every block: touched
        # by every move, critical for nobody
        edges.append(list(range(n)))
        edge_weights.append(1)
        part[:2 * k] = np.repeat(np.arange(k), 2)
    elif family == "weighted":
        edge_weights = rng.integers(1, 6, len(edges)).tolist()
    elif family == "all_parallel":
        edges = [edges[0]] * 6 + [edges[-1]] * 6 + edges[:n // 4]
        edge_weights = [1] * len(edges)
    else:
        assert family == "plain"
    return Hypergraph.from_edges(weights, edges, edge_weights), part


class TestGainCacheOracle:
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize(
        "family", ["plain", "spanning_net", "weighted", "all_parallel"])
    def test_cache_equals_fresh_kernel_after_every_batch(
            self, checked_gains, family, k):
        hg, part = family_hypergraph(family, k, seed=31 + k)
        state = PartitionState(hg, k, part)
        res = batch_refine(state, BalanceConstraint(k, 20.0))
        assert res.moves > 0
        assert checked_gains["applied"] >= res.rounds > 0
        assert checked_gains["compared"] > 0

    @pytest.mark.parametrize("k", [3, 8])
    def test_blocks_restriction(self, checked_gains, k):
        hg, part = family_hypergraph("plain", k, seed=5)
        state = PartitionState(hg, k, part)
        res = batch_refine(state, BalanceConstraint(k, 40.0),
                           blocks=(0, k - 1))
        assert res.moves > 0 and checked_gains["applied"] > 0

    def test_kick_that_rolls_back(self, checked_gains):
        # the last kick's exploration ends no better than its snapshot:
        # more batches were applied (and checked) than rounds retained
        hg, part = family_hypergraph("weighted", 8, seed=1)
        state = PartitionState(hg, 8, part)
        res = batch_refine(state, BalanceConstraint(8, 20.0))
        assert checked_gains["rollbacks"] == 1
        assert checked_gains["applied"] > res.rounds

    # one 6-pin edge over k=3 blocks plus an untouched bystander edge;
    # (assignment of the six pins, vertex moved, target, edge changed?)
    @pytest.mark.parametrize("pins, v, to, expect_changed", [
        ([0, 0, 0, 1, 1, 1], 0, 1, False),   # 3->2 and 3->4: nothing
        ([0, 0, 1, 1, 1, 1], 0, 1, True),    # count 2->1
        ([0, 1, 1, 1, 1, 1], 0, 1, True),    # count 1->0, lambda 2->1
        ([0, 0, 0, 0, 0, 0], 0, 1, True),    # count 0->1, lambda 1->2
        ([0, 1, 1, 1, 2, 2], 0, 1, True),    # lambda 3->2
        ([0, 0, 0, 1, 1, 1], 0, 2, True),    # lambda 2->3 (0->1 at 2)
        ([0, 0, 0, 1, 2, 2], 3, 2, True),    # 1->0 and 2->3
        ([0, 0, 0, 1, 1, 2], 0, 2, True),    # count 1->2
    ])
    def test_signature_transitions(self, pins, v, to, expect_changed):
        hg = Hypergraph.from_edges(
            [1] * 9, [[0, 1, 2, 3, 4, 5], [6, 7, 8], [5, 6]], [3, 1, 2])
        state = PartitionState(hg, 3, pins + [0, 1, 2])
        cache = BoundaryGains(state, np.arange(3))
        cache.refresh(np.arange(9))
        assert not cache.stale.any()
        others = np.array([u for u in range(6) if u != v])
        rows_before = state.move_gains_matrix(others, cache.targets)
        moved = np.array([v])
        _, touched, old_lam, changed = state.move_batch(moved, [to])
        assert touched.tolist() == [0]
        assert changed.tolist() == [expect_changed]
        cache.applied(moved, touched, old_lam, changed)
        expect_stale = set(range(6)) if expect_changed else {v}
        assert set(np.flatnonzero(cache.stale).tolist()) == expect_stale
        assert assert_cache_exact(cache) == 9 - len(expect_stale)
        # ... and the rule is tight where it says "changed": some
        # other pin's rows really did move
        if expect_changed:
            gain, soed = state.move_gains_matrix(others, cache.targets)
            assert not (np.array_equal(rows_before[0], gain)
                        and np.array_equal(rows_before[1], soed))

    def test_moved_vertex_is_stale_without_any_signature_change(self):
        # every edge of the mover keeps >= 2 pins in both blocks, so no
        # signature flips; the mover itself must still be re-scored
        hg = Hypergraph.from_edges(
            [1] * 8, [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 4, 5, 6]])
        state = PartitionState(hg, 2, [0, 0, 0, 0, 1, 1, 1, 1])
        cache = BoundaryGains(state, np.arange(2))
        cache.refresh(np.arange(8))
        moved = np.array([0])
        _, touched, old_lam, changed = state.move_batch(moved, [1])
        assert touched.tolist() == [0, 1] and not changed.any()
        cache.applied(moved, touched, old_lam, changed)
        assert np.flatnonzero(cache.stale).tolist() == [0]
        assert cache.refresh(np.arange(8)) == 1
        assert assert_cache_exact(cache) == 8

    def test_wide_net_is_rescored_once(self):
        # a 5000-pin net cut across all four blocks (the clock) plus
        # 2-pin chains: every vertex is on the boundary and every move
        # touches the net, yet only the first round scores its pins —
        # later rounds pay for the movers and their chain neighbours
        n, k = 5000, 4
        rng = np.random.default_rng(41)
        part = np.repeat(np.arange(k), n // k)
        flipped = rng.choice(n, size=200, replace=False)
        part[flipped] = (part[flipped] + 1 + rng.integers(0, k - 1, 200)) % k
        chains = [[i, i + 1] for i in range(n - 1) if (i + 1) % 50]
        hg = Hypergraph.from_edges([1] * n, [list(range(n))] + chains)
        state = PartitionState(hg, k, part)
        rec = MetricsRecorder()
        res = batch_refine(state, BalanceConstraint(k, 10.0), max_kicks=0,
                           recorder=rec)
        counters = rec.as_counters()
        assert res.rounds > 1 and res.moves > 0
        assert counters["part.batch.boundary.max"] == n
        # a mover stales itself and the <= 2 far ends of its chain edges
        assert counters["part.batch.gathered"] <= n + 3 * res.moves


class TestBlocksRestriction:
    def test_only_listed_blocks_move(self):
        hg = synthetic_hypergraph(n=200, seed=19)
        rng = np.random.default_rng(6)
        init = rng.integers(0, 3, hg.num_vertices)
        state = PartitionState(hg, 3, init.copy())
        frozen = np.flatnonzero(init == 2)
        batch_refine(state, BalanceConstraint(3, 30.0), blocks=(0, 1))
        assert (state.part[frozen] == 2).all()
        moved = np.flatnonzero(state.part != init)
        assert set(state.part[moved].tolist()) <= {0, 1}


class TestIntegration:
    def test_entry_points_accept_batch(self):
        nl = compile_verilog(ripple_adder_verilog(16))
        for fn in (design_driven_partition, multilevel_flat_partition,
                   recursive_design_driven_partition):
            r = fn(nl, 3, 10.0, seed=1, refiner="batch")
            assert r.balanced

    def test_metrics_are_registered(self):
        hg = synthetic_hypergraph(n=300, seed=23)
        rng = np.random.default_rng(7)
        state = PartitionState(hg, 3, rng.integers(0, 3, hg.num_vertices))
        rec = MetricsRecorder()
        batch_refine(state, BalanceConstraint(3, 10.0), recorder=rec)
        counters = rec.as_counters()
        assert counters["partition.batch_refine.calls"] == 1
        assert counters["part.batch.rounds"] >= 1
        assert counters["part.batch.moves"] >= 1
        for name in counters:
            assert is_registered(name), name

    def test_cli_partition_refiner_flag(self, tmp_path):
        src = tmp_path / "a.v"
        src.write_text(ripple_adder_verilog(8))
        out = io.StringIO()
        rc = main(["partition", str(src), "-k", "2", "--refiner", "batch"],
                  out=out)
        assert rc == 0
        assert "refiner=batch" in out.getvalue()
