"""Pre-simulation searches (brute force + the paper's Figure 3 heuristic)."""

import pytest

from repro.circuits import random_vectors
from repro.core import brute_force_presim, evaluate_partition, heuristic_presim
from repro.core import design_driven_partition, partition_netlist
from repro.errors import ConfigError
from repro.sim import ClusterSpec, TimeWarpConfig, compile_circuit


KS = (2, 3)
BS = (7.5, 12.5)


@pytest.fixture(scope="module")
def study(viterbi_test):
    events = random_vectors(viterbi_test, 10, seed=2)
    return brute_force_presim(
        viterbi_test, events, ks=KS, bs=BS, seed=1,
        config=TimeWarpConfig(gvt_interval=64),
    )


def _point_row(p):
    """The full structural outcome of one evaluated (k, b) point."""
    return (p.k, p.b, p.cut_size, p.balanced, repr(p.sim_time),
            repr(p.speedup), p.messages, p.rollbacks,
            p.report.committed_events, p.report.processed_events,
            p.report.anti_messages, p.report.rolled_back_events)


class TestParallelSweep:
    """Worker count is a wall-time knob only: the fan-out over a
    process pool must reproduce the serial sweep bit for bit."""

    def test_brute_force_workers_identical(self, viterbi_test):
        events = random_vectors(viterbi_test, 8, seed=2)
        kw = dict(ks=KS, bs=BS, seed=1,
                  config=TimeWarpConfig(gvt_interval=64))
        serial = brute_force_presim(viterbi_test, events, **kw)
        parallel = brute_force_presim(viterbi_test, events, workers=2, **kw)
        assert [_point_row(p) for p in serial.points] == \
            [_point_row(p) for p in parallel.points]
        assert _point_row(serial.best) == _point_row(parallel.best)
        assert serial.runs == parallel.runs

    def test_heuristic_workers_identical(self, viterbi_test):
        events = random_vectors(viterbi_test, 8, seed=2)
        kw = dict(max_k=3, seed=1, config=TimeWarpConfig(gvt_interval=64))
        serial = heuristic_presim(viterbi_test, events, **kw)
        parallel = heuristic_presim(viterbi_test, events, workers=2, **kw)
        assert [_point_row(p) for p in serial.points] == \
            [_point_row(p) for p in parallel.points]
        assert _point_row(serial.best) == _point_row(parallel.best)
        assert serial.runs == parallel.runs


class TestBruteForce:
    def test_grid_covered(self, study):
        combos = {(p.k, p.b) for p in study.points}
        assert combos == {(k, b) for k in KS for b in BS}
        assert study.runs == len(KS) * len(BS)

    def test_best_is_max_speedup(self, study):
        assert study.best.speedup == max(p.speedup for p in study.points)

    def test_best_per_k(self, study):
        per_k = study.best_per_k()
        assert set(per_k) == set(KS)
        for k, p in per_k.items():
            assert p.k == k
            assert p.speedup == max(q.speedup for q in study.points if q.k == k)

    def test_points_carry_simulation_stats(self, study):
        for p in study.points:
            assert p.sim_time > 0
            assert p.report.verified
            assert p.messages >= 0 and p.rollbacks >= 0

    def test_empty_grid_rejected(self, viterbi_test):
        with pytest.raises(ConfigError):
            brute_force_presim(viterbi_test, [], ks=(), bs=(7.5,))

    def test_seed_changes_results(self, viterbi_test, study):
        events = random_vectors(viterbi_test, 10, seed=2)
        other = brute_force_presim(
            viterbi_test, events, ks=KS, bs=BS, seed=2,
            config=TimeWarpConfig(gvt_interval=64),
        )
        assert [_point_row(p) for p in other.points] != \
            [_point_row(p) for p in study.points]

    def test_rows_are_the_point_scalars(self, study):
        p = study.points[0]
        assert p.to_row() == {
            "k": p.k, "b": p.b, "cut_size": p.cut_size,
            "balanced": p.balanced, "sim_time": p.sim_time,
            "speedup": p.speedup, "messages": p.messages,
            "rollbacks": p.rollbacks,
        }


class TestHeuristic:
    def test_runs_at_most_brute_force(self, viterbi_test, study):
        events = random_vectors(viterbi_test, 10, seed=2)
        heur = heuristic_presim(
            viterbi_test, events, max_k=max(KS), seed=1,
            b_start=7.5, b_stop=15.0, b_step=5.0,
            config=TimeWarpConfig(gvt_interval=64),
        )
        # fig-3 sweep: at most (k-1) * len(b grid) runs
        assert 1 <= heur.runs <= (max(KS) - 1) * 2
        assert heur.best is not None

    def test_needs_k2(self, viterbi_test):
        with pytest.raises(ConfigError, match="max_k"):
            heuristic_presim(viterbi_test, [], max_k=1)

    def test_heuristic_picks_from_evaluated(self, viterbi_test):
        events = random_vectors(viterbi_test, 10, seed=2)
        heur = heuristic_presim(
            viterbi_test, events, max_k=3, seed=1,
            config=TimeWarpConfig(gvt_interval=64),
        )
        assert heur.best in heur.points


class TestPartitionNetlist:
    """The one design / multilevel dispatch of presim points and CLI."""

    def test_backends_match_their_entry_points(self, viterbi_test):
        from repro.core import multilevel_flat_partition

        design = partition_netlist(viterbi_test, 3, 10.0, seed=1,
                                   pairing="cut", refiner="batch")
        direct = design_driven_partition(viterbi_test, 3, 10.0, seed=1,
                                         pairing="cut", refiner="batch")
        assert design.gate_assignment().tolist() == \
            direct.gate_assignment().tolist()
        ml = partition_netlist(viterbi_test, 3, 10.0, "multilevel", seed=1)
        assert ml.assignment.tolist() == multilevel_flat_partition(
            viterbi_test, 3, 10.0, seed=1).assignment.tolist()

    def test_recorder_reaches_the_backend(self, viterbi_test):
        from repro.obs import MetricsRecorder

        for algorithm, counter in (("design", "part.cone.cones"),
                                   ("multilevel", "part.ml.levels")):
            rec = MetricsRecorder()
            partition_netlist(viterbi_test, 2, 10.0, algorithm, recorder=rec)
            assert counter in rec.as_counters()

    def test_unknown_algorithm(self, viterbi_test):
        with pytest.raises(ConfigError, match="metis"):
            partition_netlist(viterbi_test, 2, 10.0, "metis")


class TestEvaluatePartition:
    def test_single_point(self, viterbi_test):
        events = random_vectors(viterbi_test, 10, seed=2)
        part = design_driven_partition(viterbi_test, k=2, b=10.0, seed=1)
        circuit = compile_circuit(viterbi_test)
        point = evaluate_partition(
            circuit, part, events, ClusterSpec(num_machines=1),
            TimeWarpConfig(gvt_interval=64),
        )
        assert point.k == 2 and point.b == 10.0
        assert point.cut_size == part.cut_size
        assert point.speedup > 0
