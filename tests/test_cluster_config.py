"""ClusterSpec / TimeWarpConfig validation and stats helpers."""

import pytest

from repro.errors import ConfigError
from repro.sim import ClusterSpec, RunStats, TimeWarpConfig
from repro.sim.cluster import MachineStats


class TestClusterSpec:
    def test_defaults_valid(self):
        spec = ClusterSpec(num_machines=4)
        assert spec.event_cost > 0
        assert spec.msg_latency > spec.event_cost

    def test_zero_machines_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_machines=0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError, match="event_cost"):
            ClusterSpec(num_machines=1, event_cost=-1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError, match="msg_latency"):
            ClusterSpec(num_machines=1, msg_latency=-0.1)


class TestTimeWarpConfig:
    def test_defaults_valid(self):
        cfg = TimeWarpConfig()
        assert cfg.lazy_cancellation
        assert cfg.checkpoint_interval >= 1

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(checkpoint_interval=0), "checkpoint_interval"),
            (dict(gvt_interval=0), "gvt_interval"),
            (dict(optimism_window=0), "optimism_window"),
            (dict(stall_threshold=0), "stall_threshold"),
            (dict(migration_threshold=0.0), "migration_threshold"),
        ],
    )
    def test_invalid_values(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            TimeWarpConfig(**kwargs)

    def test_window_none_allowed(self):
        assert TimeWarpConfig(optimism_window=None).optimism_window is None


class TestRunStats:
    def test_efficiency(self):
        s = RunStats(num_machines=4, speedup=2.0)
        assert s.efficiency() == 0.5

    def test_efficiency_empty(self):
        assert RunStats().efficiency() == 0.0

    def test_idle_fraction_bounds(self):
        s = RunStats(num_machines=2, wall_time=10.0)
        s.machines = [MachineStats(busy_time=5.0), MachineStats(busy_time=10.0)]
        assert 0.0 <= s.idle_fraction() <= 1.0
        assert s.idle_fraction() == pytest.approx(0.25)

    def test_summary_mentions_key_numbers(self):
        s = RunStats(num_machines=3, wall_time=1.0, sequential_wall_time=2.0,
                     speedup=2.0, messages=42, rollbacks=7)
        text = s.summary()
        assert "k=3" in text and "42" in text and "2.00" in text
