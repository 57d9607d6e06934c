"""Formula 1 (load-balancing constraint) math."""

import numpy as np
import pytest

from repro.core import BalanceConstraint, PAPER_B_VALUES, PAPER_K_VALUES
from repro.errors import ConfigError


class TestBounds:
    def test_paper_formula(self):
        c = BalanceConstraint(k=4, b=10.0)
        lo, hi = c.bounds(1000)
        assert lo == pytest.approx(1000 * (0.25 - 0.10))
        assert hi == pytest.approx(1000 * (0.25 + 0.10))

    def test_lower_bound_clamped_at_zero(self):
        c = BalanceConstraint(k=4, b=50.0)
        lo, hi = c.bounds(100)
        assert lo == 0.0

    def test_satisfied_exact_split(self):
        c = BalanceConstraint(k=2, b=2.5)
        assert c.satisfied(np.array([500, 500]))

    def test_satisfied_edge_of_band(self):
        c = BalanceConstraint(k=2, b=10.0)
        assert c.satisfied(np.array([600, 400]))
        assert not c.satisfied(np.array([601, 399]))

    def test_pairwise_difference_bound(self):
        """The paper: loads differ by at most 2*b percent of total."""
        c = BalanceConstraint(k=3, b=5.0)
        w = np.array([320, 333, 347])
        total = int(w.sum())
        if c.satisfied(w):
            assert w.max() - w.min() <= 2 * 0.05 * total + 1e-9

    def test_violation_zero_when_satisfied(self):
        c = BalanceConstraint(k=2, b=10.0)
        assert c.violation(np.array([550, 450])) == 0.0

    def test_violation_measures_excess(self):
        c = BalanceConstraint(k=2, b=0.0)
        assert c.violation(np.array([600, 400])) == pytest.approx(200.0)

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            BalanceConstraint(k=0, b=5.0)

    def test_invalid_b(self):
        with pytest.raises(ConfigError):
            BalanceConstraint(k=2, b=-1.0)
    def test_paper_grid_constants(self):
        assert PAPER_K_VALUES == (2, 3, 4)
        assert PAPER_B_VALUES == (2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
