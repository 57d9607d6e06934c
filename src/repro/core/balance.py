"""Load-balancing constraint (paper Formula 1).

The load of a processor is the number of gates assigned to it; the
balance factor ``b`` (in percent) admits loads within

    load * (1/k - b/100)  <=  load[i]  <=  load * (1/k + b/100)

so two processors' loads differ by at most ``2*b`` percent of the total
circuit load.  The paper sweeps b over {2.5, 5, 7.5, 10, 12.5, 15}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["BalanceConstraint", "PAPER_B_VALUES", "PAPER_K_VALUES"]

#: the (k, b) grid of the paper's Tables 1-3
PAPER_K_VALUES = (2, 3, 4)
PAPER_B_VALUES = (2.5, 5.0, 7.5, 10.0, 12.5, 15.0)


@dataclass(frozen=True)
class BalanceConstraint:
    """The paper's Formula 1 for a fixed (k, b)."""

    k: int
    b: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.b >= 0:  # also rejects NaN, which compares False
            raise ConfigError(f"b must be >= 0, got {self.b}")
        if self.b == float("inf"):  # every load would pass Formula 1
            raise ConfigError(f"b must be finite, got {self.b}")

    def bounds(self, total_load: int) -> tuple[float, float]:
        """(lower, upper) admissible load per partition."""
        lo = total_load * (1.0 / self.k - self.b / 100.0)
        hi = total_load * (1.0 / self.k + self.b / 100.0)
        return max(lo, 0.0), hi

    def satisfied(self, part_weights: np.ndarray | list[int]) -> bool:
        """Whether every partition's load is within bounds."""
        w = np.asarray(part_weights)
        lo, hi = self.bounds(int(w.sum()))
        return bool((w >= lo - 1e-9).all() and (w <= hi + 1e-9).all())

    def violation(self, part_weights: np.ndarray | list[int]) -> float:
        """Total weight outside the admissible band (0 when satisfied)."""
        w = np.asarray(part_weights, dtype=np.float64)
        lo, hi = self.bounds(int(w.sum()))
        over = np.maximum(w - hi, 0.0).sum()
        under = np.maximum(lo - w, 0.0).sum()
        return float(over + under)
