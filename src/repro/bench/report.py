"""Paper-vs-measured reporting helpers.

The paper's numbers are embedded here as constants so every benchmark
can print its measured rows next to the original ones, and the
EXPERIMENTS.md generator can assemble the full comparison document.
Absolute values are not comparable (the paper ran a 1.2 M-gate netlist
on real 2001 hardware; we run a scaled netlist on a modeled cluster) —
the comparisons that matter are trends and ratios, which
:func:`shape_checks` evaluates mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_SEQ_TIME_PRESIM",
    "PAPER_SEQ_TIME_FULL",
    "ShapeCheck",
    "shape_checks_cutsize",
    "shape_checks_speedup",
    "shape_check_counters",
]

#: Table 1 — design-driven cut size: {(k, b): cut}
PAPER_TABLE1 = {
    (2, 2.5): 2428, (2, 5.0): 1827, (2, 7.5): 905, (2, 10.0): 633,
    (2, 12.5): 598, (2, 15.0): 513,
    (3, 2.5): 2930, (3, 5.0): 2227, (3, 7.5): 1230, (3, 10.0): 894,
    (3, 12.5): 863, (3, 15.0): 790,
    (4, 2.5): 3230, (4, 5.0): 2326, (4, 7.5): 1433, (4, 10.0): 979,
    (4, 12.5): 935, (4, 15.0): 887,
}

#: Table 2 — hMetis cut size on the flattened netlist
PAPER_TABLE2 = {
    (2, 2.5): 2675, (2, 5.0): 2673, (2, 7.5): 2673, (2, 10.0): 2669,
    (2, 12.5): 2668, (2, 15.0): 2665,
    (3, 2.5): 2932, (3, 5.0): 2932, (3, 7.5): 2931, (3, 10.0): 2935,
    (3, 12.5): 2931, (3, 15.0): 2927,
    (4, 2.5): 3195, (4, 5.0): 3195, (4, 7.5): 3191, (4, 10.0): 3191,
    (4, 12.5): 3191, (4, 15.0): 3191,
}

#: Table 3 — pre-simulation {(k, b): (sim_time_s, speedup)}
PAPER_TABLE3 = {
    (2, 2.5): (61.79, 0.62), (2, 5.0): (41.86, 0.93), (2, 7.5): (30.65, 1.27),
    (2, 10.0): (25.78, 1.51), (2, 12.5): (23.59, 1.65), (2, 15.0): (29.72, 1.31),
    (3, 2.5): (56.42, 0.69), (3, 5.0): (39.72, 0.98), (3, 7.5): (28.87, 1.35),
    (3, 10.0): (21.50, 1.81), (3, 12.5): (22.37, 1.74), (3, 15.0): (25.44, 1.53),
    (4, 2.5): (88.47, 0.44), (4, 5.0): (42.78, 0.91), (4, 7.5): (19.86, 1.96),
    (4, 10.0): (24.80, 1.57), (4, 12.5): (21.04, 1.85), (4, 15.0): (24.18, 1.61),
}

#: Table 4 — best (k -> (b, cut, time, speedup)) from pre-simulation
PAPER_TABLE4 = {
    2: (12.5, 598, 23.59, 1.65),
    3: (10.0, 894, 21.50, 1.81),
    4: (7.5, 1463, 19.86, 1.96),
}

#: Table 5 — full simulation (k -> (b, cut, time, speedup))
PAPER_TABLE5 = {
    2: (12.5, 598, 2201.98, 1.65),
    3: (10.0, 894, 2033.35, 1.79),
    4: (7.5, 1463, 1905.60, 1.91),
}

PAPER_SEQ_TIME_PRESIM = 38.93
PAPER_SEQ_TIME_FULL = 3639.70


@dataclass
class ShapeCheck:
    """One mechanically checkable qualitative claim."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def shape_check_counters(checks: list[ShapeCheck]) -> dict[str, int]:
    """Fold shape-check outcomes into the registered ``bench.*``
    counter for a metrics document (see :mod:`repro.obs.registry`)."""
    return {"bench.shape_checks_passed": sum(1 for c in checks if c.passed)}


def shape_checks_cutsize(
    design: dict[tuple[int, float], int],
    multilevel: dict[tuple[int, float], int],
    design_balanced: dict[tuple[int, float], bool] | None = None,
    multilevel_balanced: dict[tuple[int, float], bool] | None = None,
) -> list[ShapeCheck]:
    """The qualitative claims of Tables 1-2 against measured cuts.

    A reproduction caveat is baked in here: the paper's hMetis numbers
    (nearly flat in b, 4.5x above the design-driven cut everywhere) are
    not what a *well-implemented* multilevel baseline produces at
    laptop scale — with standard large-net handling it matches the
    hierarchy-aware cut on small circuits and only falls behind as the
    module count grows (see the paper-scale benchmark).  The checks
    below encode the claims that are robust to baseline quality:
    competitiveness in aggregate, the design algorithm's own b/k
    trends, a strict win at the largest machine count, and Formula-1
    feasibility (which recursive-bisection UBfactors do not guarantee).
    """
    checks = []
    ks = sorted({k for k, _ in design})
    bs = sorted({b for _, b in design})
    # 1. never meaningfully worse than the flat baseline in aggregate
    d_sum = sum(design.values())
    m_sum = sum(multilevel.values())
    checks.append(
        ShapeCheck(
            "design-driven cut competitive with multilevel-on-flat (aggregate)",
            d_sum <= 1.1 * m_sum,
            f"sum(design)={d_sum} vs sum(multilevel)={m_sum}",
        )
    )
    # 2. design-driven cut shrinks from tightest to loosest b per k
    mono = all(design[(k, bs[-1])] <= design[(k, bs[0])] for k in ks)
    checks.append(
        ShapeCheck(
            "relaxing b reduces the design-driven cut",
            mono,
            ", ".join(
                f"k={k}: {design[(k, bs[0])]} -> {design[(k, bs[-1])]}" for k in ks
            ),
        )
    )
    # 3. cut grows with k at fixed b (middle of the grid)
    mid_b = bs[len(bs) // 2]
    grow = all(
        design[(ks[i], mid_b)] <= design[(ks[i + 1], mid_b)]
        for i in range(len(ks) - 1)
    )
    checks.append(
        ShapeCheck(
            "more partitions cut more nets (fixed b)",
            grow,
            ", ".join(f"k={k}: {design[(k, mid_b)]}" for k in ks),
        )
    )
    # 4. at the largest machine count — where the paper reports its
    #    headline speedup — the design-driven cut wins in aggregate
    kmax = ks[-1]
    d_kmax = sum(design[(kmax, b)] for b in bs)
    m_kmax = sum(multilevel[(kmax, b)] for b in bs)
    checks.append(
        ShapeCheck(
            f"design-driven wins in aggregate at k={kmax}",
            d_kmax <= m_kmax,
            f"k={kmax}: design {d_kmax} vs multilevel {m_kmax}",
        )
    )
    # 5. feasibility (when balance data is available): the design
    #    algorithm meets Formula 1 on the whole grid; the flat
    #    baseline's per-bisection UBfactor compounds and can miss it
    if design_balanced is not None:
        ok = all(design_balanced.values())
        viol = (
            sum(not v for v in multilevel_balanced.values())
            if multilevel_balanced is not None
            else 0
        )
        checks.append(
            ShapeCheck(
                "design-driven meets Formula 1 everywhere",
                ok,
                f"design violations: {sum(not v for v in design_balanced.values())}, "
                f"multilevel violations: {viol}",
            )
        )
    return checks


def shape_checks_speedup(
    speedups: dict[tuple[int, float], float],
) -> list[ShapeCheck]:
    """The qualitative claims of Tables 3-5 against measured speedups."""
    checks = []
    ks = sorted({k for k, _ in speedups})
    bs = sorted({b for _, b in speedups})
    best = max(speedups.values())
    best_kb = max(speedups, key=speedups.get)
    checks.append(
        ShapeCheck(
            "best speedup achieved at the largest machine count",
            best_kb[0] == max(ks),
            f"best {best:.2f} at (k={best_kb[0]}, b={best_kb[1]})",
        )
    )
    tight_worst = all(
        speedups[(k, bs[0])] <= max(speedups[(k, b)] for b in bs) for k in ks
    )
    checks.append(
        ShapeCheck(
            "tightest b never optimal",
            tight_worst and all(
                min(speedups[(k, b)] for b in bs) == speedups[(k, bs[0])]
                or speedups[(k, bs[0])] <= speedups[(k, bs[2])]
                for k in ks
            ),
            ", ".join(f"k={k}@b={bs[0]}: {speedups[(k, bs[0])]:.2f}" for k in ks),
        )
    )
    per_k_best = {k: max(speedups[(k, b)] for b in bs) for k in ks}
    checks.append(
        ShapeCheck(
            "per-k best speedup non-decreasing in k",
            all(per_k_best[ks[i]] <= per_k_best[ks[i + 1]] + 0.05
                for i in range(len(ks) - 1)),
            ", ".join(f"k={k}: {v:.2f}" for k, v in per_k_best.items()),
        )
    )
    return checks
