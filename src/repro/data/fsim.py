"""Fsim-style burn-probability simulation.

The real Wildfire Hazard Potential was "developed from previous wildfire
occurrence, vegetation cover, and results from multiple runs by the
Large Fire Simulation system (Fsim)" (§2.2.2).  Our default WHP takes a
shortcut — a closed-form fuel model.  This module implements the long
way: a stochastic cellular-automaton fire-spread simulator run for
thousands of ignitions, accumulating per-cell burn counts into a burn
probability surface, from which a WHP-style classification can be
derived with the same calibration machinery.

The agreement between the two (see ``benchmarks/test_ablation_fsim``)
is the reproduction's internal check that the shortcut preserves the
geography a simulation would produce.

Spread model: each burning cell ignites its 8 neighbors independently
with probability ``p0 x fuel_neighbor x wind_bias(direction)``; cells
burn for one step; fires end when the frontier empties or a step cap is
reached.  Fuel enters both ignition (where fires start) and spread
(where they go), so low-fuel urban cores and corridors act as the fire
breaks they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo.raster import Raster
from .sampling import draw_from_cdf, weighted_cdf
from .whp import DEFAULT_TARGET_SHARES, WhpModel, WHPClass, _classify

__all__ = ["FsimConfig", "BurnProbability", "run_fsim",
           "derive_whp_classes"]

#: Neighbor offsets (row, col) and their compass bearings, for wind.
_NEIGHBORS = (
    (-1, 0, 0.0), (-1, 1, 45.0), (0, 1, 90.0), (1, 1, 135.0),
    (1, 0, 180.0), (1, -1, 225.0), (0, -1, 270.0), (-1, -1, 315.0),
)


@dataclass(frozen=True)
class FsimConfig:
    """Simulation parameters."""

    n_ignitions: int = 3000
    max_steps: int = 80
    base_spread: float = 0.45       # p0: spread prob at fuel = 1
    wind_strength: float = 0.5      # 0 = isotropic, 1 = strongly biased
    seed: int = 20_190_722


@dataclass
class BurnProbability:
    """Accumulated simulation output."""

    burn_counts: Raster       # times each cell burned
    n_ignitions: int
    total_cells_burned: int

    def probability(self) -> np.ndarray:
        """Per-cell burn probability estimate."""
        return self.burn_counts.data / max(self.n_ignitions, 1)


def run_fsim(whp: WhpModel, config: FsimConfig | None = None) \
        -> BurnProbability:
    """Run the ignition ensemble over the WHP model's fuel field.

    Fuel is normalized to [0, 1]; ignitions are drawn proportionally to
    fuel (fires start where there is something to burn), each with a
    random-but-fixed wind direction for its lifetime.
    """
    config = config or FsimConfig()
    rng = np.random.default_rng(config.seed)
    fuel = whp.fuel.data.copy()
    peak = fuel.max()
    if peak <= 0:
        raise ValueError("WHP model has no burnable fuel")
    fuel = np.clip(fuel / peak, 0.0, 1.0)
    height, width = fuel.shape

    ignition_cells = draw_from_cdf(weighted_cdf(fuel.ravel()),
                                   config.n_ignitions, rng)

    burn_counts = np.zeros(fuel.shape, dtype=np.int32)
    total_burned = 0
    for cell in ignition_cells:
        row, col = divmod(int(cell), width)
        wind_bearing = float(rng.uniform(0.0, 360.0))
        burned = _spread_one_fire(fuel, row, col, wind_bearing,
                                  config, rng)
        burn_counts += burned
        total_burned += int(burned.sum())

    return BurnProbability(
        burn_counts=Raster(whp.grid, burn_counts),
        n_ignitions=config.n_ignitions,
        total_cells_burned=total_burned,
    )


def _spread_one_fire(fuel: np.ndarray, row: int, col: int,
                     wind_bearing: float, config: FsimConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Cellular-automaton spread from one ignition; returns burn mask."""
    height, width = fuel.shape
    burned = np.zeros(fuel.shape, dtype=bool)
    if fuel[row, col] <= 0:
        return burned.astype(np.int32)
    burned[row, col] = True
    frontier_rows = np.array([row])
    frontier_cols = np.array([col])

    for _ in range(config.max_steps):
        if len(frontier_rows) == 0:
            break
        next_rows = []
        next_cols = []
        for drow, dcol, bearing in _NEIGHBORS:
            rows = frontier_rows + drow
            cols = frontier_cols + dcol
            ok = ((rows >= 0) & (rows < height)
                  & (cols >= 0) & (cols < width))
            rows = rows[ok]
            cols = cols[ok]
            if len(rows) == 0:
                continue
            fresh = ~burned[rows, cols]
            rows = rows[fresh]
            cols = cols[fresh]
            if len(rows) == 0:
                continue
            # Wind bias: spread downwind is boosted, upwind damped.
            angle = np.radians(bearing - wind_bearing)
            wind = 1.0 + config.wind_strength * np.cos(angle)
            p = config.base_spread * fuel[rows, cols] * wind
            ignite = rng.random(len(rows)) < np.clip(p, 0.0, 0.95)
            rows = rows[ignite]
            cols = cols[ignite]
            if len(rows) == 0:
                continue
            burned[rows, cols] = True
            next_rows.append(rows)
            next_cols.append(cols)
        if next_rows:
            frontier_rows = np.concatenate(next_rows)
            frontier_cols = np.concatenate(next_cols)
        else:
            break
    return burned.astype(np.int32)


def derive_whp_classes(whp: WhpModel, burn: BurnProbability,
                       target_shares: dict | None = None) -> np.ndarray:
    """Classify the burn-probability surface into WHP classes.

    Reuses the production calibration (rank cells by hazard, cut class
    boundaries at the paper's transceiver-share targets) with burn
    probability in place of the closed-form fuel score, so the two maps
    are directly comparable cell-for-cell.
    """
    probability = burn.probability().ravel()
    land = whp.fuel.data.ravel() > 0
    weight = whp.placement_weight.data.ravel()
    urbanization = whp.urbanization.data.ravel()
    nonburnable = whp.raster.data.ravel() == int(WHPClass.NON_BURNABLE)
    # Tiny fuel-ordered jitter breaks the ties plateaus of a finite
    # ignition ensemble (cells never burned all share p = 0).
    hazard = probability + 1e-9 * whp.fuel.data.ravel()
    classes = _classify(
        hazard, weight, land,
        urbanization, 2.0,          # urban cutoff disabled (2.0 > max u)
        nonburnable,                # reuse production non-burnable set
        target_shares or DEFAULT_TARGET_SHARES)
    return classes.reshape(whp.grid.shape)
