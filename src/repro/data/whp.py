"""Synthetic Wildfire Hazard Potential (WHP) raster.

The real WHP (USFS, 270 m, five classes plus non-burnable/water) is built
from burn-probability simulations.  Our substitute derives a *fuel score*
per cell from three ingredients whose interaction produces the paper's
geography:

* a state-level wildland propensity (high in the West and Southeast),
* an urbanization suppressor ``(1 - u)^q`` — urban cores and road
  corridors hold little fuel, which is precisely why the paper's §3.4
  validation finds in-perimeter roadside transceivers in low-WHP cells,
* spatially-correlated lognormal noise (terrain/vegetation texture).

Cells above an urbanization cutoff become NON_BURNABLE; the remaining
burnable cells are classified by fuel rank.  Class thresholds are
calibrated so the *expected transceiver share* per class matches the
fractions implied by the paper's Figure 7 (26,307 / 142,968 / 261,569 of
5,364,949 — i.e. 0.49% / 2.67% / 4.88%), using the same placement weights
the transceiver sampler uses.  This mirrors how the real WHP's class
breaks were chosen to make the top classes small and actionable (§3.7:
"This is by design").  Rankings across states, metros, providers and
technologies are *not* calibrated — they emerge from the geography.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy import ndimage

from ..geo.raster import GridSpec, Raster
from .population import PopulationSurface
from .sampling import weighted_cdf
from .states import StateAssigner, conus_bbox

__all__ = ["WHPClass", "WHP_CLASS_NAMES", "WhpModel", "build_whp",
           "AT_RISK_CLASSES", "DEFAULT_TARGET_SHARES"]


class WHPClass(IntEnum):
    """WHP hazard classes (order matters: higher = more hazardous)."""

    NON_BURNABLE = 0   # water, urban cores, road corridors
    VERY_LOW = 1
    LOW = 2
    MODERATE = 3
    HIGH = 4
    VERY_HIGH = 5


WHP_CLASS_NAMES = {
    WHPClass.NON_BURNABLE: "Non-burnable",
    WHPClass.VERY_LOW: "Very Low",
    WHPClass.LOW: "Low",
    WHPClass.MODERATE: "Moderate",
    WHPClass.HIGH: "High",
    WHPClass.VERY_HIGH: "Very High",
}

#: The classes the paper treats as "at risk" (§3.3).
AT_RISK_CLASSES = (WHPClass.MODERATE, WHPClass.HIGH, WHPClass.VERY_HIGH)

#: Expected transceiver share per class, from Figure 7 counts / 5,364,949.
DEFAULT_TARGET_SHARES = {
    WHPClass.VERY_HIGH: 26_307 / 5_364_949,
    WHPClass.HIGH: 142_968 / 5_364_949,
    WHPClass.MODERATE: 261_569 / 5_364_949,
    WHPClass.LOW: 0.15,
    # VERY_LOW takes the remaining burnable cells.
}


@dataclass
class WhpModel:
    """A built WHP raster plus the intermediate fields analyses reuse."""

    raster: Raster          # int8 WHPClass codes
    fuel: Raster            # float fuel score (0 = water)
    urbanization: Raster    # u in [0, 1]
    placement_weight: Raster  # transceiver placement weight per cell

    @property
    def grid(self) -> GridSpec:
        return self.raster.grid

    def content_token(self) -> bytes:
        """Digest of the class raster (delegates to the raster payload).

        Memoized per model: a built WHP raster is immutable in practice,
        and the digest keys every classify_cells cache probe.
        """
        token = getattr(self, "_token", None)
        if token is None:
            token = self.raster.content_token()
            self._token = token
        return token

    def classify(self, lons, lats) -> np.ndarray:
        """WHP class codes at the given points (NON_BURNABLE outside)."""
        return self.raster.sample(lons, lats,
                                  outside=np.int8(WHPClass.NON_BURNABLE))

    def class_mask(self, whp_class: WHPClass) -> np.ndarray:
        return self.raster.data == int(whp_class)

    def at_risk_mask(self) -> np.ndarray:
        return self.raster.data >= int(WHPClass.MODERATE)

    def ignition_weights(self, remoteness: float = 400.0) -> np.ndarray:
        """Relative ignition probability per cell for the fire generator.

        Fires start predominantly in hazardous fuel; a small floor on
        LOW/VERY_LOW reflects that WHP is a likelihood, not a guarantee.

        ``remoteness`` penalizes populated cells: ignitions near people
        are contained before they become tracked perimeter fires, so the
        big perimeters concentrate in remote wildland (the reason only
        hundreds — not tens of thousands — of transceivers fall inside
        perimeters each year despite millions of acres burning).

        Memoized per (model, remoteness): the gaussian smoothing pass
        dominates fire-season generation at paper scale, and every year's
        season asks for the identical field.  Callers treat the result
        as read-only.
        """
        cache = getattr(self, "_ignition_cache", None)
        if cache is None:
            cache = self._ignition_cache = {}
        key = float(remoteness)
        cached = cache.get(key)
        if cached is not None:
            return cached
        table = np.array([0.0, 0.05, 0.25, 1.0, 2.0, 4.0])
        hazard = table[self.raster.data.astype(np.int64)]
        # Smooth the placement weight so the penalty sees the whole
        # neighborhood a fire footprint would sweep (~0.25 deg), not
        # just the ignition cell.
        weight = ndimage.gaussian_filter(self.placement_weight.data,
                                         sigma=0.25 / self.grid.res)
        positive = weight[weight > 0]
        w0 = np.percentile(positive, 25) if len(positive) else 1.0
        penalty = 1.0 / (1.0 + remoteness * (weight / max(w0, 1e-9)))
        cache[key] = hazard * penalty
        return cache[key]

    def ignition_cdf(self, remoteness: float = 400.0) -> np.ndarray:
        """CDF of the raveled :meth:`ignition_weights` (see
        :func:`~repro.data.sampling.weighted_cdf`).

        Memoized per (model, remoteness) beside the weights, so each
        fire season pays only its ``rng.random`` draw and one
        ``searchsorted`` instead of ``choice``'s validation and cumsum
        over the whole grid.
        """
        cache = getattr(self, "_ignition_cdfs", None)
        if cache is None:
            cache = self._ignition_cdfs = {}
        key = float(remoteness)
        cdf = cache.get(key)
        if cdf is None:
            cdf = cache[key] = weighted_cdf(
                self.ignition_weights(remoteness).ravel())
        return cdf


def build_whp(pop: PopulationSurface, seed: int = 7,
              resolution_deg: float = 0.05,
              placement_exponent: float = 0.85,
              urban_cutoff: float = 0.60,
              urban_halfsat: float = 50_000.0,
              suppression_q: float = 1.8,
              noise_sigma_cells: float = 3.0,
              noise_amplitude: float = 0.35,
              micro_amplitude: float = 0.10,
              corridor_nonburnable_deg: float = 0.06,
              target_shares: dict | None = None) -> WhpModel:
    """Build the synthetic WHP raster.

    Parameters mirror the fuel model described in the module docstring.
    ``placement_exponent`` must match the transceiver sampler's exponent
    for the calibration to hold (SyntheticUS wires them together).
    """
    rng = np.random.default_rng(seed)
    grid = GridSpec(conus_bbox(), resolution_deg)
    rows = np.arange(grid.height)
    cols = np.arange(grid.width)
    col_mesh, row_mesh = np.meshgrid(cols, rows)
    lons, lats = grid.cell_center(row_mesh.ravel(), col_mesh.ravel())

    # Population density resampled onto the WHP grid.
    density = pop.raster.sample(lons, lats).astype(float)
    land = density > 0.0

    urbanization = np.where(land, density / (density + urban_halfsat), 0.0)

    propensity, intermix = _propensity_field(pop, grid, lons, lats, land)
    front_field = _wildland_front_field(lons, lats)

    noise = rng.standard_normal(grid.shape)
    noise = ndimage.gaussian_filter(noise, sigma=noise_sigma_cells)
    noise = noise / max(noise.std(), 1e-12)
    # Clip the tails: without it, extreme-noise cells in low-hazard
    # states would dominate the globally-ranked top class.
    noise = np.clip(noise, -1.6, 1.6)
    # Cell-level micro-texture fragments the class boundaries the way
    # the real 270 m WHP is fragmented — very-high cells touch developed
    # fringe directly, which is what makes the §3.8 buffer experiment
    # recover missed roadside/fringe infrastructure.
    micro = np.clip(rng.standard_normal(grid.shape), -2.0, 2.0)
    texture = np.exp(noise_amplitude * noise
                     + micro_amplitude * micro).ravel()

    # Per-state WUI intermix weakens the urban suppression: in Florida or
    # around Los Angeles/Salt Lake City hazard coexists with development,
    # while in the remote mountain West it does not.
    q_eff = suppression_q * (1.0 - intermix)
    fuel = propensity * np.power(1.0 - urbanization, q_eff) * texture
    # Wildland fronts add hazard that persists into the urban fringe
    # (steep fuel-heavy terrain abutting development — the reason the
    # paper's very-high cells hug Los Angeles, Salt Lake City, Miami).
    fuel += front_field * np.power(1.0 - urbanization, 0.3)
    fuel[~land] = 0.0

    # Highway corridors are managed/paved and classified non-burnable by
    # the real WHP (§3.8: "Most of the area alongside transportation
    # throughways is classified as either low risk or nonburnable").
    if pop.road_distance is not None:
        road_d = pop.road_distance.sample(lons, lats, outside=np.inf)
        in_corridor = land & (road_d < corridor_nonburnable_deg)
        # A road crossing a wildland front does not sterilize the front:
        # the canyon highways through the San Gabriels or Wasatch are
        # surrounded by high hazard.
        in_corridor &= front_field < 0.2
    else:
        in_corridor = np.zeros(lons.shape, dtype=bool)

    weight = np.where(land, np.power(density, placement_exponent), 0.0)

    classes = _classify(fuel, weight, land,
                        urbanization, urban_cutoff, in_corridor,
                        target_shares or DEFAULT_TARGET_SHARES)

    shape = grid.shape
    return WhpModel(
        raster=Raster(grid, classes.reshape(shape).astype(np.int8)),
        fuel=Raster(grid, fuel.reshape(shape)),
        urbanization=Raster(grid, urbanization.reshape(shape)),
        placement_weight=Raster(grid, weight.reshape(shape)),
    )


def _wildland_front_field(lons: np.ndarray,
                          lats: np.ndarray) -> np.ndarray:
    """Additive hazard field at the metros' adjacent wildland fronts.

    Models the terrain features (San Gabriel mountains, Wasatch front,
    Everglades edge, ...) that put very-high WHP cells against specific
    urban fringes; see :data:`repro.data.cities.WILDLAND_FRONTS`.
    """
    from .cities import conus_cities

    out = np.zeros(lons.shape)
    for city in conus_cities():
        front = city.wildland_front
        if front is None:
            continue
        flon, flat, sigma, boost = front
        d2 = ((lons - flon) * np.cos(np.radians(flat))) ** 2 \
            + (lats - flat) ** 2
        out += boost * np.exp(-d2 / (2.0 * sigma * sigma))
    return out


def _propensity_field(pop: PopulationSurface, grid: GridSpec,
                      lons: np.ndarray, lats: np.ndarray,
                      land: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State (propensity, wui_intermix) resampled to the WHP grid.

    Assignment runs once on the (coarser) population grid and is sampled
    from there, keeping the build O(population cells) rather than
    O(WHP cells) in point-in-polygon work.
    """
    assigner = StateAssigner()
    pgrid = pop.grid
    prow = np.arange(pgrid.height)
    pcol = np.arange(pgrid.width)
    cmesh, rmesh = np.meshgrid(pcol, prow)
    plons, plats = pgrid.cell_center(rmesh.ravel(), cmesh.ravel())
    pland = pop.raster.data.ravel() > 0
    abbrs = assigner.assign_many(plons[pland], plats[pland])
    prop_lut = {abbr: st.whp_propensity
                for abbr, st in assigner.states.items()}
    mix_lut = {abbr: st.wui_intermix
               for abbr, st in assigner.states.items()}

    # A handful of distinct states over ~60k land cells: look each one
    # up once and spread it with the inverse index.
    states, which = np.unique(abbrs, return_inverse=True)
    fields = []
    for lut in (prop_lut, mix_lut):
        vals = np.zeros(plons.shape)
        vals[pland] = np.array([lut[a] for a in states.tolist()],
                               dtype=float)[which]
        raster = Raster(pgrid, vals.reshape(pgrid.shape))
        out = raster.sample(lons, lats).astype(float)
        # WHP cells on land whose coarse parent was water: median fill.
        missing = land & (out <= 0.0)
        if missing.any():
            positive = land & (out > 0)
            out[missing] = np.median(out[positive]) if positive.any() else 0.1
        fields.append(out)
    return fields[0], fields[1]


def _classify(fuel: np.ndarray, weight: np.ndarray, land: np.ndarray,
              urbanization: np.ndarray, urban_cutoff: float,
              in_corridor: np.ndarray, target_shares: dict) -> np.ndarray:
    """Assign WHP classes by fuel rank with weight-share calibration."""
    classes = np.full(fuel.shape, int(WHPClass.NON_BURNABLE), dtype=np.int8)
    burnable = (land & (urbanization < urban_cutoff) & (fuel > 0)
                & ~in_corridor)
    classes[land & ~burnable] = int(WHPClass.NON_BURNABLE)

    idx = np.nonzero(burnable)[0]
    if len(idx) == 0:
        return classes
    order = idx[np.argsort(-fuel[idx])]   # most hazardous first
    total_weight = weight.sum()
    cum = np.cumsum(weight[order]) / max(total_weight, 1e-12)

    bounds = [
        (WHPClass.VERY_HIGH, target_shares[WHPClass.VERY_HIGH]),
        (WHPClass.HIGH, target_shares[WHPClass.HIGH]),
        (WHPClass.MODERATE, target_shares[WHPClass.MODERATE]),
        (WHPClass.LOW, target_shares[WHPClass.LOW]),
    ]
    start = 0
    acc = 0.0
    for whp_class, share in bounds:
        acc += share
        end = int(np.searchsorted(cum, acc, side="right"))
        end = max(end, start + 1)  # every class gets at least one cell
        classes[order[start:end]] = int(whp_class)
        start = end
        if start >= len(order):
            break
    if start < len(order):
        classes[order[start:]] = int(WHPClass.VERY_LOW)
    return classes
