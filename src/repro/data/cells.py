"""Synthetic cell-transceiver universe (OpenCelliD substitute).

The OpenCelliD snapshot the paper uses has 5,364,949 transceivers in the
conterminous US.  Analyses only consume per-transceiver (lon, lat,
MCC/MNC, radio type); we generate those with the spatial and categorical
structure the paper's results depend on:

* sites sampled from the population surface with a flattening exponent
  (cell sites are less concentrated than people, §2.2.3 / Figure 2),
* 1–12 transceivers per site (multi-tenant towers; the paper infers
  towers from co-located transceivers),
* provider mix with per-provider rural/urban footprint biases (Table 2),
* technology mix per provider with a rural LTE tilt (Table 3),
* ~100 m location jitter mimicking OpenCelliD's triangulation error.

Storage is struct-of-arrays (numpy), scaling to millions of rows.  CSV
I/O follows the OpenCelliD column layout so a real snapshot can be
loaded instead.
"""

from __future__ import annotations

import copy
import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..geo.index import UniformGridIndex
from .population import PopulationSurface
from .providers import (
    MAJOR_PROVIDERS,
    provider_market_shares,
    provider_registry,
    rural_affinity,
)
from .radios import RadioType, draw_radio_types

__all__ = ["CellUniverse", "generate_cells", "PROVIDER_GROUPS",
           "PAPER_TRANSCEIVER_COUNT"]

#: The paper's OpenCelliD CONUS snapshot size (2019-10-22).
PAPER_TRANSCEIVER_COUNT = 5_364_949

#: Canonical provider groups, in Table 2 order; index = stored code.
PROVIDER_GROUPS = (*MAJOR_PROVIDERS, "Others")


@dataclass
class CellUniverse:
    """Struct-of-arrays container for the transceiver universe."""

    lons: np.ndarray          # float64, degrees
    lats: np.ndarray          # float64, degrees
    site_ids: np.ndarray      # int64; transceivers sharing a site share id
    mcc: np.ndarray           # int32
    mnc: np.ndarray           # int32
    provider_group: np.ndarray  # int8 index into PROVIDER_GROUPS
    radio: np.ndarray         # int8 RadioType code
    _index: UniformGridIndex | None = field(default=None, repr=False)
    _token: bytes | None = field(default=None, repr=False)
    _packed: object | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.lons)

    def __post_init__(self):
        n = len(self.lons)
        for name in ("lats", "site_ids", "mcc", "mnc",
                     "provider_group", "radio"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    @property
    def universe_scale(self) -> float:
        """Factor mapping synthetic counts to paper-universe counts."""
        return PAPER_TRANSCEIVER_COUNT / max(len(self), 1)

    def index(self, cell_deg: float = 0.25) -> UniformGridIndex:
        """Spatial index over all transceivers (built lazily, cached)."""
        if self._index is None or self._index.cell_deg != cell_deg:
            self._index = UniformGridIndex(self.lons, self.lats, cell_deg)
        return self._index

    def content_token(self) -> bytes:
        """Digest of the universe's coordinates (computed once).

        The runtime result cache keys spatial joins by this token:
        universes generated from different seeds, sizes or placement
        parameters hash to different tokens because their coordinate
        bytes differ, while the same configuration always re-hashes to
        the same token.
        """
        if self._token is None:
            h = hashlib.sha256()
            for arr in (self.lons, self.lats):
                h.update(np.ascontiguousarray(arr).tobytes())
            self._token = h.digest()
        return self._token

    def packed(self, cell_deg: float = 0.25):
        """Contiguous column pack of this universe (built lazily, cached).

        The pack bundles every column plus the serialized spatial index
        at pinned dtypes, ready to copy into a shared-memory segment so
        pool workers adopt state instead of rebuilding it.
        """
        from .packed import pack_cells

        if self._packed is None or self._packed.cell_deg != cell_deg:
            self._packed = pack_cells(self, cell_deg)
        return self._packed

    def stratified_sample(self, fraction: float) -> "CellUniverse":
        """Deterministic stratified subsample of the universe.

        Strata are (provider_group, radio) pairs; within each stratum
        every ``round(1/fraction)``-th transceiver (in storage order) is
        kept.  No RNG involved: the same universe and fraction always
        select the same rows, which is what the scale-stratified
        differential tests key on.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        step = max(1, int(round(1.0 / fraction)))
        strata = (self.provider_group.astype(np.int64) * 64
                  + self.radio.astype(np.int64))
        picks = [np.flatnonzero(strata == s)[::step]
                 for s in np.unique(strata)]
        idx = np.sort(np.concatenate(picks))
        return self.subset(idx)

    def group_names(self) -> np.ndarray:
        """Provider group name per transceiver."""
        return np.array(PROVIDER_GROUPS)[self.provider_group]

    def subset(self, mask_or_idx) -> "CellUniverse":
        """A new universe restricted to the given mask/index array."""
        return CellUniverse(
            lons=self.lons[mask_or_idx],
            lats=self.lats[mask_or_idx],
            site_ids=self.site_ids[mask_or_idx],
            mcc=self.mcc[mask_or_idx],
            mnc=self.mnc[mask_or_idx],
            provider_group=self.provider_group[mask_or_idx],
            radio=self.radio[mask_or_idx],
        )

    def n_sites(self) -> int:
        return len(np.unique(self.site_ids))

    # ------------------------------------------------------------------
    # OpenCelliD-style CSV I/O
    # ------------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write in the OpenCelliD column layout."""
        radio_names = {int(r): r.name for r in RadioType}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radio", "mcc", "net", "area", "cell",
                             "lon", "lat"])
            for i in range(len(self)):
                writer.writerow([
                    radio_names[int(self.radio[i])],
                    int(self.mcc[i]), int(self.mnc[i]),
                    int(self.site_ids[i]), i,
                    f"{self.lons[i]:.6f}", f"{self.lats[i]:.6f}",
                ])

    @classmethod
    def from_csv(cls, path: str | Path) -> "CellUniverse":
        """Read an OpenCelliD-layout CSV (synthetic or real)."""
        radio_codes = {r.name: int(r) for r in RadioType}
        rows = {"lon": [], "lat": [], "site": [], "mcc": [], "mnc": [],
                "radio": []}
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                rows["lon"].append(float(rec["lon"]))
                rows["lat"].append(float(rec["lat"]))
                rows["site"].append(int(rec.get("area") or 0))
                rows["mcc"].append(int(rec["mcc"]))
                rows["mnc"].append(int(rec["net"]))
                rows["radio"].append(radio_codes.get(rec["radio"], 0))
        mcc = np.array(rows["mcc"], dtype=np.int32)
        mnc = np.array(rows["mnc"], dtype=np.int32)
        groups = _groups_from_plmns(mcc, mnc)
        return cls(
            lons=np.array(rows["lon"]), lats=np.array(rows["lat"]),
            site_ids=np.array(rows["site"], dtype=np.int64),
            mcc=mcc, mnc=mnc, provider_group=groups,
            radio=np.array(rows["radio"], dtype=np.int8),
        )


def _groups_from_plmns(mcc: np.ndarray, mnc: np.ndarray) -> np.ndarray:
    """Resolve provider-group codes for PLMN arrays."""
    from .providers import resolve_provider
    lookup = {name: i for i, name in enumerate(PROVIDER_GROUPS)}
    out = np.empty(len(mcc), dtype=np.int8)
    cache: dict[tuple[int, int], int] = {}
    for i, key in enumerate(zip(mcc.tolist(), mnc.tolist())):
        code = cache.get(key)
        if code is None:
            name = resolve_provider(*key)
            if name not in lookup and name != "Unknown":
                name = "Others"
            code = lookup.get(name, lookup["Others"])
            cache[key] = code
        out[i] = code
    return out


def generate_cells(pop: PopulationSurface, n_transceivers: int,
                   seed: int = 11, placement_exponent: float = 0.85,
                   mean_per_site: float = 5.6,
                   jitter_m: float = 120.0,
                   urban_halfsat: float = 50_000.0) -> CellUniverse:
    """Generate the synthetic transceiver universe.

    ``placement_exponent`` and ``urban_halfsat`` must match the WHP model
    for its calibration to hold; :class:`repro.data.universe.SyntheticUS`
    wires them together.
    """
    if n_transceivers <= 0:
        raise ValueError("n_transceivers must be positive")
    rng = np.random.default_rng(seed)

    n_sites = max(1, int(round(n_transceivers / mean_per_site)))
    site_lons, site_lats = pop.sample_points(n_sites, rng,
                                             exponent=placement_exponent)

    # Transceivers per site: geometric-ish, clipped to [1, 12].
    per_site = np.clip(rng.geometric(1.0 / mean_per_site, size=n_sites),
                       1, 12)
    _trim_to_total(per_site, n_transceivers, rng)

    site_of = np.repeat(np.arange(n_sites, dtype=np.int64), per_site)
    lons = np.repeat(site_lons, per_site)
    lats = np.repeat(site_lats, per_site)

    # OpenCelliD-style location noise per transceiver.
    jitter_deg = jitter_m / 111_000.0
    lons = lons + rng.normal(0.0, jitter_deg, size=len(lons))
    lats = lats + rng.normal(0.0, jitter_deg, size=len(lats))

    # Urbanization at each site drives provider and technology biases.
    density = pop.density_at(lons, lats).astype(float)
    u = density / (density + urban_halfsat)
    ruralness = 1.0 - u

    groups = _draw_provider_groups(u, rng)
    mcc, mnc = _draw_plmns(groups, rng)
    radio = draw_radio_types(groups, ruralness, rng,
                             names=PROVIDER_GROUPS)

    return CellUniverse(lons=lons, lats=lats, site_ids=site_of,
                        mcc=mcc, mnc=mnc, provider_group=groups,
                        radio=radio)


def _trim_to_total(per_site: np.ndarray, n_transceivers: int,
                   rng: np.random.Generator) -> None:
    """Adjust per-site counts in place until they sum to the target.

    Draws a uniform site per step and moves its count one toward the
    target (sites stay within [1, 12]); steps whose site is already at
    the bound are spent.  Candidate sites are drawn in batches from a
    copy of ``rng`` and the accept logic runs on Python ints; ``rng`` is
    then advanced by exactly the draws used (``integers(n, size=k)``
    consumes the stream ``k`` scalar ``integers(n)`` calls would), so
    later draws see the state one scalar draw per step leaves.
    """
    total = int(per_site.sum())
    if total == n_transceivers:
        return
    n_sites = len(per_site)
    counts = per_site.tolist()
    probe = copy.deepcopy(rng)
    used = 0
    while total != n_transceivers:
        batch = probe.integers(n_sites,
                               size=2 * abs(n_transceivers - total) + 64)
        for i in batch.tolist():
            used += 1
            if total < n_transceivers:
                if counts[i] < 12:
                    counts[i] += 1
                    total += 1
            elif counts[i] > 1:
                counts[i] -= 1
                total -= 1
            if total == n_transceivers:
                break
    rng.integers(n_sites, size=used)
    per_site[:] = counts


def _draw_provider_groups(u: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Provider-group draw with rural-affinity tilt.

    Group weight at a point: share * (1 + affinity * (1 - 2u)); u in
    [0, 1], so rural points (u→0) boost positive-affinity providers.
    """
    shares = provider_market_shares()
    base = np.array([shares[g] for g in PROVIDER_GROUPS])
    affinity = np.array([rural_affinity(g) for g in PROVIDER_GROUPS])
    weights = base[None, :] * (1.0 + affinity[None, :]
                               * (1.0 - 2.0 * u[:, None]))
    weights = np.clip(weights, 1e-9, None)
    weights /= weights.sum(axis=1, keepdims=True)
    cdf = np.cumsum(weights, axis=1)
    draws = (rng.random(len(u))[:, None] > cdf).sum(axis=1)
    return draws.astype(np.int8)


def _draw_plmns(groups: np.ndarray, rng: np.random.Generator) \
        -> tuple[np.ndarray, np.ndarray]:
    """Vectorized PLMN assignment per transceiver."""
    registry = provider_registry()
    mcc = np.empty(len(groups), dtype=np.int32)
    mnc = np.empty(len(groups), dtype=np.int32)
    for code, name in enumerate(PROVIDER_GROUPS):
        mask = groups == code
        count = int(mask.sum())
        if count == 0:
            continue
        if name == "Others":
            # Pool every regional carrier's PLMNs, uniform over carriers.
            plmns = [p for prov in registry.values()
                     if prov.name not in MAJOR_PROVIDERS
                     for p in prov.plmns]
            weights = np.full(len(plmns), 1.0 / len(plmns))
        else:
            plmns = list(registry[name].plmns)
            weights = 1.0 / (np.arange(len(plmns)) + 1.0)
            weights /= weights.sum()
        pick = rng.choice(len(plmns), size=count, p=weights)
        mcc[mask] = np.array([p.mcc for p in plmns], dtype=np.int32)[pick]
        mnc[mask] = np.array([p.mnc for p in plmns], dtype=np.int32)[pick]
    return mcc, mnc
