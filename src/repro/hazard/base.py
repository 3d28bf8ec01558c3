"""The ``Hazard`` protocol: what the engine needs from a peril.

The paper's pipeline is wildfire-only by construction, but the engine
underneath it — tiled raster sampling (:func:`classify_cells`), the
point-in-polygon join (:func:`overlay_fires`), the delta-overlay
incident fold (:mod:`repro.stream`) — only ever touches two shapes:

* an **intensity surface**: something ``Raster``-shaped that can
  ``classify(lons, lats)`` points into ordinal severity codes and
  digest itself (``content_token()``) for the content-addressed cache.
  The wildfire instance hands back the WHP model unchanged;
* an **event set**: footprint polygons with a ``name``, a ``year`` and
  a ``polygon`` — exactly the fields the overlay engine hashes and
  queries.  ``FirePerimeter`` satisfies this structurally; non-fire
  hazards ship :class:`FootprintEvent`.

:class:`Hazard` packages the two behind one object plus the optional
streaming contract: a hazard that declares ``monotone_growth`` promises
that :meth:`growth_series` snapshots only ever *grow* each event
(tick ``t``'s polygon contains tick ``t-1``'s), the invariant the
dirty-bucket delta queries rest on.

This module is deliberately import-light (geo + numpy only): the core
engine imports it for typing, and the hazard instances import the data
substrates — never the other way around, so no cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..geo.geometry import Polygon

__all__ = [
    "EventSet",
    "FootprintEvent",
    "Hazard",
    "HazardEvent",
    "IntensitySurface",
]


@runtime_checkable
class IntensitySurface(Protocol):
    """What :func:`~repro.core.overlay.classify_cells` samples.

    ``classify`` returns one ordinal severity code per point (0 =
    unexposed); ``content_token`` digests the surface's geometry and
    payload so cache keys miss cleanly on any change.  ``WhpModel``
    conforms unchanged.
    """

    def classify(self, lons, lats) -> np.ndarray: ...

    def content_token(self) -> bytes: ...


@runtime_checkable
class HazardEvent(Protocol):
    """One footprint event: the fields the overlay engine touches.

    ``FirePerimeter`` satisfies this structurally — the engine hashes
    ``name``/``year``/ring bytes and queries ``polygon``; everything
    else (agency, acreage, dates) is hazard-local color.
    """

    name: str
    year: int
    polygon: Polygon


@dataclass(frozen=True)
class FootprintEvent:
    """A generic hazard footprint for non-fire instances.

    Mirrors ``FirePerimeter``'s engine-facing fields; ``acres`` keeps
    the footprint's area in the same unit the fire path reports, so
    renderers and summaries need no per-hazard branches.
    """

    name: str
    year: int
    start_doy: int
    end_doy: int
    acres: float
    polygon: Polygon
    kind: str = "footprint"

    @property
    def duration_days(self) -> int:
        return max(1, self.end_doy - self.start_doy)


@dataclass
class EventSet:
    """One season's worth of a hazard's events.

    For the wildfire instance ``events`` *is* the season's fire list
    (the same list object ``universe.fire_season(year)`` holds), so
    every downstream cache key is untouched by the protocol
    indirection.
    """

    year: int
    events: list

    def __len__(self) -> int:
        return len(self.events)

    def total_acres(self) -> float:
        return float(sum(getattr(e, "acres", 0.0) for e in self.events))


class Hazard:
    """Base class for pluggable hazards.

    Subclasses must provide :attr:`name`, :meth:`intensity` and
    :meth:`event_set`; the streaming/ensemble surface is optional:

    * ``monotone_growth`` + :meth:`growth_series` opt the hazard into
      the delta-overlay incident stream (growth must be monotone);
    * :meth:`ensemble_member` yields per-member event lists for the
      scenario ensembles (member 0 defaults to the plain event set).
    """

    #: Registry key and the canonical ``hazard=`` artifact parameter.
    name: str = ""

    #: Season label :meth:`event_set` defaults to.
    default_year: int = 2019

    #: True when :meth:`growth_series` snapshots are monotone per event
    #: (each tick's polygon contains the previous tick's) — the
    #: contract ``query_polygon_delta`` requires.
    monotone_growth: bool = False

    # -- required ------------------------------------------------------

    def intensity(self, universe) -> IntensitySurface:
        """The hazard's intensity surface for a universe."""
        raise NotImplementedError

    def event_set(self, universe, year: int | None = None) -> EventSet:
        """One season of footprint events (deterministic per seed)."""
        raise NotImplementedError

    # -- optional ------------------------------------------------------

    def ensemble_member(self, universe, year: int,
                        member: int) -> list:
        """Event list of one ensemble member (member 0 = the season).

        Members re-seed the hazard's generator, so an N-member ensemble
        is N independent draws of the same season — the fan-out unit
        the scenario library ships through the worker pool.
        """
        if member == 0:
            return self.event_set(universe, year).events
        raise NotImplementedError(
            f"hazard {self.name!r} does not generate ensemble members")

    def growth_series(self, universe, n_ticks: int = 8) -> list[list]:
        """Per-tick event snapshots for the incident stream.

        Only meaningful when the hazard declares ``monotone_growth``;
        the base raises so non-streaming hazards fail loudly.
        """
        raise NotImplementedError(
            f"hazard {self.name!r} has no incident growth model")

    def incident(self, universe, n_ticks: int = 8) \
            -> tuple[int, list, list[list]]:
        """``(year, background_events, growth_ticks)`` for the stream.

        Default: no background, growth straight from
        :meth:`growth_series`.  The wildfire instance overrides this to
        lay the scripted case-study fronts over the static season.
        """
        return (self.default_year, [],
                self.growth_series(universe, n_ticks))

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
