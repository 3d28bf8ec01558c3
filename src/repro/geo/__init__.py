"""A small from-scratch GIS engine.

This subpackage is the substrate that replaces ArcGIS Pro in the original
study: vector geometry with point-in-polygon joins, an equal-area
projection for acreage math, spatial indexes for millions of points,
affine rasters with polygon rasterization and metric dilation, vector
buffering, and GeoJSON I/O.
"""

from .buffer import buffer_point, buffer_polygon
from .geojson import (
    dump_features,
    feature,
    feature_collection,
    geometry_from_geojson,
    geometry_to_geojson,
    load_features,
)
from .geometry import (
    BBox,
    LineString,
    MultiPolygon,
    Point,
    Polygon,
    PreparedPolygon,
    simplify_ring,
)
from .index import STRTree, UniformGridIndex
from .rings import RingTable
from .predicates import (
    PreparedRing,
    is_ccw,
    point_in_ring,
    points_in_ring,
    prepare_ring,
    ring_area_signed,
    segments_intersect,
)
from .projection import (
    CONUS_ALBERS,
    EARTH_RADIUS_M,
    AlbersEqualArea,
    LocalEquirectangular,
    acres_to_sqmeters,
    destination_point,
    haversine_m,
    meters_per_degree,
    meters_to_miles,
    miles_to_meters,
    sqmeters_to_acres,
)
from .raster import GridSpec, Raster, disk_footprint, rasterize_polygon

__all__ = [
    "BBox", "LineString", "MultiPolygon", "Point", "Polygon",
    "PreparedPolygon", "PreparedRing", "prepare_ring",
    "simplify_ring",
    "STRTree", "UniformGridIndex", "RingTable",
    "GridSpec", "Raster", "disk_footprint", "rasterize_polygon",
    "buffer_point", "buffer_polygon",
    "point_in_ring", "points_in_ring", "ring_area_signed",
    "segments_intersect", "is_ccw",
    "CONUS_ALBERS", "EARTH_RADIUS_M", "AlbersEqualArea",
    "LocalEquirectangular", "haversine_m", "destination_point",
    "meters_per_degree", "miles_to_meters", "meters_to_miles",
    "acres_to_sqmeters", "sqmeters_to_acres",
    "geometry_to_geojson", "geometry_from_geojson", "feature",
    "feature_collection", "dump_features", "load_features",
]
