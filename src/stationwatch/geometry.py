"""Platform geometry: monitored zones, ground-point tests, height estimates.

Zones are simple polygons drawn in image pixel coordinates. A person is
"in" a zone when the bottom-centre of their box lies inside the polygon;
points exactly on an edge count as inside, because at a platform edge the
safe reading of a boundary case is the alarming one.

Height estimation works from similar triangles on the camera's view ray:
with the camera mounted height_m above the platform, a ray through the
subject's head that meets the ground ground_hit_m from the camera after
passing the head at head_dist_m gives

    height = height_m * (1 - head_dist_m / ground_hit_m)

The same ratio can be read along the optical axis: if the axis meets the
ground z0_m out and the subject stands axial_dist_m out, then
height = height_m * (1 - axial_dist_m / z0_m). Both forms are exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import ge, le
from typing import Sequence

_EDGE_EPS = 1e-9


class ZoneKind(Enum):
    """What standing inside a zone means for the monitor."""

    DANGER = "DANGER"    # past the yellow line: alert-worthy for persons
    RISK = "RISK"        # track area: where train presence is measured
    MONITOR = "MONITOR"  # platform: station layout only, never tested per frame


@dataclass(frozen=True)
class CameraModel:
    """Metric camera mounting facts used by the height estimate."""

    height_m: float  # camera height above the platform
    z0_m: float      # distance along the optical axis to its ground intersection

    def __post_init__(self):
        if not (math.isfinite(self.height_m) and self.height_m > 0):
            raise ValueError(f"camera height_m must be positive, got {self.height_m}")
        if not (math.isfinite(self.z0_m) and self.z0_m > 0):
            raise ValueError(f"camera z0_m must be positive, got {self.z0_m}")


def estimate_height(camera: CameraModel, ground_hit_m: float, head_dist_m: float) -> float:
    """Subject height from the view-ray distances; see module docstring."""
    if not (math.isfinite(ground_hit_m) and ground_hit_m > 0):
        raise ValueError(f"ground_hit_m must be positive, got {ground_hit_m}")
    if not math.isfinite(head_dist_m) or head_dist_m < 0:
        raise ValueError(f"head_dist_m must be >= 0, got {head_dist_m}")
    if head_dist_m > ground_hit_m:
        raise ValueError(
            f"head_dist_m ({head_dist_m}) cannot exceed ground_hit_m ({ground_hit_m})"
        )
    return camera.height_m * (1.0 - head_dist_m / ground_hit_m)


def estimate_height_axial(camera: CameraModel, axial_dist_m: float) -> float:
    """Subject height from the distance along the optical axis."""
    if not math.isfinite(axial_dist_m) or axial_dist_m < 0:
        raise ValueError(f"axial_dist_m must be >= 0, got {axial_dist_m}")
    if axial_dist_m > camera.z0_m:
        raise ValueError(
            f"axial_dist_m ({axial_dist_m}) cannot exceed the axis ground distance "
            f"({camera.z0_m})"
        )
    return camera.height_m * (1.0 - axial_dist_m / camera.z0_m)


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _in_span(a, b, p) -> bool:
    """True when point p lies in the axis-aligned bounding box of segment ab."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_cross(p1, p2, p3, p4) -> bool:
    """True when segments p1p2 and p3p4 share any point."""
    d1 = _cross(*p3, *p4, *p1)
    d2 = _cross(*p3, *p4, *p2)
    d3 = _cross(*p1, *p2, *p3)
    d4 = _cross(*p1, *p2, *p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 \
            and d3 != 0 and d4 != 0:
        return True
    # Otherwise they meet only where an endpoint lies on the other segment.
    return ((d1 == 0 and _in_span(p3, p4, p1)) or (d2 == 0 and _in_span(p3, p4, p2))
            or (d3 == 0 and _in_span(p1, p2, p3)) or (d4 == 0 and _in_span(p1, p2, p4)))


def _polygon_is_simple(vertices: Sequence[tuple[float, float]]) -> bool:
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True


@dataclass(frozen=True)
class Zone:
    """A named polygonal region of the camera image."""

    name: str
    kind: ZoneKind
    polygon: tuple[tuple[float, float], ...]
    # (x1, y1, x2, y2): no point outside it is in the polygon; see __post_init__.
    reach: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        polygon = tuple((float(x), float(y)) for x, y in self.polygon)
        object.__setattr__(self, "polygon", polygon)
        if len(polygon) < 3:
            raise ValueError(f"zone '{self.name}': polygon needs >= 3 vertices, got {len(polygon)}")
        for x, y in polygon:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"zone '{self.name}': polygon vertex not finite")
        if not _polygon_is_simple(polygon):
            raise ValueError(f"zone '{self.name}': polygon is self-intersecting")
        # The bounding box, widened because `_on_edge` accepts points up to
        # _EDGE_EPS beyond an edge's range and a ray crossing may round up
        # to a dozen ulps of the largest coordinate past its edge.
        xs, ys = zip(*polygon)
        pad = _EDGE_EPS + 16 * math.ulp(max(map(abs, xs + ys)))
        reach = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
        object.__setattr__(self, "reach", reach)


def ground_point(box: Sequence[float]) -> tuple[float, float]:
    """Bottom-centre (x, y) of an (x1, y1, x2, y2) box: where the subject stands."""
    x1, _, x2, y2 = box
    return (x1 + x2) / 2.0, y2


def _on_edge(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    span = max(1.0, abs(bx - ax), abs(by - ay))
    if abs(_cross(ax, ay, bx, by, px, py)) > _EDGE_EPS * span:
        return False
    return (
        min(ax, bx) - _EDGE_EPS <= px <= max(ax, bx) + _EDGE_EPS
        and min(ay, by) - _EDGE_EPS <= py <= max(ay, by) + _EDGE_EPS
    )


def point_in_polygon(x: float, y: float, vertices: Sequence[tuple[float, float]]) -> bool:
    """Even-odd ray-cast membership; points on an edge count as inside.

    One pass over the edges: a point on any edge is inside at once, so
    boundary points are classified the same way no matter how the vertex
    list is rotated or reversed. Otherwise each edge a -> b the ray meets
    toggles membership; the parity does not depend on the edge order.
    """
    n = len(vertices)
    inside = False
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if _on_edge(x, y, ax, ay, bx, by):
            return True
        if (by > y) != (ay > y) and x < ax + (y - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


def point_in_zone(point: tuple[float, float], zone: Zone) -> bool:
    """`point_in_polygon` of an (x, y) point and the zone, False at once outside its reach."""
    x, y = point
    x1, y1, x2, y2 = zone.reach
    if not (x1 <= x <= x2 and y1 <= y <= y2):
        return False
    return point_in_polygon(x, y, zone.polygon)


def polygon_area(vertices: Sequence[tuple[float, float]]) -> float:
    """Shoelace area, orientation-independent."""
    n = len(vertices)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2.0


def clip_polygon_to_box(
    vertices: Sequence[tuple[float, float]], box: Sequence[float]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a polygon against an (x1, y1, x2, y2) box.

    The polygon is clipped by each side of the box in turn. A side keeps the
    points whose coordinate on `axis` (0 for x, 1 for y) is at least `bound`
    (x1, y1) or at most it (x2, y2); an edge that crosses the side gains the
    point where it meets it.
    """
    x1, y1, x2, y2 = box
    points = list(vertices)
    for axis, bound, keep in ((0, x1, ge), (0, x2, le), (1, y1, ge), (1, y2, le)):
        other = 1 - axis
        out = []
        for i in range(len(points)):
            prev, cur = points[i - 1], points[i]
            cur_in = keep(cur[axis], bound)
            if cur_in != keep(prev[axis], bound):
                t = (bound - prev[axis]) / (cur[axis] - prev[axis])
                cut = prev[other] + t * (cur[other] - prev[other])
                out.append((bound, cut) if axis == 0 else (cut, bound))
            if cur_in:
                out.append(cur)
        points = out
        if not points:
            return []
    return points


def box_zone_overlap_area(box: Sequence[float], zone: Zone) -> float:
    """Area of an (x1, y1, x2, y2) box intersected with the zone polygon."""
    return polygon_area(clip_polygon_to_box(zone.polygon, box))
