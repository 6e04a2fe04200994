from __future__ import annotations

import math

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stationwatch import (
    BoundingBox,
    CameraModel,
    Zone,
    ZoneKind,
    estimate_height,
    estimate_height_axial,
    ground_point,
    point_in_polygon,
    point_in_zone,
    polygon_area,
)
from stationwatch.geometry import box_zone_overlap_area, clip_polygon_to_box

from reference import box_area

SQUARE = ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))
# L-shape: the notch removes the quadrant x>2, y>2.
L_SHAPE = ((0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 2.0), (2.0, 4.0), (0.0, 4.0))
# Concave hexagon with a deep wedge cut into the top edge.
WEDGE = ((0.0, 0.0), (6.0, 0.0), (6.0, 4.0), (3.0, 1.5), (2.0, 4.0), (0.0, 4.0))


# --- height estimation --------------------------------------------------------

def test_height_from_ray_distances_matches_hand_values():
    camera = CameraModel(height_m=3.0, z0_m=12.0)
    assert estimate_height(camera, 3.0, 1.5) == 1.5
    assert estimate_height(camera, 8.0, 2.0) == 2.25
    assert estimate_height(camera, 10.0, 0.0) == 3.0    # head on the camera ray origin
    assert estimate_height(camera, 10.0, 10.0) == 0.0   # head on the ground


def test_height_from_axial_distance_matches_hand_values():
    camera = CameraModel(height_m=3.0, z0_m=12.0)
    assert estimate_height_axial(camera, 6.0) == 1.5
    assert estimate_height_axial(camera, 0.0) == 3.0
    assert estimate_height_axial(camera, 12.0) == 0.0


def test_the_two_height_forms_agree_when_the_ratios_match():
    # b/a = 1/4 and z/z0 = 2/8 = 1/4: identical real ratios, exact floats.
    camera = CameraModel(height_m=3.0, z0_m=8.0)
    assert estimate_height(camera, 4.0, 1.0) == estimate_height_axial(camera, 2.0)


def test_height_domain_errors():
    camera = CameraModel(height_m=3.0, z0_m=12.0)
    with pytest.raises(ValueError, match="ground_hit_m"):
        estimate_height(camera, 0.0, 0.0)
    with pytest.raises(ValueError, match="ground_hit_m"):
        estimate_height(camera, -2.0, 1.0)
    with pytest.raises(ValueError, match="cannot exceed"):
        estimate_height(camera, 2.0, 3.0)
    with pytest.raises(ValueError, match="head_dist_m"):
        estimate_height(camera, 2.0, -0.5)
    with pytest.raises(ValueError, match="head_dist_m"):
        estimate_height(camera, 2.0, math.nan)
    with pytest.raises(ValueError, match="cannot exceed"):
        estimate_height_axial(camera, 13.0)
    with pytest.raises(ValueError, match="axial_dist_m"):
        estimate_height_axial(camera, -1.0)


def test_camera_model_validation():
    with pytest.raises(ValueError, match="height_m"):
        CameraModel(height_m=0.0, z0_m=12.0)
    with pytest.raises(ValueError, match="z0_m"):
        CameraModel(height_m=3.0, z0_m=-1.0)
    with pytest.raises(ValueError, match="height_m"):
        CameraModel(height_m=math.inf, z0_m=12.0)


# --- point-in-polygon against a winding-number oracle --------------------------

def on_any_edge(x, y, vertices):
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if abs(cross) > 1e-9 * max(1.0, abs(bx - ax), abs(by - ay)):
            continue
        if min(ax, bx) - 1e-9 <= x <= max(ax, bx) + 1e-9 \
                and min(ay, by) - 1e-9 <= y <= max(ay, by) + 1e-9:
            return True
    return False


def winding_number_inside(x, y, vertices):
    """Independent membership test: nonzero winding number."""
    winding = 0
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        side = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if ay <= y:
            if by > y and side > 0:
                winding += 1
        elif by <= y and side < 0:
            winding -= 1
    return winding != 0


def oracle_inside(x, y, vertices):
    return on_any_edge(x, y, vertices) or winding_number_inside(x, y, vertices)


def quarter_grid(lo=-1.0, hi=7.0):
    steps = int((hi - lo) * 4) + 1
    return [lo + 0.25 * k for k in range(steps)]


@pytest.mark.parametrize("polygon", [SQUARE, L_SHAPE, WEDGE], ids=["square", "l-shape", "wedge"])
def test_point_in_polygon_matches_the_winding_oracle_on_a_dense_grid(polygon):
    for x in quarter_grid():
        for y in quarter_grid():
            assert point_in_polygon(x, y, polygon) == oracle_inside(x, y, polygon), (x, y)


def test_boundary_points_count_as_inside():
    assert point_in_polygon(4.0, 2.0, SQUARE)      # edge interior
    assert point_in_polygon(2.0, 0.0, SQUARE)      # bottom edge
    assert point_in_polygon(0.0, 0.0, SQUARE)      # vertex
    assert point_in_polygon(2.0, 3.0, L_SHAPE)     # notch edge
    assert point_in_polygon(2.0, 2.0, L_SHAPE)     # reflex vertex
    assert not point_in_polygon(4.0 + 1e-6, 2.0, SQUARE)


def test_concave_membership():
    assert point_in_polygon(1.0, 3.0, L_SHAPE)
    assert point_in_polygon(3.0, 1.0, L_SHAPE)
    assert not point_in_polygon(3.0, 3.0, L_SHAPE)   # inside the notch
    assert not point_in_polygon(3.0, 2.5, WEDGE)     # inside the wedge cut


@settings(max_examples=300, deadline=None)
@given(
    x=st.sampled_from(quarter_grid()),
    y=st.sampled_from(quarter_grid()),
    rotation=st.integers(min_value=0, max_value=5),
    reverse=st.booleans(),
    polygon=st.sampled_from([SQUARE, L_SHAPE, WEDGE]),
)
def test_membership_is_invariant_under_vertex_rotation_and_reversal(
    x, y, rotation, reverse, polygon
):
    rotated = polygon[rotation % len(polygon):] + polygon[: rotation % len(polygon)]
    if reverse:
        rotated = tuple(reversed(rotated))
    assert point_in_polygon(x, y, rotated) == point_in_polygon(x, y, polygon)


def test_point_in_zone_and_ground_point():
    zone = Zone("test", ZoneKind.DANGER, SQUARE)
    foot = ground_point([1.0, 0.0, 3.0, 4.0])
    assert foot == (2.0, 4.0)
    assert ground_point((1.0, 0.0, 3.0, 4.0)) == foot
    assert point_in_zone(foot, zone)  # bottom edge of the zone, inclusive
    assert not point_in_zone((2.0, 4.1), zone)


@st.composite
def polygons_and_points_near_their_box(draw):
    """A zone polygon and a point within 1e-8 of an edge or corner of its bounding box."""
    corners = draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=7, unique=True
    ))
    # Sorted by angle about their mean, the corners make a star-shaped polygon.
    mean_x = sum(x for x, _ in corners) / len(corners)
    mean_y = sum(y for _, y in corners) / len(corners)
    corners.sort(key=lambda c: math.atan2(c[1] - mean_y, c[0] - mean_x))
    scale = draw(st.sampled_from([1.0, 1 / 3, 640.0, 1e6]))
    polygon = tuple((x * scale, y * scale) for x, y in corners)
    try:
        Zone("z", ZoneKind.DANGER, polygon)
    except ValueError:
        reject()

    # Nudges of any size up to 1e-8, and multiples of 5e-10 around the
    # 1e-9 tolerance of `_on_edge`.
    nudges = st.one_of(st.floats(-1e-8, 1e-8), st.integers(-20, 20).map(lambda k: k * 5e-10))

    def near(lo, hi):
        at_an_edge = st.tuples(st.sampled_from([lo, hi]), nudges).map(sum)
        return st.one_of(at_an_edge, st.floats(lo, hi))

    xs, ys = zip(*polygon)
    return polygon, draw(near(min(xs), max(xs))), draw(near(min(ys), max(ys)))


SQUARE_0_10 = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))


@settings(max_examples=500, deadline=None)
@given(case=polygons_and_points_near_their_box())
# Within _EDGE_EPS of an edge's range counts as on the edge, so both points
# are in the square though they lie outside its bounding box.
@example(case=(SQUARE_0_10, 10 + 5e-10, 5.0))
@example(case=(SQUARE_0_10, -5e-10, -5e-10))
def test_point_in_zone_agrees_with_point_in_polygon_at_the_zone_box(case):
    polygon, x, y = case
    zone = Zone("z", ZoneKind.DANGER, polygon)
    assert point_in_zone((x, y), zone) == point_in_polygon(x, y, polygon)


# --- zone validation ------------------------------------------------------------

def test_zone_needs_at_least_three_vertices():
    with pytest.raises(ValueError, match=">= 3"):
        Zone("line", ZoneKind.RISK, ((0.0, 0.0), (1.0, 1.0)))


def test_zone_rejects_non_finite_vertices():
    with pytest.raises(ValueError, match="not finite"):
        Zone("bad", ZoneKind.RISK, ((0.0, 0.0), (1.0, math.nan), (1.0, 1.0)))


def test_zone_rejects_self_intersecting_polygons():
    bowtie = ((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0))
    with pytest.raises(ValueError, match="self-intersecting"):
        Zone("bowtie", ZoneKind.RISK, bowtie)


def test_zone_accepts_concave_simple_polygons():
    zone = Zone("ok", ZoneKind.MONITOR, L_SHAPE)
    assert polygon_area(zone.polygon) == 12.0


# --- areas and clipping -----------------------------------------------------------

def test_polygon_area_known_values():
    assert polygon_area(SQUARE) == 16.0
    assert polygon_area(tuple(reversed(SQUARE))) == 16.0  # orientation-free
    assert polygon_area(L_SHAPE) == 12.0
    assert polygon_area(((0.0, 0.0), (4.0, 0.0))) == 0.0


def test_clip_polygon_to_box_shrinks_to_the_intersection():
    box = (2.0, 2.0, 8.0, 8.0)
    big = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
    assert polygon_area(clip_polygon_to_box(big, box)) == 36.0


def test_clip_polygon_disjoint_and_containment_cases():
    assert clip_polygon_to_box(SQUARE, (10, 10, 20, 20)) == []
    inside_box = (-5, -5, 5, 5)
    assert polygon_area(clip_polygon_to_box(SQUARE, inside_box)) == 16.0
    tiny_box = (1, 1, 2, 2)
    assert polygon_area(clip_polygon_to_box(SQUARE, tiny_box)) == 1.0


def test_clip_triangle_against_a_half_plane_cut():
    triangle = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))
    clipped = clip_polygon_to_box(triangle, (0, 0, 10, 5))
    # Removed cap is the similar triangle above y=5 with area 12.5.
    assert polygon_area(clipped) == pytest.approx(37.5)


def test_clipped_vertices_stay_inside_the_box():
    import random

    rng = random.Random(31)
    polygon = WEDGE
    for _ in range(200):
        x1, y1 = rng.uniform(-2, 6), rng.uniform(-2, 6)
        box = BoundingBox(x1, y1, x1 + rng.uniform(0.5, 6), y1 + rng.uniform(0.5, 6))
        clipped = clip_polygon_to_box(polygon, box.as_list())
        area = polygon_area(clipped)
        assert 0.0 <= area <= min(polygon_area(polygon), box_area(box)) + 1e-9
        for px, py in clipped:
            assert box.x1 - 1e-9 <= px <= box.x2 + 1e-9
            assert box.y1 - 1e-9 <= py <= box.y2 + 1e-9


def test_box_zone_overlap_area():
    zone = Zone("square", ZoneKind.RISK, SQUARE)
    assert box_zone_overlap_area((2, 0, 6, 4), zone) == 8.0
    assert box_zone_overlap_area((10, 10, 12, 12), zone) == 0.0
    assert box_zone_overlap_area((-1, -1, 5, 5), zone) == 16.0
