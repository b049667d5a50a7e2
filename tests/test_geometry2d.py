from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_raster import paste
from _reference_raster import rasterize_polygons as reference_rasterize
from posmap.errors import DataError
from posmap.geometry2d import (
    as_flat,
    as_points,
    clip_to_rect,
    convex_hull,
    polygon_area,
    polygon_runs,
    polygons_area,
    polygons_bounds,
    rasterize_polygons,
)

SQUARE = [0.0, 0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0]


def _frame(polys, width, height):
    """The crop of a polygon set pasted into its whole (height, width) frame."""
    return paste(rasterize_polygons(polys, width, height), width, height)


def test_polygon_area_square():
    assert polygon_area(SQUARE) == 100.0


def test_polygon_area_orientation_invariant():
    reversed_square = as_flat(as_points(SQUARE)[::-1])
    assert polygon_area(reversed_square) == 100.0


def test_polygon_area_triangle():
    assert polygon_area([0, 0, 4, 0, 0, 3]) == 6.0


def test_polygons_area_sums_parts():
    assert polygons_area([SQUARE, [20, 20, 24, 20, 20, 23]]) == 106.0


def test_polygon_bounds():
    assert polygons_bounds([[1, 2, 5, 2, 5, 9, 1, 9]]) == (1.0, 2.0, 4.0, 7.0)


def test_convex_hull_recovers_square_from_interior_points():
    pts = np.array(
        [[0, 0], [10, 0], [10, 10], [0, 10], [5, 5], [2, 7], [9, 1]], dtype=float
    )
    hull = convex_hull(pts)
    assert sorted(map(tuple, hull)) == [(0, 0), (0, 10), (10, 0), (10, 10)]


def test_convex_hull_collinear_points_reduce():
    pts = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    hull = convex_hull(pts)
    assert len(hull) == 2


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)
        ),
        min_size=3,
        max_size=40,
    )
)
def test_convex_hull_contains_all_points(points):
    pts = np.array(points, dtype=float)
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    # every input point is inside or on the hull: all cross products >= 0
    hx, hy = hull[:, 0], hull[:, 1]
    ex, ey = np.roll(hx, -1) - hx, np.roll(hy, -1) - hy
    for px, py in pts:
        cross = ex * (py - hy) - ey * (px - hx)
        assert np.all(cross >= -1e-6 * (1 + np.abs(cross).max()))


def test_clip_to_rect_keeps_interior_polygon():
    clipped = clip_to_rect(as_points(SQUARE), -5, -5, 20, 20)
    assert polygon_area(as_flat(clipped)) == pytest.approx(100.0)


def test_clip_to_rect_halves_straddling_square():
    clipped = clip_to_rect(as_points(SQUARE), 5, 0, 20, 20)
    assert polygon_area(as_flat(clipped)) == pytest.approx(50.0)


def test_clip_to_rect_outside_returns_empty():
    assert len(clip_to_rect(as_points(SQUARE), 50, 50, 60, 60)) == 0


def test_rasterize_square_counts_interior_pixels():
    mask = _frame([SQUARE], 20, 20)
    # pixel centers 0.5..9.5 in both axes fall inside
    assert mask.sum() == 100
    assert mask[0, 0] and mask[9, 9] and not mask[10, 10]


def test_rasterize_respects_image_bounds():
    poly = [-5.0, -5.0, 15.0, -5.0, 15.0, 15.0, -5.0, 15.0]
    mask = _frame([poly], 10, 10)
    assert mask.all()


@pytest.mark.parametrize(
    "poly",
    [
        [-10.0, 2.0, -3.0, 2.0, -3.0, 5.0, -10.0, 5.0],  # wholly left of the image
        [23.0, 2.0, 30.0, 2.0, 30.0, 5.0, 23.0, 5.0],  # wholly right of it
    ],
)
def test_rasterize_polygon_outside_image_sets_nothing(poly):
    assert not _frame([poly], 20, 10).any()


def test_rasterize_multiple_parts_union():
    a = [0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0]
    b = [6.0, 6.0, 9.0, 6.0, 9.0, 9.0, 6.0, 9.0]
    mask = _frame([a, b], 12, 12)
    assert mask.sum() == 16 + 9


def test_rasterize_rejects_degenerate():
    with pytest.raises(DataError):
        rasterize_polygons([[0.0, 0.0, 1.0, 1.0]], 4, 4)


@pytest.mark.parametrize("k,value", [(4, float("nan")), (5, float("nan")), (0, float("inf"))])
def test_rasterize_rejects_a_non_finite_coordinate(k, value):
    poly = list(SQUARE)
    poly[k] = value
    with pytest.raises(DataError, match="non-finite"):
        rasterize_polygons([SQUARE, poly], 20, 20)


@pytest.mark.parametrize(
    "poly",
    [
        [-1e308, 0.0, 1e308, 10.0, 0.0, 20.0],  # an edge's x span overflows
        [0.0, -1e308, 10.0, 1e308, 20.0, 0.0],  # an edge's y span overflows
    ],
)
def test_rasterize_refuses_an_edge_span_that_overflows(poly):
    with pytest.raises(DataError, match="overflows float64"):
        rasterize_polygons([poly], 64, 48)
    with pytest.raises(DataError, match="overflows float64"):
        polygon_runs([[SQUARE], [poly]], 64, 48)


def test_rasterize_a_huge_finite_triangle():
    mask, x0, y0 = rasterize_polygons([[-1e200, 0.0, 1e200, 10.0, 0.0, 20.0]], 64, 48)
    assert (x0, y0, mask.shape, mask.sum()) == (0, 5, (15, 64), 960)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rasterized_area_close_to_shoelace(data):
    """Pixel count approximates the exact polygon area, within O(perimeter)."""
    n = data.draw(st.integers(5, 12))
    angles = np.sort(
        np.array([data.draw(st.floats(0, 2 * np.pi)) for _ in range(n)])
    )
    if len(np.unique(angles)) < 3:
        return
    radius = data.draw(st.floats(5.0, 30.0))
    cx = data.draw(st.floats(35.0, 60.0))
    cy = data.draw(st.floats(35.0, 60.0))
    xs = cx + radius * np.cos(angles)
    ys = cy + radius * np.sin(angles)
    flat = [float(v) for pair in zip(xs, ys) for v in pair]
    exact = polygon_area(flat)
    mask = _frame([flat], 100, 100)
    perimeter = float(np.sum(np.hypot(np.diff(xs, append=xs[0]), np.diff(ys, append=ys[0]))))
    assert abs(mask.sum() - exact) <= max(2.0, perimeter)


def test_rasterize_crops_to_the_set_pixels():
    a = [2.0, 3.0, 6.0, 3.0, 6.0, 5.0, 2.0, 5.0]
    b = [9.0, 8.0, 10.0, 8.0, 10.0, 9.0, 9.0, 9.0]
    mask, x0, y0 = rasterize_polygons([a, b], 12, 12)
    assert (x0, y0, mask.shape) == (2, 3, (6, 8))
    assert mask.sum() == 8 + 1


@pytest.mark.parametrize(
    "polys",
    [
        [[-10.0, 2.0, -3.0, 2.0, -3.0, 5.0, -10.0, 5.0]],  # wholly outside the image
        [[3.6, 3.6, 4.4, 3.6, 4.4, 4.4, 3.6, 4.4]],  # inside, but holds no pixel centre
        [],  # no part at all
    ],
)
def test_rasterize_without_a_pixel_centre_is_an_empty_crop(polys):
    mask, x0, y0 = rasterize_polygons(polys, 20, 10)
    assert (mask.shape, x0, y0) == ((0, 0), 0, 0)


# whole, half and arbitrary pixel coordinates, some outside a 24 x 18 image
_COORD = st.one_of(
    st.integers(-6, 30).map(float),
    st.integers(-12, 60).map(lambda v: v / 2),
    st.floats(-40.0, 40.0, allow_nan=False),
)


@st.composite
def _polygon_sets(draw):
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(3, 9))
        if draw(st.booleans()):
            flat = [draw(_COORD) for _ in range(2 * n)]
        else:  # sub-pixel or axis-aligned, with horizontal edges
            x, y = draw(_COORD), draw(_COORD)
            w, h = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0, 7.5])), draw(_COORD)
            flat = [x, y, x + w, y, x + w, y + h, x, y + h]
        parts.append(flat)
    return parts


@settings(max_examples=400, deadline=None)
@given(_polygon_sets(), st.integers(1, 24), st.integers(1, 18))
def test_rasterize_crop_equals_the_full_frame_loop(polys, width, height):
    """Multi-part, self-intersecting, on-pixel, off-image and sub-pixel sets."""
    mask, x0, y0 = rasterize_polygons(polys, width, height)
    assert mask.dtype == bool
    assert 0 <= x0 and x0 + mask.shape[1] <= width
    assert 0 <= y0 and y0 + mask.shape[0] <= height
    assert np.array_equal(paste((mask, x0, y0), width, height),
                          reference_rasterize(polys, width, height))


@settings(max_examples=200, deadline=None)
@given(st.lists(_polygon_sets(), max_size=4), st.integers(1, 24), st.integers(1, 18))
def test_polygon_runs_are_each_sets_pixels_row_by_row(sets, width, height):
    """One scan of many sets: sorted, disjoint runs within rows, each set's own pixels."""
    obj, start, end = polygon_runs(sets, width, height)
    assert (start < end).all() and (start // width == (end - 1) // width).all()
    assert (np.diff(obj) >= 0).all() and (end[:-1] <= start[1:])[np.diff(obj) == 0].all()
    for k, polys in enumerate(sets):
        frame = np.zeros(width * height, dtype=bool)
        for a, b in zip(start[obj == k], end[obj == k]):
            frame[a:b] = True
        assert np.array_equal(frame.reshape(height, width),
                              reference_rasterize(polys, width, height))
