"""Pixel-plane polygon utilities.

Polygons are flat coordinate lists ``[x1, y1, x2, y2, ...]`` in pixel
coordinates (top-left origin, +x right, +y down), matching the annotation
file format. Areas use the shoelace formula with the absolute value taken,
so vertex winding does not matter.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "polygon_area",
    "polygons_area",
    "polygons_bounds",
    "as_points",
    "as_flat",
    "convex_hull",
    "clip_to_rect",
    "polygon_runs",
    "rasterize_polygons",
]


def as_points(flat: Sequence[float]) -> np.ndarray:
    """Reshape a flat [x1,y1,...] list to an (N,2) float array."""
    arr = np.asarray(flat, dtype=float)
    if arr.ndim != 1 or arr.size % 2 != 0:
        raise DataError(f"polygon coordinate list has odd length {arr.size}")
    return arr.reshape(-1, 2)


def as_flat(points: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(points, dtype=float).reshape(-1)]


def polygon_area(flat: Sequence[float]) -> float:
    """Shoelace area of one polygon, absolute value."""
    pts = as_points(flat)
    if len(pts) < 3:
        raise DataError(f"polygon needs at least 3 vertices, got {len(pts)}")
    x, y = pts[:, 0], pts[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def polygons_area(polys: Sequence[Sequence[float]]) -> float:
    """Total area of a multi-part polygon set (sum of parts)."""
    return sum(polygon_area(p) for p in polys)


def polygons_bounds(polys: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    """Axis-aligned hull (x, y, w, h) of a multi-part polygon set.

    Plain ``min``/``max`` rather than numpy: the simulator calls this once
    per polygon, and on coordinate lists this short numpy's array set-up
    costs more than the scan itself. Of equal values the first is kept, so
    the hull of ``[0.0, ..., -0.0, ...]`` starts at ``0.0``; annotation
    loading takes every hull of a file at once with numpy, and falls back
    to this for a hull with a zero.
    """
    xs: list[float] = []
    ys: list[float] = []
    for p in polys:
        if len(p) % 2:
            raise DataError(f"polygon coordinate list has odd length {len(p)}")
        xs += p[0::2]
        ys += p[1::2]
    x0, y0 = float(min(xs)), float(min(ys))
    return x0, y0, float(max(xs)) - x0, float(max(ys)) - y0


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of an (N,2) point set, counter-clockwise, via monotone chain."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    # lexicographic sort by (x, y)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def clip_to_rect(
    points: np.ndarray, x0: float, y0: float, x1: float, y1: float
) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against an axis-aligned rectangle.

    Returns the clipped vertex array, possibly empty. Intended for convex or
    simple polygons clipped by the (convex) image rectangle.
    """
    poly = [tuple(p) for p in np.asarray(points, dtype=float)]

    def clip_edge(poly, inside, intersect):
        out = []
        n = len(poly)
        for i in range(n):
            cur, nxt = poly[i], poly[(i + 1) % n]
            cur_in, nxt_in = inside(cur), inside(nxt)
            if cur_in:
                out.append(cur)
                if not nxt_in:
                    out.append(intersect(cur, nxt))
            elif nxt_in:
                out.append(intersect(cur, nxt))
        return out

    def x_cross(a, b, x):
        t = (x - a[0]) / (b[0] - a[0])
        return (x, a[1] + t * (b[1] - a[1]))

    def y_cross(a, b, y):
        t = (y - a[1]) / (b[1] - a[1])
        return (a[0] + t * (b[0] - a[0]), y)

    for inside, intersect in (
        (lambda p: p[0] >= x0, lambda a, b: x_cross(a, b, x0)),
        (lambda p: p[0] <= x1, lambda a, b: x_cross(a, b, x1)),
        (lambda p: p[1] >= y0, lambda a, b: y_cross(a, b, y0)),
        (lambda p: p[1] <= y1, lambda a, b: y_cross(a, b, y1)),
    ):
        if not poly:
            return np.zeros((0, 2))
        poly = clip_edge(poly, inside, intersect)
    return np.array(poly) if poly else np.zeros((0, 2))


def polygon_runs(
    sets: Sequence[Sequence[Sequence[float]]], width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel runs ``(obj, start, end)`` of many multi-part polygons, in one scan.

    Run k covers the flat pixels ``start[k] <= p < end[k]`` (p = row * width
    + column) of a (height, width) image that polygon set ``sets[obj[k]]``
    fills. A run never crosses a row end; the runs of one set are disjoint,
    and all runs are sorted by (obj, start). Even-odd fill at pixel centres
    on half-open edges: crossings 2i and 2i+1 of a part on a row bound the
    pixels ``ceil(x - 0.5) .. floor(x' - 0.5)``. Parts are OR-combined.
    A part with fewer than 3 vertices, a non-finite coordinate or an edge
    span that overflows float64 raises :class:`~posmap.errors.DataError`.
    """
    parts = [as_points(flat) for polys in sets for flat in polys]
    if any(len(p) < 3 for p in parts):
        raise DataError("cannot rasterize a polygon with fewer than 3 vertices")
    if not parts:
        return (np.zeros(0, dtype=np.intp),) * 3
    xs_a, ys_a = np.concatenate(parts).T
    if not (np.isfinite(xs_a).all() and np.isfinite(ys_a).all()):
        raise DataError("cannot rasterize a polygon with a non-finite coordinate")
    # the other end of each edge: the next vertex of its part
    xs_b, ys_b = np.concatenate([np.concatenate((p[1:], p[:1])) for p in parts]).T
    part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    # an edge crosses the rows r with min(ya, yb) <= r + 0.5 < max(ya, yb);
    # ceil(y - 0.5) is exact wherever it lands inside the image
    r0, r1 = (
        np.clip(np.ceil(y - 0.5), 0, height).astype(np.intp)
        for y in (np.minimum(ys_a, ys_b), np.maximum(ys_a, ys_b))
    )
    # one crossing per (edge e, row r) pair
    count = r1 - r0
    e = np.repeat(np.arange(len(count)), count)
    r = np.arange(len(e)) - np.repeat(np.cumsum(count) - count - r0, count)
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = xs_b - xs_a, ys_b - ys_a
        x = xs_a[e] + (r + 0.5 - ys_a[e]) / dy[e] * dx[e]
    if not (np.isfinite(x).all() and np.isfinite(dy).all()):
        raise DataError("cannot rasterize a polygon whose edge span overflows float64")
    order = np.lexsort((x, part[e] * height + r))
    x, r, part = x[order], r[order][0::2], part[e[order][0::2]]
    lo = np.maximum(np.ceil(x[0::2] - 0.5), 0)
    hi = np.minimum(np.floor(x[1::2] - 0.5), width - 1)
    keep = hi >= lo
    obj = np.repeat(np.arange(len(sets)), [len(polys) for polys in sets])[part[keep]]
    r, lo, end = r[keep], lo[keep].astype(np.intp), hi[keep].astype(np.intp) + 1
    # merge the spans of one (set, row) where parts or equal crossings overlap;
    # shifting each (set, row) group past the last keeps groups apart
    order = np.lexsort((lo, r, obj))
    obj, r, lo, end = obj[order], r[order], lo[order], end[order]
    group = np.ones(len(obj), dtype=bool)
    group[1:] = (obj[1:] != obj[:-1]) | (r[1:] != r[:-1])
    shift = np.cumsum(group) * (width + 1)
    reach = np.maximum.accumulate(end + shift)
    new = np.ones(len(obj), dtype=bool)
    new[1:] = lo[1:] + shift[1:] > reach[:-1]
    last = np.ones(len(obj), dtype=bool)
    last[:-1] = new[1:]
    row_start = r[new] * width
    return obj[new], row_start + lo[new], row_start + reach[last] - shift[last]


def rasterize_polygons(
    polys: Sequence[Sequence[float]], width: int, height: int
) -> tuple[np.ndarray, int, int]:
    """Rasterize a multi-part polygon into a crop ``(mask, x0, y0)`` of the image.

    ``mask[r, c]`` is pixel ``(x0 + c, y0 + r)`` of a (height, width) image;
    the crop is the smallest box holding every set pixel, (0, 0) at (0, 0)
    when none is. The pixels are the runs of :func:`polygon_runs`.
    """
    _, start, end = polygon_runs([polys], width, height)
    if not len(start):
        return np.zeros((0, 0), dtype=bool), 0, 0
    row, lo = np.divmod(start, width)
    hi = end - row * width
    x0, y0 = int(lo.min()), int(row[0])
    w, h = int(hi.max()) - x0, int(row[-1]) + 1 - y0
    # the mask alternates False and True between the runs' bounds in the crop
    crop_start = (row - y0) * w + lo - x0
    bounds = np.column_stack((crop_start, crop_start + end - start)).ravel()
    lengths = np.diff(bounds, prepend=0, append=h * w)
    return np.repeat(np.arange(len(lengths)) % 2 == 1, lengths).reshape(h, w), x0, y0
