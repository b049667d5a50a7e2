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

    Plain ``min``/``max`` rather than numpy: annotation loading calls this
    once per record, and on coordinate lists this short numpy's array
    set-up costs more than the scan itself.
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


def rasterize_polygons(
    polys: Sequence[Sequence[float]], width: int, height: int
) -> tuple[np.ndarray, int, int]:
    """Rasterize a multi-part polygon into a crop ``(mask, x0, y0)`` of the image.

    ``mask[r, c]`` is pixel ``(x0 + c, y0 + r)`` of a (height, width) image;
    the crop is the smallest box holding every set pixel, (0, 0) at (0, 0)
    when none is. Even-odd fill at pixel centres on half-open edges, all rows
    at once: crossings 2i and 2i+1 of a part on a row bound the pixels
    ``ceil(x - 0.5) .. floor(x' - 0.5)``. Parts are OR-combined.
    """
    parts = [as_points(flat) for flat in polys]
    if any(len(p) < 3 for p in parts):
        raise DataError("cannot rasterize a polygon with fewer than 3 vertices")
    if not parts:
        return np.zeros((0, 0), dtype=bool), 0, 0
    xs_a, ys_a = np.concatenate(parts).T
    if not (np.isfinite(xs_a).all() and np.isfinite(ys_a).all()):
        raise DataError("cannot rasterize a polygon with a non-finite coordinate")
    # the other end of each edge: the next vertex of its part
    xs_b, ys_b = np.concatenate([np.concatenate((p[1:], p[:1])) for p in parts]).T
    row_lo = max(0, int(np.floor(ys_a.min() - 0.5)))
    row_hi = min(height - 1, int(np.ceil(ys_a.max())))
    yc = np.arange(row_lo, row_hi + 1) + 0.5
    r, e = np.nonzero((ys_a <= yc[:, None]) != (ys_b <= yc[:, None]))
    x = xs_a[e] + (yc[r] - ys_a[e]) / (ys_b[e] - ys_a[e]) * (xs_b[e] - xs_a[e])
    part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    order = np.lexsort((x, r * len(parts) + part[e]))
    x, r = x[order], r[order]
    lo = np.maximum(np.ceil(x[0::2] - 0.5), 0)
    hi = np.minimum(np.floor(x[1::2] - 0.5), width - 1)
    keep = hi >= lo
    if not keep.any():
        return np.zeros((0, 0), dtype=bool), 0, 0
    row, lo, hi = r[0::2][keep] + row_lo, lo[keep].astype(np.intp), hi[keep].astype(np.intp)
    x0, y0 = int(lo.min()), int(row.min())
    w, h = int(hi.max()) + 1 - x0, int(row.max()) + 1 - y0
    # spans as runs [start, end) of the flat crop, merged where parts or equal
    # crossings overlap; the mask alternates False and True between run bounds
    start = (row - y0) * w + lo - x0
    order = np.argsort(start)
    start, end = start[order], (start + hi - lo + 1)[order]
    reach = np.maximum.accumulate(end)
    new = np.concatenate(([True], start[1:] > reach[:-1]))
    bounds = np.column_stack((start[new], reach[np.append(new[1:], True)])).ravel()
    lengths = np.diff(bounds, prepend=0, append=h * w)
    return np.repeat(np.arange(len(lengths)) % 2 == 1, lengths).reshape(h, w), x0, y0
