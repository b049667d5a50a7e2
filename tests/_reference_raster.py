"""The full-frame row loop that ``posmap.geometry2d.rasterize_polygons`` replaced.

Used only as a cross-check oracle in tests. ``rasterize_polygons`` below is
the loop version kept verbatim: one scanline at a time, spans written into
a whole (height, width) frame. The vectorized crop, pasted into a frame of
that size, must equal it bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from posmap.errors import DataError
from posmap.geometry2d import as_points


def rasterize_polygons(
    polys: Sequence[Sequence[float]], width: int, height: int
) -> np.ndarray:
    """Rasterize a multi-part polygon to a boolean (height, width) mask.

    Even-odd scanline fill sampled at pixel centers (x+0.5, y+0.5). Parts are
    OR-combined, matching the multi-part occlusion-split convention.
    """
    mask = np.zeros((height, width), dtype=bool)
    for flat in polys:
        pts = as_points(flat)
        if len(pts) < 3:
            raise DataError("cannot rasterize a polygon with fewer than 3 vertices")
        ys = pts[:, 1]
        row_lo = max(0, int(np.floor(ys.min() - 0.5)))
        row_hi = min(height - 1, int(np.ceil(ys.max())))
        xs_a, ys_a = pts[:, 0], pts[:, 1]
        xs_b, ys_b = np.roll(xs_a, -1), np.roll(ys_a, -1)
        for row in range(row_lo, row_hi + 1):
            yc = row + 0.5
            # edges straddling the scanline (half-open to avoid double counting)
            straddle = (ys_a <= yc) != (ys_b <= yc)
            if not straddle.any():
                continue
            t = (yc - ys_a[straddle]) / (ys_b[straddle] - ys_a[straddle])
            xhits = np.sort(xs_a[straddle] + t * (xs_b[straddle] - xs_a[straddle]))
            for i in range(0, len(xhits) - 1, 2):
                lo = max(int(np.ceil(xhits[i] - 0.5)), 0)
                hi = min(int(np.floor(xhits[i + 1] - 0.5)), width - 1)
                if hi >= lo:
                    mask[row, lo : hi + 1] = True
    return mask


def paste(crop: tuple[np.ndarray, int, int], width: int, height: int) -> np.ndarray:
    """A ``(mask, x0, y0)`` crop written into an empty (height, width) frame."""
    mask, x0, y0 = crop
    frame = np.zeros((height, width), dtype=bool)
    frame[y0 : y0 + mask.shape[0], x0 : x0 + mask.shape[1]] = mask
    return frame


def mask_ious(
    dets: list[list[list[float]]],
    gts: list[list[list[float]]],
    crowd: np.ndarray,
    width: int,
    height: int,
) -> np.ndarray:
    """Pairwise IoU with every pair ANDed over the whole frame, as before crops.

    A crowd ground truth divides by the detection's area alone.
    """
    dm = [rasterize_polygons(p, width, height) for p in dets]
    gm = [rasterize_polygons(p, width, height) for p in gts]
    out = np.zeros((len(dm), len(gm)))
    for i, a in enumerate(dm):
        for j, b in enumerate(gm):
            inter = int(np.count_nonzero(a & b))
            na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
            denom = na if crowd[j] else na + nb - inter
            out[i, j] = inter / denom if inter > 0 and denom > 0 else 0.0
    return out
