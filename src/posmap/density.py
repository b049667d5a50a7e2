"""Density rasters over a map extent.

Observations are smoothed with an isotropic Gaussian kernel onto a regular
grid of ground cells. Two properties are load-bearing for downstream use:

- **Exact mass.** Each kernel is renormalized over the cells it actually
  covers, so clipping at the extent boundary loses no mass: the raster
  integrates to the observation count to within quantization error.
- **Mergeable rasters.** Every kernel's contribution is quantized to an
  integer multiple of 2**-40 persons/m^2, and cells hold int64 counts of
  that quantum. Sums are integer additions, exact up to 2**63 - 1 quanta
  (about 8.4 million persons/m^2 per cell); a merge that would pass that
  raises instead of wrapping. So raster merging is bitwise associative and
  commutative: per-day or per-camera rasters can be combined in any order
  and match a single-pass computation bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (NON_NEGATIVE, NON_NEGATIVE_WHOLE, POSITIVE, ConfigError, DataError,
                     NumericError, read_json, read_number, reading)
from .mapping import GroundObservation, MapExtent, extent_from_dict, extent_to_dict

__all__ = [
    "DensityGrid",
    "silverman_bandwidth",
    "kde_raster",
    "zero_raster",
    "merge_rasters",
    "density_paths",
    "save_density",
    "load_density",
]

QUANTUM = 2.0**-40
_INT64_MAX = int(np.iinfo(np.int64).max)
# float cells of the format without a "quantum" header field: below this
# value, a multiple of QUANTUM scales to an int64 count exactly
_FLOAT_CELL_LIMIT = 2.0**23
# the PGM's gray levels as text, looked up rather than formatted per cell
_GRAY_LEVELS = [str(level) for level in range(256)]
_TRUNCATE_SIGMAS = 5.0
# window cells computed at once: each kernel temporary stays at 256 KB
_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class DensityGrid:
    """A gridded density field over a map extent.

    ``quanta[row, col]`` (int64) counts :data:`QUANTUM` persons/m^2 at the
    cell whose local-frame center is ``((col + 0.5) * cell_size, (row + 0.5)
    * cell_size)``; row 0 is the extent's local y = 0 edge. The grid is
    ceil-sized, so it may overhang the extent by a partial cell on the far
    edges.
    """

    extent: MapExtent
    cell_size: float
    quanta: np.ndarray
    bandwidth: float | None
    total_count: int
    time_window: tuple[float, float] | None
    classes: tuple[str, ...]

    @property
    def values(self) -> np.ndarray:
        """Persons/m^2 per cell, as float64."""
        return self.quanta * QUANTUM

    @property
    def shape(self) -> tuple[int, int]:
        return self.quanta.shape  # type: ignore[return-value]

    def mass(self) -> float:
        """Integral of the raster, in persons.

        The cells are summed exactly as 32-bit halves, which cannot overflow
        int64 below 2**31 cells, then scaled once.
        """
        high = int((self.quanta >> 32).sum())
        low = int((self.quanta & 0xFFFFFFFF).sum())
        return ((high << 32) + low) * QUANTUM * self.cell_size**2


def grid_shape(extent: MapExtent, cell_size: float) -> tuple[int, int]:
    read_number(cell_size, "cell size", POSITIVE, ConfigError)
    return (
        int(math.ceil(extent.length / cell_size - 1e-12)),
        int(math.ceil(extent.width / cell_size - 1e-12)),
    )


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------


def silverman_bandwidth(local_xy: np.ndarray) -> float:
    """Rule-of-thumb isotropic bandwidth for 2D data.

    Geometric mean of the per-axis rules sigma_ax * n^(-1/6); zero when
    there are fewer than two points (callers floor it to half a cell).
    """
    pts = np.asarray(local_xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 2:
        return 0.0
    sx = float(np.std(pts[:, 0], ddof=1))
    sy = float(np.std(pts[:, 1], ddof=1))
    factor = n ** (-1.0 / 6.0)
    return math.sqrt(sx * factor * sy * factor) if sx > 0 and sy > 0 else 0.0


def kde_raster(
    observations: list[GroundObservation],
    extent: MapExtent,
    cell_size: float,
    *,
    bandwidth: float | None = None,
    classes: tuple[str, ...] | None = None,
) -> DensityGrid:
    """Rasterize observations into a density grid over ``extent``.

    Observations outside the extent (or outside ``classes`` when given) are
    excluded entirely: they neither add mass nor count, and their
    timestamps stay out of ``time_window``. With no explicit ``bandwidth``
    the Silverman rule is used, floored at half a cell so a single point
    still spreads over its neighborhood.

    Kernels are computed in batches of points whose windows (clipped to
    the grid) have the same shape, at most :data:`_CHUNK_CELLS` window
    cells at a time. Each point's kernel goes through the same elementwise
    steps and the same per-window sum as a point computed alone, and every
    contribution is a multiple of :data:`QUANTUM`, so the raster does not
    depend on how the points are batched or in which order they are added.
    """
    ny, nx = grid_shape(extent, cell_size)
    if classes is not None:
        observations = [o for o in observations if o.class_name in classes]
    xs = np.array([o.x for o in observations], dtype=float)
    ys = np.array([o.y for o in observations], dtype=float)
    inside = extent.contains(xs, ys)
    kept = [o for o, keep in zip(observations, inside.tolist()) if keep]
    lx, ly = extent.to_local(xs[inside], ys[inside])

    if bandwidth is None:
        bandwidth = silverman_bandwidth(np.column_stack([lx, ly]))
    read_number(bandwidth, "bandwidth", NON_NEGATIVE, ConfigError)
    h = max(float(bandwidth), cell_size / 2.0)

    # each point's window of cells within 5 bandwidths, clipped to the grid
    reach = _TRUNCATE_SIGMAS * h
    c0 = np.maximum(np.ceil((lx - reach) / cell_size - 0.5), 0.0).astype(np.intp)
    c1 = np.minimum(np.floor((lx + reach) / cell_size - 0.5), nx - 1.0).astype(np.intp)
    r0 = np.maximum(np.ceil((ly - reach) / cell_size - 0.5), 0.0).astype(np.intp)
    r1 = np.minimum(np.floor((ly + reach) / cell_size - 0.5), ny - 1.0).astype(np.intp)
    empty = (c1 < c0) | (r1 < r0)
    if empty.any():
        # a point in the extent always has its own cell, unless the grid has none
        i = int(np.argmax(empty))
        raise DataError(
            f"kernel for point ({lx[i]:.3f}, {ly[i]:.3f}) covers no grid cell"
        )

    quanta = np.zeros((ny, nx), dtype=np.int64)
    # points whose clipped windows have one shape are computed together
    shape_key = (r1 - r0 + 1) * (nx + 1) + (c1 - c0 + 1)
    for key in sorted(set(shape_key.tolist())):
        window = divmod(key, nx + 1)
        members = np.flatnonzero(shape_key == key)
        chunk = max(1, _CHUNK_CELLS // (window[0] * window[1]))
        for begin in range(0, len(members), chunk):
            idx = members[begin : begin + chunk]
            _add_kernels(quanta, lx[idx], ly[idx], r0[idx], c0[idx], window, h, cell_size)

    times = [o.timestamp for o in kept if o.timestamp is not None]
    names = tuple(sorted({o.class_name for o in kept}))
    return DensityGrid(
        extent=extent,
        cell_size=cell_size,
        quanta=quanta,
        bandwidth=h,
        total_count=len(kept),
        time_window=(min(times), max(times)) if times else None,
        classes=names if classes is None else tuple(classes),
    )


def _add_kernels(
    quanta: np.ndarray,
    lx: np.ndarray,
    ly: np.ndarray,
    r0: np.ndarray,
    c0: np.ndarray,
    window: tuple[int, int],
    h: float,
    cell_size: float,
) -> None:
    """Add the kernels of points whose windows are ``window`` cells from (r0, c0).

    Each kernel takes the steps of a kernel computed alone: Gaussians in x
    and in y on the window's cell centers, their outer product, divided by
    its integral over the window, rounded to a multiple of QUANTUM and
    added to ``quanta`` as that multiple. A kernel that could carry a cell
    of its window past 2**63 - 1 quanta raises :class:`NumericError`
    instead: the check is conservative by at most one kernel's peak.
    """
    gy, gx = window
    cols = c0[:, None] + np.arange(gx)
    rows = r0[:, None] + np.arange(gy)
    kx = np.exp(-(((cols + 0.5) * cell_size - lx[:, None]) ** 2) / (2.0 * h * h))
    ky = np.exp(-(((rows + 0.5) * cell_size - ly[:, None]) ** 2) / (2.0 * h * h))
    kernel = ky[:, :, None] * kx[:, None, :]
    mass = kernel.reshape(len(lx), -1).sum(axis=1) * (cell_size * cell_size)
    kernel /= mass[:, None, None]
    kernel *= 1.0 / QUANTUM  # a power of two: the same bits as / QUANTUM
    counts = np.round(kernel, out=kernel).astype(np.int64)
    peaks = counts.max(axis=(1, 2)).tolist()
    # windows are checked one by one only if every peak landing on the
    # fullest cell could pass the limit
    near_limit = int(quanta.max()) > _INT64_MAX - sum(peaks)
    for r, c, contrib, peak in zip(r0.tolist(), c0.tolist(), counts, peaks):
        cells = quanta[r : r + gy, c : c + gx]
        if near_limit and int(cells.max()) > _INT64_MAX - peak:
            raise NumericError("a raster cell would pass 2**63 - 1 quanta")
        cells += contrib


def zero_raster(extent: MapExtent, cell_size: float) -> DensityGrid:
    """The merge identity: an empty raster on the given grid."""
    ny, nx = grid_shape(extent, cell_size)
    return DensityGrid(
        extent=extent,
        cell_size=cell_size,
        quanta=np.zeros((ny, nx), dtype=np.int64),
        bandwidth=None,
        total_count=0,
        time_window=None,
        classes=(),
    )


def merge_rasters(a: DensityGrid, b: DensityGrid) -> DensityGrid:
    """Combine two rasters on the same grid by summing densities.

    The cells are added as integers, so ``merge(merge(a, b), c)`` equals
    ``merge(a, merge(b, c))`` bit for bit. A cell whose sum would pass
    2**63 - 1 quanta raises :class:`NumericError`; it never wraps.
    """
    if a.extent != b.extent or a.cell_size != b.cell_size:
        raise ConfigError("cannot merge rasters on different grids")
    if a.quanta.shape != b.quanta.shape:
        raise ConfigError(
            f"raster shapes differ: {a.quanta.shape} vs {b.quanta.shape}"
        )
    # cells are non-negative, so the headroom never underflows
    over = a.quanta > _INT64_MAX - b.quanta
    if over.any():
        row, col = np.argwhere(over)[0]
        raise NumericError(
            f"merged raster cell ({row}, {col}) would pass 2**63 - 1 quanta: "
            f"{int(a.quanta[row, col])} + {int(b.quanta[row, col])}"
        )

    def combine(x, y):
        if x is None:
            return y
        if y is None:
            return x
        return x if x == y else None

    tw: tuple[float, float] | None
    if a.time_window and b.time_window:
        tw = (
            min(a.time_window[0], b.time_window[0]),
            max(a.time_window[1], b.time_window[1]),
        )
    else:
        tw = a.time_window or b.time_window
    return DensityGrid(
        extent=a.extent,
        cell_size=a.cell_size,
        quanta=a.quanta + b.quanta,
        bandwidth=combine(a.bandwidth, b.bandwidth),
        total_count=a.total_count + b.total_count,
        time_window=tw,
        classes=tuple(sorted(set(a.classes) | set(b.classes))),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def density_paths(base: str | Path) -> dict[str, Path]:
    """The files of raster ``base``: ``<base>.csv``, ``<base>.json``, ``<base>.pgm``.

    The suffix is appended, so ``dens0.25`` and ``dens0.1`` name two rasters.
    """
    base = Path(base)
    return {kind: base.with_name(f"{base.name}.{kind}") for kind in ("csv", "json", "pgm")}


def save_density(base: str | Path, grid: DensityGrid) -> dict[str, Path]:
    """Write ``<base>.csv`` (cells), ``<base>.json`` (header), ``<base>.pgm``.

    CSV cells are the integer quanta, and the header's ``"quantum"`` field
    records their unit (2**-40 persons/m^2), so save/load is lossless and
    reruns are byte-identical. The PGM is a quick-look image scaled to the
    raster maximum.
    """
    paths = density_paths(base)
    csv_path, json_path, pgm_path = paths["csv"], paths["json"], paths["pgm"]
    csv_path.parent.mkdir(parents=True, exist_ok=True)

    lines = [",".join(map(str, row)) for row in grid.quanta.tolist()]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    header = {
        "extent": extent_to_dict(grid.extent),
        "cell_size": grid.cell_size,
        "bandwidth": grid.bandwidth,
        "total_count": grid.total_count,
        "time_window": list(grid.time_window) if grid.time_window else None,
        "classes": list(grid.classes),
        "shape": list(grid.shape),
        "quantum": QUANTUM,
    }
    json_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")

    values = grid.values
    vmax = float(values.max()) if values.size else 0.0
    if vmax > 0:
        img = np.clip(np.round(values / vmax * 255.0), 0, 255).astype(int)
    else:
        img = np.zeros(values.shape, dtype=int)
    ny, nx = values.shape
    pgm_lines = ["P2", f"{nx} {ny}", "255"]
    pgm_lines += [" ".join([_GRAY_LEVELS[v] for v in row]) for row in img.tolist()]
    pgm_path.write_text("\n".join(pgm_lines) + "\n", encoding="utf-8")
    return paths


def load_density(base: str | Path) -> DensityGrid:
    """Read a raster written by :func:`save_density` (CSV + JSON header).

    A header with ``"quantum"`` (which must be 2**-40) has integer cells,
    each a non-negative count of :data:`QUANTUM` that fits int64. A header
    without it has the earlier float cells, each a finite, non-negative
    multiple of :data:`QUANTUM` below 2**23, converted to quanta exactly.
    Any other cell is refused: the exact merge law holds only for these.
    The header's ``cell_size`` must be a finite number > 0, ``bandwidth``
    one or null, ``total_count`` a whole number >= 0 (none in quotes) and
    ``classes`` a list of names; the CSV must have the grid's shape.
    """
    paths = density_paths(base)
    json_path, csv_path = paths["json"], paths["csv"]
    header = read_json(json_path, "density header")
    # a raster header's extent is configuration, as an extent file is
    with reading("density header", json_path, ConfigError):
        extent = extent_from_dict(header["extent"])
    with reading("density header", json_path):
        integer_cells = "quantum" in header
        if integer_cells and header["quantum"] != QUANTUM:
            raise DataError(f"quantum {header['quantum']!r} is not 2**-40")
        fields = _read_header(header)
    with reading("density values", csv_path):
        quanta = _read_quanta(csv_path) if integer_cells else _read_float_cells(csv_path)
    grid = DensityGrid(quanta=quanta, extent=extent, **fields)
    expected = grid_shape(grid.extent, grid.cell_size)
    if quanta.shape != expected:
        raise DataError(
            f"density values file {csv_path}: shape {quanta.shape} is not the grid's "
            f"shape {expected}"
        )
    if list(quanta.shape) != list(header.get("shape", quanta.shape)):
        raise DataError(
            f"density raster {base}: CSV shape {quanta.shape} does not match "
            f"header {header.get('shape')}"
        )
    return grid


def _read_header(header: dict) -> dict:
    """The :class:`DensityGrid` fields of a header but its extent, each refused where wrong."""
    bandwidth = header.get("bandwidth")
    tw = header.get("time_window")
    classes = header.get("classes", [])
    if not (type(classes) is list and all(type(c) is str for c in classes)):
        raise DataError(f"classes {classes!r} is not a list of class names")
    return {
        "cell_size": read_number(header["cell_size"], "cell_size", POSITIVE, quoted=False),
        "bandwidth": None if bandwidth is None
        else read_number(bandwidth, "bandwidth", POSITIVE, quoted=False),
        "total_count": read_number(
            header["total_count"], "total_count", NON_NEGATIVE_WHOLE, quoted=False
        ),
        "time_window": (read_number(tw[0], "time_window"), read_number(tw[1], "time_window"))
        if tw else None,
        "classes": tuple(classes),
    }


def _read_quanta(csv_path: Path) -> np.ndarray:
    """Integer cells, refused unless each is a non-negative int64."""
    quanta = np.loadtxt(csv_path, delimiter=",", dtype=np.int64, ndmin=2, encoding="utf-8")
    negative = quanta < 0
    if negative.any():
        row, col = np.argwhere(negative)[0]
        raise DataError(
            f"cell ({row}, {col}) = {int(quanta[row, col])} is not a non-negative integer"
        )
    return quanta


def _read_float_cells(csv_path: Path) -> np.ndarray:
    """Float cells as quanta, refused unless each is a multiple of QUANTUM in [0, 2**23)."""
    rows = [
        [float(v) for v in line.split(",")]
        for line in csv_path.read_text(encoding="utf-8").strip().splitlines()
    ]
    values = np.asarray(rows, dtype=float)
    # a multiple of QUANTUM scales exactly to a whole number; every float >= 2**12 is one
    scaled = np.minimum(values, 2.0**12) * (1.0 / QUANTUM)
    bad = ~((values >= 0.0) & (values < _FLOAT_CELL_LIMIT)) | (np.floor(scaled) != scaled)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"cell ({row}, {col}) = {float(values[row, col])!r} is not a non-negative "
            "multiple of 2**-40 below 2**23"
        )
    return (values * (1.0 / QUANTUM)).astype(np.int64)
