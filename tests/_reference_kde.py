"""The per-point KDE loop that ``posmap.density.kde_raster`` replaced.

Used only as a cross-check oracle in tests. ``kde_raster`` below is the
loop version kept verbatim: one kernel window per observation, computed
and added into the grid one point at a time. The batched implementation
must give the same ``values``, ``bandwidth``, ``total_count`` and
``classes`` bit for bit. ``time_window`` is not compared: this loop takes
it from every observation with a timestamp, including excluded ones.
"""

from __future__ import annotations

import math

import numpy as np

from posmap.density import (
    _TRUNCATE_SIGMAS,
    QUANTUM,
    DensityGrid,
    grid_shape,
    silverman_bandwidth,
)
from posmap.errors import ConfigError, DataError
from posmap.mapping import GroundObservation, MapExtent


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
    excluded entirely: they neither add mass nor count. With no explicit
    ``bandwidth`` the Silverman rule is used, floored at half a cell so a
    single point still spreads over its neighborhood.
    """
    ny, nx = grid_shape(extent, cell_size)
    included: list[tuple[float, float]] = []
    names: set[str] = set()
    for obs in observations:
        if classes is not None and obs.class_name not in classes:
            continue
        if not extent.contains(obs.x, obs.y):
            continue
        included.append(extent.to_local(obs.x, obs.y))
        names.add(obs.class_name)

    local = np.array(included, dtype=float).reshape(-1, 2)
    if bandwidth is None:
        bandwidth = silverman_bandwidth(local)
    if bandwidth < 0:
        raise ConfigError(f"bandwidth must be non-negative, got {bandwidth}")
    h = max(float(bandwidth), cell_size / 2.0)

    values = np.zeros((ny, nx))
    centers_x = (np.arange(nx) + 0.5) * cell_size
    centers_y = (np.arange(ny) + 0.5) * cell_size
    reach = _TRUNCATE_SIGMAS * h
    cell_area = cell_size * cell_size
    for lx, ly in local:
        c0 = max(0, int(math.ceil((lx - reach) / cell_size - 0.5)))
        c1 = min(nx - 1, int(math.floor((lx + reach) / cell_size - 0.5)))
        r0 = max(0, int(math.ceil((ly - reach) / cell_size - 0.5)))
        r1 = min(ny - 1, int(math.floor((ly + reach) / cell_size - 0.5)))
        if c1 < c0 or r1 < r0:
            # point sits in the extent, so its own cell is always in range
            raise DataError(
                f"kernel for point ({lx:.3f}, {ly:.3f}) covers no grid cell"
            )
        kx = np.exp(-((centers_x[c0 : c1 + 1] - lx) ** 2) / (2.0 * h * h))
        ky = np.exp(-((centers_y[r0 : r1 + 1] - ly) ** 2) / (2.0 * h * h))
        kernel = np.outer(ky, kx)
        mass = kernel.sum() * cell_area
        contrib = np.round(kernel / mass / QUANTUM) * QUANTUM
        values[r0 : r1 + 1, c0 : c1 + 1] += contrib

    times = [o.timestamp for o in observations if o.timestamp is not None]
    return DensityGrid(
        extent=extent,
        cell_size=cell_size,
        quanta=np.round(values / QUANTUM).astype(np.int64),
        bandwidth=h,
        total_count=len(local),
        time_window=(min(times), max(times)) if times else None,
        classes=tuple(sorted(names)) if classes is None else tuple(classes),
    )
