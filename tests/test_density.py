"""Density rasters: exact mass, bitwise-mergeable grids, persistence."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_kde
from posmap import density
from posmap.density import (
    QUANTUM,
    DensityGrid,
    grid_shape,
    kde_raster,
    load_density,
    merge_rasters,
    save_density,
    silverman_bandwidth,
    zero_raster,
)
from posmap.errors import ConfigError, DataError, NumericError
from posmap.mapping import Box3D, GroundObservation, MapExtent


def _obs(x, y, cls="pedestrian", ts=None, src="", oid=1):
    box = Box3D(yaw=0.0, width=0.5, length=0.6, height=1.75)
    return GroundObservation(class_name=cls, x=x, y=y, box=box,
                             annotation_id=oid, image_id=0, timestamp=ts, source=src)


def _pile(x, y, n):
    """``n`` observations within a few millimetres of (x, y)."""
    return [_obs(x + 0.0003 * (i % 7), y + 0.0002 * (i % 11), oid=i) for i in range(n)]


def _scatter(extent, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform([0.3, 0.3], [extent.width - 0.3, extent.length - 0.3], (n, 2))
    # local -> world (extent rotation may be nonzero)
    c, s = math.cos(extent.rotation), math.sin(extent.rotation)
    return [
        _obs(extent.origin[0] + c * lx - s * ly,
             extent.origin[1] + s * lx + c * ly, oid=i)
        for i, (lx, ly) in enumerate(pts)
    ]


# -- mass ---------------------------------------------------------------


def test_mass_equals_observation_count(extent):
    obs = _scatter(extent, 37)
    grid = kde_raster(obs, extent, 0.5)
    assert abs(grid.mass() - 37.0) < 1e-6
    assert grid.total_count == 37


def test_mass_exact_at_the_boundary(extent):
    # kernels clipped by the extent edge lose no mass
    obs = [_obs(0.01, 0.01, oid=1), _obs(extent.width - 0.01, 31.99, oid=2)]
    grid = kde_raster(obs, extent, 0.5, bandwidth=1.0)
    assert abs(grid.mass() - 2.0) < 1e-9


def test_out_of_extent_and_filtered_classes_excluded(extent):
    obs = [
        _obs(2.0, 10.0, cls="pedestrian", oid=1),
        _obs(2.0, 40.0, cls="pedestrian", oid=2),  # outside
        _obs(2.0, 12.0, cls="cyclist", oid=3),
    ]
    grid = kde_raster(obs, extent, 0.5, classes=("pedestrian",))
    assert grid.total_count == 1
    assert abs(grid.mass() - 1.0) < 1e-9
    assert grid.classes == ("pedestrian",)

    both = kde_raster(obs, extent, 0.5)
    assert both.total_count == 2
    assert both.classes == ("cyclist", "pedestrian")


def test_time_window_counts_included_observations_only(extent):
    obs = [
        _obs(2.0, 10.0, ts=10.0, oid=1),
        _obs(2.0, 40.0, ts=999.0, oid=2),  # outside the extent
        _obs(2.0, 12.0, cls="cyclist", ts=0.0, oid=3),  # filtered out
    ]
    grid = kde_raster(obs, extent, 0.5, classes=("pedestrian",))
    assert grid.total_count == 1
    assert grid.time_window == (10.0, 10.0)
    assert kde_raster(obs, extent, 0.5).time_window == (0.0, 10.0)
    assert kde_raster(obs[1:2], extent, 0.5).time_window is None


# -- batched KDE against the per-point loop ----------------------------------


def _local_obs(extent, points):
    """Observations at local-frame (lx, ly, class, timestamp) positions."""
    c, s = math.cos(extent.rotation), math.sin(extent.rotation)
    return [
        _obs(extent.origin[0] + c * lx - s * ly, extent.origin[1] + s * lx + c * ly,
             cls=cls, ts=ts, oid=i)
        for i, (lx, ly, cls, ts) in enumerate(points)
    ]


def _assert_kde_matches_reference(obs, extent, cell, **kw):
    """``kde_raster`` equals the per-point loop bit for bit, errors included."""
    try:
        expected = _reference_kde.kde_raster(obs, extent, cell, **kw)
    except DataError as e:
        with pytest.raises(DataError) as got:
            kde_raster(obs, extent, cell, **kw)
        assert str(got.value) == str(e)
        return None
    grid = kde_raster(obs, extent, cell, **kw)
    assert grid.values.shape == expected.values.shape
    assert grid.values.tobytes() == expected.values.tobytes()
    assert grid.bandwidth == expected.bandwidth
    assert grid.total_count == expected.total_count
    assert grid.classes == expected.classes
    assert (grid.extent, grid.cell_size) == (expected.extent, expected.cell_size)
    # the loop also counts excluded observations' timestamps; the batch does not
    classes = kw.get("classes")
    times = [
        o.timestamp for o in obs
        if (classes is None or o.class_name in classes)
        and extent.contains(o.x, o.y) and o.timestamp is not None
    ]
    assert grid.time_window == ((min(times), max(times)) if times else None)
    return grid


_ROTATED = MapExtent(origin=(12.0, -3.0), rotation=0.35, width=4.5, length=32.0)


@pytest.mark.parametrize(
    "extent, cell, points, kw",
    [
        # one point: the Silverman rule gives 0, floored at half a cell
        (_ROTATED, 0.5, [(2.0, 10.0, "pedestrian", 1.0)], {}),
        # no input at all, with and without an explicit bandwidth
        (_ROTATED, 0.25, [], {}),
        (_ROTATED, 0.25, [], {"bandwidth": 0.7}),
        # windows clipped at every edge and corner, on a rotated extent
        (_ROTATED, 0.25,
         [(lx, ly, "pedestrian", None)
          for lx in (0.0, 0.01, 2.25, 4.49, 4.5) for ly in (0.0, 0.3, 16.0, 31.8, 32.0)],
         {"bandwidth": 0.6}),
        # points outside the extent and the class filter
        (_ROTATED, 0.5,
         [(-0.1, 5.0, "pedestrian", 1.0), (2.0, 32.5, "pedestrian", 2.0),
          (2.0, 5.0, "cyclist", 3.0), (1.0, 7.0, "pedestrian", 4.0),
          (3.0, 9.0, "pedestrian", 5.0)],
         {"classes": ("pedestrian",)}),
        # many points of one window shape: several chunks of one group
        (MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0), 0.1,
         [(0.1 + 4.3 * (i % 13) / 12, 6.0 + 20.0 * i / 199, "pedestrian", None)
          for i in range(200)],
         {"bandwidth": 1.0}),
        # an extent far narrower than a cell has no grid cell: "covers no grid cell"
        (MapExtent(origin=(0.0, 0.0), rotation=0.0, width=1e-13, length=5.0), 0.5,
         [(0.0, 1.0, "pedestrian", None)], {}),
    ],
    ids=["one-point", "empty", "empty-bandwidth", "clipped-edges", "filtered",
         "chunks", "no-cell"],
)
def test_kde_matches_per_point_loop(extent, cell, points, kw):
    obs = _local_obs(extent, points)
    grid = _assert_kde_matches_reference(obs, extent, cell, **kw)
    if points and extent.width < 1e-12:
        assert grid is None  # both raised the same DataError
    if len(points) == 200:
        ny, nx = grid.shape
        # every point's window spans the 45 columns and at least 100 rows
        assert 200 * nx * 100 > 4 * density._CHUNK_CELLS


_coord = st.one_of(
    st.sampled_from([0.0, 1.0]),  # exactly on an edge
    st.floats(-0.15, 1.15, allow_nan=False),  # a fraction of the side; some outside
)


@settings(max_examples=60, deadline=None)
@given(
    rotation=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
    width=st.floats(0.3, 6.0),
    length=st.floats(0.3, 12.0),
    cell=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    points=st.lists(
        st.tuples(_coord, _coord, st.sampled_from(["pedestrian", "cyclist"]),
                  st.one_of(st.none(), st.floats(0.0, 100.0))),
        max_size=40,
    ),
    bandwidth=st.one_of(st.none(), st.floats(0.0, 3.0)),
    classes=st.sampled_from([None, ("pedestrian",), ("cyclist", "dog")]),
)
def test_kde_matches_per_point_loop_on_random_scenes(
    rotation, width, length, cell, points, bandwidth, classes
):
    extent = MapExtent(origin=(3.0, -7.0), rotation=rotation, width=width, length=length)
    scaled = [(fx * width, fy * length, cls, ts) for fx, fy, cls, ts in points]
    _assert_kde_matches_reference(
        _local_obs(extent, scaled), extent, cell, bandwidth=bandwidth, classes=classes
    )


# -- merge monoid ----------------------------------------------------------


def test_merge_is_linear_in_observations(extent):
    a, b = _obs(1.0, 5.0, oid=1), _obs(3.0, 20.0, oid=2)
    h = 0.8
    combined = kde_raster([a, b], extent, 0.5, bandwidth=h)
    merged = merge_rasters(
        kde_raster([a], extent, 0.5, bandwidth=h),
        kde_raster([b], extent, 0.5, bandwidth=h),
    )
    assert np.array_equal(combined.values, merged.values)
    assert merged.total_count == 2


def test_merge_associative_and_commutative_bitwise(extent):
    group = _scatter(extent, 30, seed=5)
    h = 0.7
    parts = [
        kde_raster(group[:10], extent, 0.5, bandwidth=h),
        kde_raster(group[10:20], extent, 0.5, bandwidth=h),
        kde_raster(group[20:], extent, 0.5, bandwidth=h),
    ]
    a, b, c = parts
    left = merge_rasters(merge_rasters(a, b), c)
    right = merge_rasters(a, merge_rasters(b, c))
    assert np.array_equal(left.values, right.values)
    assert np.array_equal(
        merge_rasters(a, b).values, merge_rasters(b, a).values
    )
    single = kde_raster(group, extent, 0.5, bandwidth=h)
    assert np.array_equal(left.values, single.values)


def test_zero_raster_is_identity(extent):
    grid = kde_raster(_scatter(extent, 8, seed=2), extent, 0.5, bandwidth=0.6)
    z = zero_raster(extent, 0.5)
    out = merge_rasters(z, grid)
    assert np.array_equal(out.values, grid.values)
    assert out.bandwidth == grid.bandwidth
    assert out.total_count == grid.total_count
    assert out.classes == grid.classes


def test_merge_rejects_mismatched_grids(extent, roadside_extent):
    with pytest.raises(ConfigError, match="different grids"):
        merge_rasters(zero_raster(extent, 0.5), zero_raster(roadside_extent, 0.5))
    with pytest.raises(ConfigError, match="different grids"):
        merge_rasters(zero_raster(extent, 0.5), zero_raster(extent, 0.25))


def test_values_are_quantum_multiples(extent):
    grid = kde_raster(_scatter(extent, 12, seed=9), extent, 0.5)
    quotient = grid.values / QUANTUM
    assert np.array_equal(quotient, np.round(quotient))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000))
def test_merge_matches_single_pass(n, seed):
    extent = __import__("posmap").MapExtent(origin=(0.0, 0.0), rotation=0.0,
                                            width=4.5, length=32.0)
    obs = _scatter(extent, n, seed=seed)
    h = 0.9
    k = n // 2
    merged = merge_rasters(
        kde_raster(obs[:k], extent, 0.5, bandwidth=h),
        kde_raster(obs[k:], extent, 0.5, bandwidth=h),
    )
    single = kde_raster(obs, extent, 0.5, bandwidth=h)
    assert np.array_equal(merged.values, single.values)


def test_merge_is_exact_above_8192_in_every_order(extent):
    # past 8192 persons/m^2 (2**53 quanta) a float64 sum of cells rounds
    parts = [
        kde_raster(_pile(2.05 + 0.01 * k, 10.05, 400 + k), extent, 0.1, bandwidth=0.05)
        for k in range(3)
    ]
    assert all(p.values.max() > 8192 for p in parts)
    merged = []
    for a, b, c in itertools.permutations(parts):
        merged.append(merge_rasters(merge_rasters(a, b), c))
        merged.append(merge_rasters(a, merge_rasters(b, c)))
    exact = sum(p.quanta.astype(object) for p in parts)  # Python integers
    for m in merged:
        assert m.values.tobytes() == merged[0].values.tobytes()
        assert (m.quanta.astype(object) == exact).all()


def test_merge_that_would_pass_int64_raises(extent):
    zero = zero_raster(extent, 0.5)
    half = dataclasses.replace(zero, quanta=np.full(zero.shape, 2**62, dtype=np.int64))
    rest = dataclasses.replace(zero, quanta=half.quanta - 1)
    assert merge_rasters(half, rest).quanta.max() == 2**63 - 1
    with pytest.raises(NumericError, match=re.escape("would pass 2**63 - 1 quanta")):
        merge_rasters(half, half)


def test_kde_that_would_pass_int64_raises():
    # on 1 mm cells one point peaks at 6.2e5 persons/m^2; 2**63 quanta is 8.4e6
    extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=0.05, length=0.05)
    spot = [_obs(0.0255, 0.0255, oid=i) for i in range(14)]
    top = kde_raster(spot[:13], extent, 0.001, bandwidth=0.0)
    assert top.quanta.max() == 13 * kde_raster(spot[:1], extent, 0.001).quanta.max()
    assert top.values.max() > 8e6
    with pytest.raises(NumericError, match=re.escape("would pass 2**63 - 1 quanta")):
        kde_raster(spot, extent, 0.001, bandwidth=0.0)
    # kernels whose windows do not overlap never come near the limit
    apart = [_obs(0.0025 + 0.005 * (i % 10), 0.0025 + 0.005 * (i // 10), oid=i) for i in range(20)]
    assert kde_raster(apart, extent, 0.001, bandwidth=0.0).quanta.max() < top.quanta.max() // 12


# -- bandwidth ---------------------------------------------------------------


def test_silverman_bandwidth_formula():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [1.5, 2.5]])
    sx = np.std(pts[:, 0], ddof=1)
    sy = np.std(pts[:, 1], ddof=1)
    f = len(pts) ** (-1.0 / 6.0)
    assert silverman_bandwidth(pts) == pytest.approx(math.sqrt(sx * f * sy * f))


def test_silverman_bandwidth_degenerate_cases():
    assert silverman_bandwidth(np.empty((0, 2))) == 0.0
    assert silverman_bandwidth(np.array([[1.0, 1.0]])) == 0.0
    collinear = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])  # sx = 0
    assert silverman_bandwidth(collinear) == 0.0


def test_bandwidth_floor_is_half_a_cell(extent):
    grid = kde_raster([_obs(2.0, 10.0)], extent, 0.5)  # single point: rule gives 0
    assert grid.bandwidth == 0.25


# -- grid shape ---------------------------------------------------------------


def test_grid_shape(extent):
    assert grid_shape(extent, 0.5) == (64, 9)
    assert grid_shape(extent, 1.0) == (32, 5)  # width 4.5 rounds up
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="is not a finite number > 0"):
            grid_shape(extent, bad)


# -- persistence -----------------------------------------------------------------


def test_density_save_load_round_trip(extent, tmp_path):
    obs = _scatter(extent, 15, seed=3)
    for i, o in enumerate(obs):
        obs[i] = GroundObservation(**{**o.__dict__, "timestamp": float(i)})
    grid = kde_raster(obs, extent, 0.5)
    paths = save_density(tmp_path / "dens", grid)
    assert set(paths) == {"csv", "json", "pgm"}

    loaded = load_density(tmp_path / "dens")
    assert np.array_equal(loaded.values, grid.values)
    assert loaded.extent == grid.extent
    assert loaded.cell_size == grid.cell_size
    assert loaded.bandwidth == grid.bandwidth
    assert loaded.total_count == grid.total_count
    assert loaded.time_window == grid.time_window
    assert loaded.classes == grid.classes


def test_density_save_is_deterministic(extent, tmp_path):
    grid = kde_raster(_scatter(extent, 9, seed=4), extent, 0.5)
    save_density(tmp_path / "a", grid)
    save_density(tmp_path / "b", grid)
    for ext in (".csv", ".json", ".pgm"):
        assert (tmp_path / "a").with_suffix(ext).read_bytes() == \
               (tmp_path / "b").with_suffix(ext).read_bytes()


def test_density_pgm_is_valid(extent, tmp_path):
    grid = kde_raster(_scatter(extent, 5, seed=6), extent, 0.5)
    paths = save_density(tmp_path / "img", grid)
    lines = paths["pgm"].read_text().splitlines()
    assert lines[0] == "P2"
    nx, ny = (int(v) for v in lines[1].split())
    assert (ny, nx) == grid.shape
    assert lines[2] == "255"
    assert len(lines) == 3 + ny


def test_density_load_errors(extent, tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_density(tmp_path / "nothing")

    grid = zero_raster(extent, 0.5)
    save_density(tmp_path / "bad", grid)
    csv_path = (tmp_path / "bad").with_suffix(".csv")
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")  # drop a row
    with pytest.raises(DataError, match="shape"):
        load_density(tmp_path / "bad")


@pytest.mark.parametrize("field, value", [
    ("total_count", 3.7), ("total_count", -5), ("total_count", "3"),
    pytest.param("total_count", 10**400, id="total_count-10**400"),
    ("bandwidth", "abc"), ("bandwidth", -1.0), ("bandwidth", math.inf),
    pytest.param("bandwidth", 10**400, id="bandwidth-10**400"),
    ("classes", "ped"), ("classes", [1]),
    ("cell_size", math.nan), ("cell_size", -0.5), ("cell_size", True),
])
def test_header_fields_that_would_load_as_other_values_are_refused(
    extent, tmp_path, field, value
):
    paths = save_density(tmp_path / "r", kde_raster(_scatter(extent, 5), extent, 0.5))
    header = json.loads(paths["json"].read_text())
    header[field] = value
    paths["json"].write_text(json.dumps(header))  # json writes and reads NaN
    with pytest.raises(DataError, match=re.escape(f"{paths['json']}: {field} {value!r}")):
        load_density(tmp_path / "r")


@pytest.mark.parametrize("bad", [math.nan, True, pytest.param(10**400, id="10**400")])
def test_a_time_window_that_is_not_two_finite_numbers_is_refused(extent, tmp_path, bad):
    # read with float(), NaN loaded and spread to every merge, and true was the time 1.0
    paths = save_density(tmp_path / "r", kde_raster(_scatter(extent, 5), extent, 0.5))
    header = json.loads(paths["json"].read_text())
    header["time_window"] = [0.0, bad]
    paths["json"].write_text(json.dumps(header))
    named = f"density header {paths['json']}: time_window {bad!r} is not a finite number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_density(tmp_path / "r")


def test_cells_off_the_grid_shape_are_refused(extent, tmp_path):
    paths = save_density(tmp_path / "r", zero_raster(extent, 0.5))
    header = json.loads(paths["json"].read_text())
    del header["shape"]  # the header's own shape is optional
    paths["json"].write_text(json.dumps({**header, "cell_size": 0.25}))
    with pytest.raises(DataError, match=re.escape(f"{paths['csv']}: shape (64, 9)")):
        load_density(tmp_path / "r")
    paths["json"].write_text(json.dumps(header))
    assert load_density(tmp_path / "r").shape == (64, 9)


# -- on-disk cells ------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def test_saved_cells_are_integer_quanta(extent, tmp_path):
    grid = kde_raster(_scatter(extent, 7, seed=8), extent, 0.5)
    paths = save_density(tmp_path / "r", grid)
    assert json.loads(paths["json"].read_text())["quantum"] == QUANTUM
    cells = np.loadtxt(paths["csv"], delimiter=",", dtype=np.int64)
    assert np.array_equal(cells, grid.quanta)


def test_float_format_raster_loads_to_the_same_quanta():
    # written by the float-cell writer, whose header has no "quantum" field;
    # it holds cells above 2**12, where every float is a multiple of 2**-40
    legacy = load_density(DATA / "float_raster")
    floats = np.loadtxt(DATA / "float_raster.csv", delimiter=",")
    assert legacy.values.tobytes() == floats.tobytes()
    assert floats.max() > 2**12
    extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=2.0, length=3.0)
    points = _pile(1.05, 1.55, 100) + [_obs(0.4, 2.6), _obs(1.7, 0.3)]
    assert np.array_equal(legacy.quanta, kde_raster(points, extent, 0.1, bandwidth=0.05).quanta)
    assert legacy.total_count == 102


@pytest.mark.parametrize("cell, loads", [("8388607.5", True), ("8388608.0", False)])
def test_float_format_cells_must_fit_int64_quanta(tmp_path, cell, loads):
    for suffix in (".csv", ".json"):
        (tmp_path / f"r{suffix}").write_text((DATA / f"float_raster{suffix}").read_text())
    text = (tmp_path / "r.csv").read_text()
    (tmp_path / "r.csv").write_text(cell + text[text.index(","):])
    if loads:
        assert load_density(tmp_path / "r").quanta[0, 0] == int(float(cell) * 2**40)
    else:
        with pytest.raises(DataError, match=re.escape(str(tmp_path / "r.csv"))):
            load_density(tmp_path / "r")


@pytest.mark.parametrize("cell", ["nan", "-1", "0.5", str(2**63)])
def test_integer_cells_must_be_non_negative_int64(extent, tmp_path, cell):
    paths = save_density(tmp_path / "r", zero_raster(extent, 0.5))
    text = paths["csv"].read_text()
    paths["csv"].write_text(cell + text[text.index(","):])
    with pytest.raises(DataError, match=re.escape(str(paths["csv"]))):
        load_density(tmp_path / "r")


def test_quantum_other_than_2_to_the_minus_40_is_refused(extent, tmp_path):
    paths = save_density(tmp_path / "r", zero_raster(extent, 0.5))
    header = json.loads(paths["json"].read_text())
    header["quantum"] = 2.0**-30
    paths["json"].write_text(json.dumps(header))
    with pytest.raises(DataError, match=re.escape(str(paths["json"]))):
        load_density(tmp_path / "r")
