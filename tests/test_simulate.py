"""Synthetic scenes: determinism, exact truth, noise knobs, crowd scenarios."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from posmap.errors import ConfigError
from posmap.mapping import locate
from posmap.simulate import SimConfig, default_camera, simulate


def _config(extent, **kw):
    kw.setdefault("camera", default_camera(extent))
    kw.setdefault("n_agents", 8)
    kw.setdefault("seed", 7)
    return SimConfig(extent=extent, **kw)


def _unclipped(ann, image_size) -> bool:
    w, h = image_size
    xs = ann.segmentation[0][0::2]
    ys = ann.segmentation[0][1::2]
    return min(xs) > 0 and max(xs) < w and min(ys) > 0 and max(ys) < h


# -- determinism --------------------------------------------------------------


def test_simulate_is_bit_identical(extent):
    config = _config(extent, noise_px=1.5, miss_rate=0.1, confusion_rate=0.2,
                     cyclist_fraction=0.4)
    a = simulate(config, 6)
    b = simulate(config, 6)
    assert a.dataset == b.dataset
    assert a.detections == b.detections
    assert a.frames == b.frames


def test_frames_do_not_depend_on_later_frames(extent):
    config = _config(extent, noise_px=2.0, miss_rate=0.2)
    short = simulate(config, 3)
    long = simulate(config, 8)
    assert short.frames == long.frames[:3]


def test_different_seeds_differ(extent):
    a = simulate(_config(extent, seed=1), 2)
    b = simulate(_config(extent, seed=2), 2)
    assert a.dataset.annotations != b.dataset.annotations


# -- structural invariants ------------------------------------------------------


def test_frame_bookkeeping(sim_noisy):
    n_agents = 10
    for frame in sim_noisy.frames:
        assert len(frame.truth) == n_agents
        assert len(frame.gt_annotations) == len(frame.truth_observations)
        assert len(frame.detections) <= len(frame.gt_annotations)
        for det in frame.detections:
            assert det.score is not None
            assert 0.05 <= det.score <= 1.0
        for ann in frame.gt_annotations:
            assert ann.score is None
        assert frame.image.extra["timestamp"] == frame.image.id - 1  # 1 fps

    assert all(o.source == "sim" for f in sim_noisy.frames for o in f.truth_observations)


def test_truth_box_carries_agent_geometry(extent):
    result = simulate(_config(extent, cyclist_fraction=1.0), 1)
    for obs in result.frames[0].truth_observations:
        assert obs.class_name == "cyclist"
        assert (obs.box.center_x, obs.box.center_y) == (obs.x, obs.y)
        assert obs.box.length > obs.box.width  # bikes are long
        assert 1.45 <= obs.box.height <= 2.0


# -- noise knobs ------------------------------------------------------------------


def test_miss_rate_one_suppresses_all_detections(extent):
    none = simulate(_config(extent, miss_rate=1.0), 4)
    assert none.detections == []
    full = simulate(_config(extent, miss_rate=0.0), 4)
    assert full.dataset == none.dataset  # ground truth is unaffected
    assert len(full.detections) == len(full.dataset.annotations)


def test_confusion_swaps_detection_class_only(extent):
    clean = simulate(_config(extent, cyclist_fraction=0.5), 3)
    confused = simulate(_config(extent, cyclist_fraction=0.5, confusion_rate=1.0), 3)
    assert clean.dataset == confused.dataset
    cats = {c.name: c.id for c in clean.dataset.categories}
    flip = {cats["pedestrian"]: cats["cyclist"], cats["cyclist"]: cats["pedestrian"]}
    assert len(clean.detections) == len(confused.detections)
    for a, b in zip(clean.detections, confused.detections):
        assert b.category_id == flip[a.category_id]
        assert b.segmentation == a.segmentation
        assert b.score == a.score


def test_confusion_rate_only_relabels(extent):
    """The confusion draw must not perturb scores or geometry."""
    base = simulate(_config(extent, noise_px=2.0, miss_rate=0.2), 5)
    mixed = simulate(_config(extent, noise_px=2.0, miss_rate=0.2,
                             confusion_rate=0.5), 5)
    assert len(base.detections) == len(mixed.detections)
    n_flipped = 0
    for a, b in zip(base.detections, mixed.detections):
        assert b.segmentation == a.segmentation
        assert b.score == a.score
        n_flipped += b.category_id != a.category_id
    assert 0 < n_flipped < len(base.detections)


# -- geometric exactness ------------------------------------------------------------


def test_noiseless_detections_locate_exactly(extent, camera):
    config = _config(extent, camera=camera, n_agents=12, seed=3)
    result = simulate(config, 5)
    checked = 0
    for frame in result.frames:
        truth = {o.annotation_id: o for o in frame.truth_observations}
        for ann in frame.gt_annotations:
            if not _unclipped(ann, camera.image_size):
                continue
            obs = locate(camera, ann, "pedestrian")
            t = truth[ann.id]
            assert math.hypot(obs.x - t.x, obs.y - t.y) < 1e-6
            assert abs(obs.box.height - t.box.height) < 1e-6
            checked += 1
    assert checked > 20


def test_noisy_detections_locate_close(extent, camera):
    config = _config(extent, camera=camera, n_agents=12, seed=3, noise_px=1.0)
    result = simulate(config, 5)
    errors = []
    for frame in result.frames:
        truth = {o.annotation_id: o for o in frame.truth_observations}
        # detections keep their own ids; align through polygon-order instead
        gt_ids = [a.id for a in frame.gt_annotations]
        for det, gid in zip(frame.detections, gt_ids):
            if not _unclipped(det, camera.image_size):
                continue
            obs = locate(camera, det, "pedestrian")
            t = truth[gid]
            errors.append(math.hypot(obs.x - t.x, obs.y - t.y))
    assert len(errors) > 20
    assert float(np.mean(errors)) < 0.10


# -- crowd scenarios -----------------------------------------------------------------


def test_attractor_dwell_time(extent):
    attractor = (2.25, 3.0)  # local coords near the short edge
    config = _config(extent, n_agents=10, seed=4, attractor=attractor)
    result = simulate(config, 50)
    near = total = 0
    for frame in result.frames:
        for state in frame.truth:
            lx, ly = extent.to_local(state.x, state.y)
            near += math.hypot(lx - attractor[0], ly - attractor[1]) <= 1.0
            total += 1
    assert near / total >= 0.7


def test_without_attractor_is_uniform(extent):
    config = _config(extent, n_agents=600, seed=11)
    result = simulate(config, 1)
    counts = np.zeros((8, 4), dtype=int)
    for state in result.frames[0].truth:
        lx, ly = extent.to_local(state.x, state.y)
        col = min(int(lx / (extent.width / 4.0)), 3)
        row = min(int(ly / (extent.length / 8.0)), 7)
        counts[row, col] += 1
    assert chisquare(counts.ravel()).pvalue > 0.01


# -- validation ------------------------------------------------------------------------


def test_config_validation(extent):
    camera = default_camera(extent)
    with pytest.raises(ConfigError):
        SimConfig(extent=extent, camera=camera, n_agents=0)
    with pytest.raises(ConfigError):
        SimConfig(extent=extent, camera=camera, cyclist_fraction=1.5)
    with pytest.raises(ConfigError):
        SimConfig(extent=extent, camera=camera, fps=0.0)
    with pytest.raises(ConfigError):
        SimConfig(extent=extent, camera=camera, noise_px=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(extent=extent, camera=camera, miss_rate=1.5)
    with pytest.raises(ConfigError):
        SimConfig(extent=extent, camera=camera, confusion_rate=-0.1)
    # non-finite values would build silently wrong scenes
    for bad in ({"fps": math.nan}, {"fps": math.inf}, {"noise_px": math.nan},
                {"attractor": (math.nan, 1.0)}):
        with pytest.raises(ConfigError):
            SimConfig(extent=extent, camera=camera, n_agents=4, **bad)
    with pytest.raises(ConfigError):
        simulate(_config(extent), 0)
