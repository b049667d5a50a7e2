"""Synthetic scenes: determinism, exact truth, noise knobs, crowd scenarios."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from posmap.errors import ConfigError
from posmap.evaluation import localization_pairs
from posmap.mapping import MapExtent, locate
from posmap.simulate import SimConfig, default_camera, simulate


def _config(extent, **kw):
    kw.setdefault("camera", default_camera(extent))
    kw.setdefault("n_agents", 8)
    kw.setdefault("seed", 7)
    return SimConfig(extent=extent, **kw)


def _located_pairs(camera, result):
    """(observation, truth) of each located detection that matches a ground truth."""
    observations = [
        locate(camera, det, "pedestrian", image_id=det.image_id) for det in result.detections
    ]
    truth = [o for frame in result.frames for o in frame.truth_observations]
    return localization_pairs(result.dataset, result.detections, observations, truth)


def _ground_errors(pairs) -> list[float]:
    return [math.hypot(o.x - t.x, o.y - t.y) for o, t in pairs]


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
    assert short.dataset.annotations == [a for a in long.dataset.annotations if a.image_id <= 3]
    assert short.detections == [d for d in long.detections if d.image_id <= 3]


def test_different_seeds_differ(extent):
    a = simulate(_config(extent, seed=1), 2)
    b = simulate(_config(extent, seed=2), 2)
    assert a.dataset.annotations != b.dataset.annotations


# -- structural invariants ------------------------------------------------------


def test_frame_bookkeeping(sim_noisy):
    n_agents = 10
    gts = sim_noisy.dataset.anns_by_image()
    for frame in sim_noisy.frames:
        frame_gts = gts[frame.image.id]
        frame_dets = [d for d in sim_noisy.detections if d.image_id == frame.image.id]
        assert len(frame.truth) == n_agents
        assert [o.annotation_id for o in frame.truth_observations] == [a.id for a in frame_gts]
        assert len(frame_dets) <= len(frame_gts)
        for det in frame_dets:
            assert det.score is not None
            assert 0.05 <= det.score <= 1.0
        for ann in frame_gts:
            assert ann.score is None
        assert frame.image.extra["timestamp"] == frame.image.id - 1  # 1 fps

    assert all(o.source == "sim" for f in sim_noisy.frames for o in f.truth_observations)


def test_truth_box_carries_agent_geometry(extent):
    result = simulate(_config(extent, cyclist_fraction=1.0), 1)
    for obs in result.frames[0].truth_observations:
        assert obs.class_name == "cyclist"
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
    pairs = _located_pairs(camera, simulate(config, 5))
    for obs, t in pairs:
        assert math.hypot(obs.x - t.x, obs.y - t.y) < 1e-6
        assert abs(obs.box.height - t.box.height) < 1e-6
    assert len(pairs) > 20


def test_noisy_detections_locate_close(extent, camera):
    config = _config(extent, camera=camera, n_agents=12, seed=3, noise_px=1.0)
    errors = _ground_errors(_located_pairs(camera, simulate(config, 5)))
    assert len(errors) > 20
    assert float(np.mean(errors)) < 0.10


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), miss_rate=st.floats(0.0, 0.5))
def test_missed_detections_leave_every_pair_exact(seed, miss_rate):
    # a missed detection shifts every later detection of its frame against
    # the ground truths by position; matching pairs each with its own
    extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)
    camera = default_camera(extent)
    config = SimConfig(extent=extent, camera=camera, n_agents=60, cyclist_fraction=0.2,
                       seed=seed, miss_rate=miss_rate)
    errors = _ground_errors(_located_pairs(camera, simulate(config, 2)))
    assert errors
    assert max(errors) < 1e-6


def test_missed_detections_keep_the_mean_within_10cm(extent, camera):
    # c2's scene at 1 px, with one detection in ten missed
    config = _config(extent, camera=camera, n_agents=100, cyclist_fraction=0.2,
                     seed=404, noise_px=1.0, miss_rate=0.1)
    errors = _ground_errors(_located_pairs(camera, simulate(config, 3)))
    assert len(errors) > 150
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
