from __future__ import annotations

import json

import numpy as np
import pytest

from posmap import MapExtent, SimConfig, default_camera
from posmap.camera import Distortion, Intrinsics, load_camera, project_points
from posmap.cli import main
from posmap.simulate import simulate
from posmap.taxonomy import default_taxonomy, save_taxonomy


@pytest.fixture()
def extent() -> MapExtent:
    return MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)


@pytest.fixture()
def camera(extent):
    return default_camera(extent)


@pytest.fixture(scope="session")
def roadside_extent() -> MapExtent:
    return MapExtent(origin=(12.0, -3.0), rotation=0.35, width=4.5, length=32.0)


@pytest.fixture(scope="session")
def sim_noisy(roadside_extent):
    """A moderately noisy 20-frame scene shared by evaluation tests."""
    cam = default_camera(roadside_extent)
    config = SimConfig(
        extent=roadside_extent,
        camera=cam,
        n_agents=10,
        cyclist_fraction=0.3,
        seed=42,
        noise_px=2.0,
        miss_rate=0.2,
        confusion_rate=0.1,
    )
    return simulate(config, 20)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def scene(tmp_path_factory):
    """A two-frame scene and one valid file of every kind a command reads."""
    s = tmp_path_factory.mktemp("scene")
    assert main(["simulate", "--out-dir", str(s), "--frames", "2", "--agents", "3",
                 "--cyclists", "0.5", "--seed", "3"]) == 0
    camera = json.loads((s / "camera.json").read_text())
    del camera["pose"]
    (s / "intr.json").write_text(json.dumps(camera))
    gt = json.loads((s / "gt.json").read_text())
    for ann in gt["annotations"]:
        ann["score"] = 0.9
    (s / "scored.json").write_text(json.dumps(gt))
    save_taxonomy(s / "tax.json", default_taxonomy())
    ground = np.array([[x, y, 0.0] for x in (0.5, 2.0, 4.0) for y in (4.0, 12.0, 24.0)])
    pixels = load_camera(s / "camera.json").project(ground)
    (s / "points.csv").write_text("X,Y,Z,u,v\n" + "".join(
        f"{x},{y},{z},{u},{v}\n" for (x, y, z), (u, v) in zip(ground, pixels)))
    # four exact views of a 7 x 5 planar pattern, which calibrate
    pattern = np.array([[0.12 * i, 0.12 * j, 0.0] for i in range(7) for j in range(5)])
    views = [{"plane": pattern[:, :2].tolist(), "pixels": project_points(
        Intrinsics(1200.0, 1180.0, 960.0, 540.0), Distortion(), np.array(rvec),
        np.array([-0.36, -0.24, 1.4]), pattern).tolist()}
        for rvec in ((0.3, 0.0, 0.05), (-0.35, 0.1, -0.03), (0.1, 0.4, 0.0), (0.05, -0.38, 0.08))]
    (s / "views.json").write_text(json.dumps(views))
    assert main(["map", "--camera", str(s / "camera.json"), "--annotations",
                 str(s / "gt.json"), "--out", str(s / "obs.csv")]) == 0
    assert main(["density", "--observations", str(s / "obs.csv"), "--extent",
                 str(s / "extent.json"), "--out", str(s / "r")]) == 0
    return s
