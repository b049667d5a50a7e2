"""Localization error versus pixel noise and camera geometry.

Sweeps detector vertex noise over simulated scenes and reports how far
mapped ground positions land from the truth, overall and binned by
distance from the camera. Also re-solves the camera pose from noisy
survey points to show how calibration noise feeds into the same error
budget. No files are written; output is a pair of text tables.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from posmap.calibrate import ground_mapping_error, solve_extrinsics
from posmap.camera import CameraModel
from posmap.evaluation import localization_pairs
from posmap.mapping import MapExtent, locate
from posmap.simulate import SimConfig, default_camera, simulate


def locate_errors(extent, camera, noise_px, n_agents, seed, n_frames=3):
    """(distance, error) of every detection matched to a ground truth in full view."""
    config = SimConfig(extent=extent, camera=camera, n_agents=n_agents,
                       cyclist_fraction=0.2, seed=seed, noise_px=noise_px)
    result = simulate(config, n_frames)
    observations = [locate(camera, det, "pedestrian", image_id=det.image_id)
                    for det in result.detections]
    truth = [o for frame in result.frames for o in frame.truth_observations]
    cam_xy = camera.pose.camera_center[:2]
    return [
        (math.hypot(t.x - cam_xy[0], t.y - cam_xy[1]), math.hypot(o.x - t.x, o.y - t.y))
        for o, t in localization_pairs(result.dataset, result.detections, observations, truth)
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agents", type=int, default=100)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--noise", type=float, nargs="+",
                    default=[0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    args = ap.parse_args()

    extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)
    camera = default_camera(extent)

    print("== detection noise -> ground error ==")
    print(f"{'noise px':>9s} {'n':>6s} {'mean cm':>8s} {'p95 cm':>8s} "
          f"{'<12m cm':>8s} {'>20m cm':>8s}")
    for sigma in args.noise:
        pairs = []
        for s in range(args.seeds):
            pairs += locate_errors(extent, camera, sigma, args.agents, 1000 + s)
        d = np.array([p[0] for p in pairs])
        e = np.array([p[1] for p in pairs]) * 100.0
        near = e[d < 12.0]
        far = e[d > 20.0]
        print(f"{sigma:9.2f} {len(e):6d} {e.mean():8.2f} "
              f"{np.percentile(e, 95):8.2f} {near.mean():8.2f} {far.mean():8.2f}")

    print()
    print("== survey noise -> re-solved pose ground error ==")
    xs = (0.75, 2.25, 3.75)
    ys = (3.0, 7.0, 11.0, 15.0, 19.0, 23.0)
    world = np.array([[x, y, 0.0] for y in ys for x in xs] + [[2.25, 26.0, 0.0]])
    pixels = camera.project(world)
    rng = np.random.default_rng(7)
    print(f"{'noise px':>9s} {'mean of means cm':>17s} {'worst seed cm':>14s}")
    for sigma in args.noise:
        means = []
        for _ in range(50):
            noisy = pixels + rng.normal(0.0, sigma, pixels.shape)
            sol = solve_extrinsics(camera.intrinsics, camera.distortion, world, noisy)
            cam = CameraModel(intrinsics=camera.intrinsics,
                              distortion=camera.distortion, pose=sol.pose,
                              image_size=camera.image_size)
            means.append(ground_mapping_error(cam, world, noisy).mean_m)
        means = np.array(means) * 100.0
        print(f"{sigma:9.2f} {means.mean():17.2f} {means.max():14.2f}")


if __name__ == "__main__":
    main()
