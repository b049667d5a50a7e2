"""Release gate: every published accuracy/fidelity target, one test each.

Each test prints a visible PASS/FAIL line with the measured numbers, so a
full run reads as a checklist. Every threshold is asserted at its stated
value — if a target cannot be met the line stays red rather than the
tolerance quietly widening.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from _reference_eval import reference_evaluate
from posmap.calibrate import ground_mapping_error, solve_extrinsics
from posmap.camera import (
    CameraModel,
    Distortion,
    Intrinsics,
    Pose,
    matrix_to_axis_angle,
)
from posmap.coco import (
    Annotation,
    Category,
    Dataset,
    ImageRecord,
    export_labelme,
    filter_for_annotation,
    import_labelme,
    load_dataset,
    save_dataset,
    split_dataset,
)
from posmap.density import kde_raster, merge_rasters, zero_raster
from posmap.errors import PosmapError
from posmap.evaluation import diagnose_errors, evaluate_detections, localization_pairs
from posmap.mapping import (
    Box3D,
    GroundObservation,
    MapExtent,
    locate,
    sample_frames,
)
from posmap.simulate import SimConfig, default_camera, simulate
from posmap.taxonomy import default_taxonomy, default_treatments

EXTENT = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)


def _check(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _look_at(center: np.ndarray, target: np.ndarray) -> Pose:
    z = target - center
    z = z / np.linalg.norm(z)
    x = np.cross(z, np.array([0.0, 0.0, 1.0]))
    x = x / np.linalg.norm(x)
    rot = np.vstack([x, np.cross(z, x), z])
    return Pose(
        rvec=tuple(float(v) for v in matrix_to_axis_angle(rot)),
        t=tuple(float(v) for v in (-rot @ center)),
    )


# ---------------------------------------------------------------------------
# 1. survey-based pose recovery: mean ground error < 10 cm under pixel noise
# ---------------------------------------------------------------------------


def test_c1_ground_mapping_accuracy(capsys):
    camera = default_camera(EXTENT)  # pole-mounted 6 m rig
    xs = (0.75, 2.25, 3.75)
    ys = (3.0, 7.0, 11.0, 15.0, 19.0, 23.0)
    world = np.array([[x, y, 0.0] for y in ys for x in xs] + [[2.25, 26.0, 0.0]])
    assert len(world) == 19
    pixels = camera.project(world)
    assert all(camera.in_image(u, v) for u, v in pixels)

    t0 = time.perf_counter()
    clean = solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels)
    clean_cam = CameraModel(
        intrinsics=camera.intrinsics,
        distortion=camera.distortion,
        pose=clean.pose,
        image_size=camera.image_size,
    )
    clean_err = ground_mapping_error(clean_cam, world, pixels).mean_m

    rng = np.random.default_rng(2024)
    good = 0
    worst = 0.0
    for _ in range(100):
        noisy = pixels + rng.normal(0.0, 0.5, pixels.shape)
        sol = solve_extrinsics(camera.intrinsics, camera.distortion, world, noisy)
        cam = CameraModel(
            intrinsics=camera.intrinsics,
            distortion=camera.distortion,
            pose=sol.pose,
            image_size=camera.image_size,
        )
        err = ground_mapping_error(cam, world, noisy).mean_m
        worst = max(worst, err)
        good += err < 0.10
    elapsed = time.perf_counter() - t0

    ok = clean_err < 1e-6 and good >= 95 and elapsed < 10.0
    _check(
        capsys,
        "1 ground-mapping accuracy",
        ok,
        f"noiseless {clean_err:.2e} m, {good}/100 seeds < 10 cm at 0.5 px "
        f"(worst {worst * 100:.1f} cm), {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. behavioral localization: mean error < 10 cm at 1 px noise, monotone in noise
# ---------------------------------------------------------------------------


def _localization_error(noise_px: float) -> float:
    camera = default_camera(EXTENT)
    config = SimConfig(
        extent=EXTENT, camera=camera, n_agents=100, cyclist_fraction=0.2,
        seed=404, noise_px=noise_px,
    )
    result = simulate(config, 3)
    observations = [
        locate(camera, det, "pedestrian", image_id=det.image_id) for det in result.detections
    ]
    truth = [o for frame in result.frames for o in frame.truth_observations]
    pairs = localization_pairs(result.dataset, result.detections, observations, truth)
    errors = [math.hypot(o.x - t.x, o.y - t.y) for o, t in pairs]
    assert len(errors) > 150
    return float(np.mean(errors))


def test_c2_behavioral_localization(capsys):
    means = [_localization_error(s) for s in (0.0, 0.5, 1.0, 2.0)]
    monotone = all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
    ok = means[2] < 0.10 and monotone
    _check(
        capsys,
        "2 behavioral localization",
        ok,
        "mean error [m] at 0/0.5/1/2 px: "
        + "/".join(f"{m:.4f}" for m in means)
        + f", monotone={monotone}",
    )


# ---------------------------------------------------------------------------
# 3. projection correctness: round trips, distortion inversion, Jacobians
# ---------------------------------------------------------------------------


def _random_rig(rng: np.random.Generator) -> CameraModel:
    w, h = 1920, 1080
    intr = Intrinsics(
        fx=float(rng.uniform(900, 1600)),
        fy=float(rng.uniform(900, 1600)),
        cx=w / 2.0 + float(rng.uniform(-30, 30)),
        cy=h / 2.0 + float(rng.uniform(-20, 20)),
    )
    dist = Distortion(
        k1=float(rng.uniform(-0.25, 0.05)),
        k2=float(rng.uniform(-0.03, 0.03)),
        p1=float(rng.uniform(-1e-3, 1e-3)),
        p2=float(rng.uniform(-1e-3, 1e-3)),
    )
    center = np.array([
        float(rng.uniform(1.0, 3.5)),
        -float(rng.uniform(6.0, 12.0)),
        float(rng.uniform(4.0, 8.0)),
    ])
    target = np.array([2.25, float(rng.uniform(10.0, 20.0)), 0.0])
    return CameraModel(
        intrinsics=intr, distortion=dist, pose=_look_at(center, target),
        image_size=(w, h),
    )


def test_c3_projection_round_trips(capsys):
    rng = np.random.default_rng(99)

    # ground round trips: project then back-project, 10^4 points
    n_trips = 0
    worst_trip = 0.0
    while n_trips < 10_000:
        cam = _random_rig(rng)
        pts = np.column_stack([
            rng.uniform(0.0, 4.5, 1500),
            rng.uniform(2.0, 30.0, 1500),
            np.zeros(1500),
        ])
        uv = cam.project(pts)
        keep = [i for i in range(len(pts)) if cam.in_image(uv[i, 0], uv[i, 1])]
        for i in keep[:700]:
            x, y = cam.back_project_ground(uv[i, 0], uv[i, 1])
            worst_trip = max(worst_trip, math.hypot(x - pts[i, 0], y - pts[i, 1]))
            n_trips += 1

    # distortion inversion on its own, away from the full pipeline
    worst_inv = 0.0
    for _ in range(2000):
        dist = Distortion(
            k1=float(rng.uniform(-0.3, 0.3)),
            k2=float(rng.uniform(-0.05, 0.05)),
            k3=float(rng.uniform(-0.01, 0.01)),
            p1=float(rng.uniform(-2e-3, 2e-3)),
            p2=float(rng.uniform(-2e-3, 2e-3)),
        )
        r = math.sqrt(float(rng.uniform(0.0, 0.45**2)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        xn, yn = r * math.cos(phi), r * math.sin(phi)
        xd, yd = dist.distort(xn, yn)
        xb, yb, converged = dist.undistort(xd, yd)
        assert converged
        worst_inv = max(worst_inv, abs(xb - xn), abs(yb - yn))

    # analytic Jacobians against central differences
    worst_jac = 0.0
    for _ in range(40):
        cam = _random_rig(rng)
        point = np.array([
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(4.0, 24.0)),
            float(rng.uniform(0.0, 1.8)),
        ])
        j_pose, j_point = cam.project_jacobian(point)
        eps = 1e-6
        fd_point = np.zeros((2, 3))
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = eps
            fd_point[:, k] = (cam.project(point + dp) - cam.project(point - dp)) / (
                2 * eps
            )
        fd_pose = np.zeros((2, 6))
        base = np.array(cam.pose.rvec + cam.pose.t)
        for k in range(6):
            dp = np.zeros(6)
            dp[k] = eps
            for sign in (+1, -1):
                v = base + sign * dp
                pose = Pose(rvec=tuple(v[:3]), t=tuple(v[3:]))
                shifted = CameraModel(
                    intrinsics=cam.intrinsics, distortion=cam.distortion,
                    pose=pose, image_size=cam.image_size,
                )
                fd_pose[:, k] += sign * shifted.project(point) / (2 * eps)
        for analytic, fd in ((j_point, fd_point), (j_pose, fd_pose)):
            scale = np.maximum(np.abs(fd), 1.0)
            worst_jac = max(worst_jac, float(np.max(np.abs(analytic - fd) / scale)))

    ok = worst_trip <= 1e-6 and worst_inv <= 1e-8 and worst_jac <= 1e-5
    _check(
        capsys,
        "3 projection correctness",
        ok,
        f"{n_trips} round trips worst {worst_trip:.2e} m, "
        f"inversion worst {worst_inv:.2e}, Jacobian rel worst {worst_jac:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. evaluator fidelity: agreement with an independent implementation + hand case
# ---------------------------------------------------------------------------

_FIELDS = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large", "ar100")


def _sim_eval_fixture(seed: int, iou_mode: str) -> tuple[Dataset, list[Annotation]]:
    extent = MapExtent(origin=(5.0, -2.0), rotation=0.2, width=4.5, length=30.0)
    size = (1920, 1080) if iou_mode == "bbox" else (640, 480)
    camera = default_camera(extent, image_size=size)
    config = SimConfig(
        extent=extent, camera=camera, n_agents=7, cyclist_fraction=0.3,
        seed=seed, noise_px=2.5, miss_rate=0.25, confusion_rate=0.15,
    )
    result = simulate(config, 20)
    return result.dataset, result.detections


def test_c4_evaluator_fidelity(capsys):
    worst = 0.0
    for iou_mode, seed in (("bbox", 21), ("segm", 22)):
        gt, dets = _sim_eval_fixture(seed, iou_mode)
        ours = evaluate_detections(gt, dets, iou_mode=iou_mode)
        ref = reference_evaluate(gt, dets, iou_mode=iou_mode)
        for cat in (c.id for c in gt.categories):
            assert ours.per_class[cat].n_gt == ref[cat]["n_gt"]
            for f in _FIELDS:
                a = getattr(ours.per_class[cat], f)
                b = ref[cat][f]
                assert (a is None) == (b is None), (iou_mode, cat, f)
                if a is not None:
                    worst = max(worst, abs(a - b))
        for f in _FIELDS:
            a = getattr(ours.mean, f)
            b = ref["means"][f]
            assert (a is None) == (b is None)
            if a is not None:
                worst = max(worst, abs(a - b))

    # hand-checkable five-detection case: flags TP FP TP FP TP over 3 objects
    ped = Category(id=1, name="pedestrian", supercategory="people")
    gts = [
        Annotation(id=i, image_id=1, category_id=1, bbox=(30.0 * (i - 1), 0.0, 10.0, 10.0),
                   area=100.0)
        for i in (1, 2, 3)
    ]
    dets = [
        Annotation(id=1, image_id=1, category_id=1, bbox=(0.0, 0.0, 10.0, 10.0),
                   area=100.0, score=0.9),
        Annotation(id=2, image_id=1, category_id=1, bbox=(0.0, 40.0, 10.0, 10.0),
                   area=100.0, score=0.8),
        Annotation(id=3, image_id=1, category_id=1, bbox=(30.0, 0.0, 10.0, 10.0),
                   area=100.0, score=0.7),
        Annotation(id=4, image_id=1, category_id=1, bbox=(40.0, 40.0, 10.0, 10.0),
                   area=100.0, score=0.6),
        Annotation(id=5, image_id=1, category_id=1, bbox=(60.0, 0.0, 10.0, 10.0),
                   area=100.0, score=0.5),
    ]
    ds = Dataset(
        images=[ImageRecord(id=1, file_name="a.jpg", width=100, height=100)],
        annotations=gts,
        categories=[ped],
    )
    hand = evaluate_detections(ds, dets, iou_mode="bbox")
    expected = 76.4 / 101.0  # precision envelope (1, 2/3, 3/5) on the 101-point grid
    hand_exact = abs(hand.per_class[1].ap - expected) < 1e-12

    ok = worst <= 1e-6 and hand_exact
    _check(
        capsys,
        "4 evaluator fidelity",
        ok,
        f"reference agreement worst |diff| {worst:.2e} over bbox+segm, "
        f"hand AP {hand.per_class[1].ap:.6f} (expected {expected:.6f})",
    )


# ---------------------------------------------------------------------------
# 5. error ladder: monotone on 1000 random fixtures, rungs move as constructed
# ---------------------------------------------------------------------------

_LCATS = [
    Category(id=1, name="pedestrian", supercategory="people"),
    Category(id=2, name="cyclist", supercategory="people"),
    Category(id=3, name="dog", supercategory="animal"),
]


def _ladder_dataset(gts: list[Annotation], n_images: int = 2) -> Dataset:
    images = [
        ImageRecord(id=i, file_name=f"{i}.jpg", width=100, height=100)
        for i in range(1, n_images + 1)
    ]
    return Dataset(images=images, annotations=gts, categories=list(_LCATS))


def test_c5_error_ladder(capsys):
    rng = np.random.default_rng(555)
    n_checked = 0
    for _ in range(1000):
        gts, dets, gid, did = [], [], 1, 1
        for image_id in (1, 2):
            for _ in range(int(rng.integers(0, 4))):
                x, y = rng.uniform(0, 80, 2)
                w, h = rng.uniform(4, 20, 2)
                gts.append(Annotation(
                    id=gid, image_id=image_id,
                    category_id=int(rng.choice([1, 2, 3])),
                    bbox=(float(x), float(y), float(w), float(h)),
                    area=float(w * h), iscrowd=int(rng.random() < 0.1),
                ))
                gid += 1
            for _ in range(int(rng.integers(0, 5))):
                x, y = rng.uniform(0, 80, 2)
                w, h = rng.uniform(4, 20, 2)
                dets.append(Annotation(
                    id=did, image_id=image_id,
                    category_id=int(rng.choice([1, 2, 3])),
                    bbox=(float(x), float(y), float(w), float(h)),
                    area=float(w * h), score=float(rng.random()),
                ))
                did += 1
        result = diagnose_errors(_ladder_dataset(gts), dets, iou_mode="bbox")
        for ladder in result.per_class.values():
            values = dataclasses.astuple(ladder)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values
            assert values[-1] == 1.0
            n_checked += 1

    # constructed rungs: each fixture lifts exactly the intended step
    loc = diagnose_errors(
        _ladder_dataset([Annotation(id=1, image_id=1, category_id=1,
                                    bbox=(0.0, 0.0, 10.0, 10.0), area=100.0)]),
        [Annotation(id=1, image_id=1, category_id=1, bbox=(6.0, 0.0, 10.0, 10.0),
                    area=100.0, score=0.9)],
        iou_mode="bbox",
    ).per_class[1]
    loc_ok = (loc.c75 == loc.c50 == 0.0 and loc.loc == 1.0
              and loc.sim == loc.oth == loc.bg == loc.fn == 1.0)

    sim_rung = diagnose_errors(
        _ladder_dataset([
            Annotation(id=1, image_id=1, category_id=2, bbox=(0.0, 0.0, 10.0, 10.0),
                       area=100.0),
            Annotation(id=2, image_id=1, category_id=1, bbox=(50.0, 50.0, 10.0, 10.0),
                       area=100.0),
        ]),
        [Annotation(id=1, image_id=1, category_id=2, bbox=(50.0, 50.0, 10.0, 10.0),
                    area=100.0, score=0.95),
         Annotation(id=2, image_id=1, category_id=2, bbox=(0.0, 0.0, 10.0, 10.0),
                    area=100.0, score=0.90)],
        iou_mode="bbox",
    ).per_class[2]
    sim_ok = (sim_rung.c75 == sim_rung.c50 == sim_rung.loc == 0.5
              and sim_rung.sim == 1.0)

    bg_rung = diagnose_errors(
        _ladder_dataset([Annotation(id=1, image_id=1, category_id=1,
                                    bbox=(0.0, 0.0, 10.0, 10.0), area=100.0)]),
        [Annotation(id=1, image_id=1, category_id=1, bbox=(70.0, 70.0, 10.0, 10.0),
                    area=100.0, score=0.95),
         Annotation(id=2, image_id=1, category_id=1, bbox=(0.0, 0.0, 10.0, 10.0),
                    area=100.0, score=0.90)],
        iou_mode="bbox",
    ).per_class[1]
    bg_ok = bg_rung.loc == bg_rung.sim == bg_rung.oth == 0.5 and bg_rung.bg == 1.0

    ok = n_checked > 0 and loc_ok and sim_ok and bg_ok
    _check(
        capsys,
        "5 error ladder",
        ok,
        f"monotone on {n_checked} class-ladders from 1000 fixtures; "
        f"rung isolation loc={loc_ok} sim={sim_ok} bg={bg_ok}",
    )


# ---------------------------------------------------------------------------
# 6. class-table treatments: totality, idempotence, folds, effective counts
# ---------------------------------------------------------------------------


def test_c6_taxonomy_treatments(capsys):
    tax = default_taxonomy()
    treatments = default_treatments(tax)
    names = [c.name for c in tax.classes]
    problems = []

    for tname, treatment in treatments.items():
        mapped = [treatment.apply(n) for n in names]
        if len(mapped) != len(names):
            problems.append(f"{tname}: length not preserved")
        if [treatment.apply(m) for m in mapped] != mapped:
            problems.append(f"{tname}: not idempotent")
        if treatment.apply("roller") != "pedestrian":
            problems.append(f"{tname}: roller not folded into pedestrian")

    for tname in ("merging", "filtering"):
        eff = treatments[tname].effective_classes()
        if "pedpart" in eff or "cycpart" in eff:
            problems.append(f"{tname}: part classes survive")

    n_eff = len(treatments["merging"].effective_classes())
    if n_eff != 11:
        problems.append(f"merging keeps {n_eff} classes, expected 11")
    if len(treatments["separating"].effective_classes()) != 14:
        problems.append("separating should only fold roller")

    _check(
        capsys,
        "6 taxonomy treatments",
        not problems,
        "; ".join(problems) or
        f"3 treatments total+idempotent, merging -> {n_eff} effective classes",
    )


# ---------------------------------------------------------------------------
# 7. density rasters: mass conservation, merge laws, edge peaks, decimation
# ---------------------------------------------------------------------------


def _obs_at(i: int, x: float, y: float) -> GroundObservation:
    return GroundObservation(
        class_name="pedestrian", x=x, y=y,
        box=Box3D(0.0, 0.5, 0.5, 1.7),
        annotation_id=i, image_id=1,
    )


def test_c7_density_maps(capsys):
    rng = np.random.default_rng(77)
    small = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=8.0)

    worst_mass = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 16))
        obs = [
            _obs_at(i, float(rng.uniform(0, 4.5)), float(rng.uniform(0, 8.0)))
            for i in range(n)
        ]
        bw = None if trial % 2 else float(rng.uniform(0.3, 1.5))
        grid = kde_raster(obs, small, 0.5, bandwidth=bw)
        worst_mass = max(worst_mass, abs(grid.mass() - n) / n)
    mass_ok = worst_mass <= 0.01

    def random_store(k: int) -> object:
        pts = [
            _obs_at(i, float(rng.uniform(0, 4.5)), float(rng.uniform(0, 8.0)))
            for i in range(k)
        ]
        return kde_raster(pts, small, 0.25, bandwidth=0.6)

    a, b, c = random_store(5), random_store(9), random_store(3)
    zero = zero_raster(small, 0.25)
    assoc_l = merge_rasters(merge_rasters(a, b), c)
    assoc_r = merge_rasters(a, merge_rasters(b, c))
    monoid_ok = (
        np.array_equal(assoc_l.values, assoc_r.values)
        and np.array_equal(merge_rasters(a, b).values, merge_rasters(b, a).values)
        and np.array_equal(merge_rasters(zero, a).values, a.values)
        and merge_rasters(zero, a).total_count == a.total_count
    )

    # crowds that dwell at a boundary feature must peak there on the raster
    attractor = (2.25, 3.0)  # extent is axis-aligned at the origin: local == world
    hits = 0
    for seed in range(100):
        config = SimConfig(extent=EXTENT, camera=default_camera(EXTENT), n_agents=10,
                           seed=seed, attractor=attractor)
        obs = [o for f in simulate(config, 25).frames for o in f.truth_observations]
        grid = kde_raster(obs, EXTENT, 0.25)
        row, col = np.unravel_index(int(np.argmax(grid.values)), grid.values.shape)
        cx, cy = (col + 0.5) * 0.25, (row + 0.5) * 0.25
        if math.hypot(cx - attractor[0], cy - attractor[1]) <= grid.bandwidth:
            hits += 1
    peak_ok = hits >= 95

    # 1 fps decimation: at most ceil(duration) frames of one camera survive
    kept = len(sample_frames([k / 4.0 for k in range(400)], 1.0))  # 100 s at 4 fps
    decimation_ok = kept <= math.ceil(399 / 4.0)

    ok = mass_ok and monoid_ok and peak_ok and decimation_ok
    _check(
        capsys,
        "7 density rasters",
        ok,
        f"mass err worst {worst_mass:.2e} over 1000 stores, merge laws bitwise="
        f"{monoid_ok}, peak at attractor {hits}/100, decimation kept {kept}<=100",
    )


# ---------------------------------------------------------------------------
# 8. interchange formats: round trips, closed thresholds, split sizes
# ---------------------------------------------------------------------------


def test_c8_formats(capsys, tmp_path):
    problems = []

    # dataset JSON round trip on generated scenes of several shapes
    for seed, n_agents, n_frames in ((1, 5, 4), (2, 12, 7), (3, 1, 1)):
        config = SimConfig(
            extent=EXTENT, camera=default_camera(EXTENT), n_agents=n_agents,
            cyclist_fraction=0.4, seed=seed, noise_px=1.0,
        )
        ds = simulate(config, n_frames).dataset
        path = tmp_path / f"ds{seed}.json"
        save_dataset(path, ds)
        first = path.read_bytes()
        loaded = load_dataset(path)
        if loaded != ds:
            problems.append(f"seed {seed}: dataset changed across save/load")
        save_dataset(path, loaded)
        if path.read_bytes() != first:
            problems.append(f"seed {seed}: reserialization not byte-identical")

    # polygon-editor round trip preserves classes and geometry
    config = SimConfig(extent=EXTENT, camera=default_camera(EXTENT), n_agents=6,
                       cyclist_fraction=0.5, seed=8)
    ds = simulate(config, 3).dataset
    lm_dir = tmp_path / "lm"
    files = export_labelme(ds, lm_dir)
    back = import_labelme(files, default_taxonomy())
    if len(back.annotations) != len(ds.annotations):
        problems.append("polygon-editor round trip changed annotation count")
    name_of = {c.id: c.name for c in ds.categories}
    back_name = {c.id: c.name for c in back.categories}

    def keyed(d: Dataset, names: dict[int, str]):
        out = {}
        for ann in d.annotations:
            key = (ann.image_id, names[ann.category_id],
                   round(ann.segmentation[0][0], 6), round(ann.segmentation[0][1], 6))
            out[key] = np.array(ann.segmentation[0])
        return out

    ours, theirs = keyed(ds, name_of), keyed(back, back_name)
    if set(ours) != set(theirs):
        problems.append("polygon-editor round trip changed classes or vertices")
    elif not all(np.allclose(ours[k], theirs[k], atol=1e-9) for k in ours):
        problems.append("polygon-editor round trip perturbed geometry")

    # annotation-assist thresholds are closed at exactly 0.75 / 600 px^2
    def rect_det(i, score, w, h):
        return Annotation(
            id=i, image_id=1, category_id=1, bbox=(0.0, 0.0, float(w), float(h)),
            area=float(w * h), score=score,
            segmentation=[[0.0, 0.0, float(w), 0.0, float(w), float(h), 0.0, float(h)]],
        )

    kept = filter_for_annotation(
        [
            rect_det(1, 0.75, 20, 30),                      # both exactly at threshold
            rect_det(2, float(np.nextafter(0.75, 0.0)), 20, 30),  # score a hair low
            rect_det(3, 0.75, 20, 29.975),                  # area 599.5
        ]
    )
    if [a.id for a in kept] != [1]:
        problems.append(f"thresholds not closed: kept {[a.id for a in kept]}")

    # 9:1 split of a 7826-image index lands on 7043/783
    images = [
        ImageRecord(id=i, file_name=f"{i:05d}.jpg", width=10, height=10)
        for i in range(1, 7827)
    ]
    index = Dataset(images=images, annotations=[],
                    categories=[Category(id=1, name="pedestrian",
                                         supercategory="people")])
    train, test = split_dataset(index, 0.9, 0)
    if (len(train.images), len(test.images)) != (7043, 783):
        problems.append(
            f"split produced {len(train.images)}/{len(test.images)}, "
            "expected 7043/783"
        )

    _check(
        capsys,
        "8 interchange formats",
        not problems,
        "; ".join(problems)
        or "dataset+polygon round trips exact, thresholds closed, split 7043/783",
    )


# ---------------------------------------------------------------------------
# 9. throughput: mapping + evaluation over 1000 frames/s on the bench scene
# ---------------------------------------------------------------------------


def test_c9_throughput(capsys):
    from posmap.mapping import map_frame

    config = SimConfig(
        extent=EXTENT, camera=default_camera(EXTENT), n_agents=8,
        seed=3, noise_px=1.5, miss_rate=0.1,
    )
    n_frames = 200
    result = simulate(config, n_frames)
    treatment = default_treatments(default_taxonomy())["merging"]
    names = {c.id: c.name for c in result.dataset.categories}
    by_image = result.dataset.anns_by_image()

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for image in result.dataset.images:
            map_frame(
                config.camera, by_image.get(image.id, []), names, treatment,
                extent=EXTENT, timestamp=float(image.extra["timestamp"]),
                image_id=image.id,
            )
        evaluate_detections(
            result.dataset, result.detections, iou_mode="bbox"
        )
        best = min(best, time.perf_counter() - t0)

    fps = n_frames / best
    _check(
        capsys,
        "9 throughput",
        fps >= 1000.0,
        f"{fps:.0f} frames/s (map + evaluate, best of 3 over {n_frames} frames)",
    )
