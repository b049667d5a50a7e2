"""Command-line interface.

:func:`main` owns the run manifest. The parser marks each file argument as
an input or an output through its ``type``; when an output is set, ``main``
hashes every declared input before the command runs, creates the output
directories, and after the command returns writes one manifest recording
the exact argument vector, resolved options, SHA-256 of each input, the
paths written, library versions, and wall time — enough to reproduce or
audit a run. Each ``cmd_*`` only reads, computes, writes and returns the
paths it wrote. ``main`` refuses an output that would overwrite a declared
input, another output or the manifest; number flags obey ``read_number``.
Exit codes: 2 for configuration problems and unwritable outputs, 3 for bad
data, 4 for numeric/geometry failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    calibrate_intrinsics_planar,
    load_correspondences,
    load_planar_views,
    solve_extrinsics,
)
from .camera import CameraModel, load_camera, load_intrinsics, save_camera, save_intrinsics
from .coco import (
    export_labelme,
    filter_for_annotation,
    load_dataset,
    load_detections,
    save_dataset,
    save_detections,
    split_dataset,
)
from .density import density_paths, kde_raster, load_density, merge_rasters, save_density
from .errors import (FINITE, NON_NEGATIVE, NON_NEGATIVE_WHOLE, OPEN_UNIT, POSITIVE,
                     POSITIVE_WHOLE, UNIT, WHOLE, ConfigError, PosmapError, Rule, read_number,
                     reading)
from .evaluation import (
    Scores,
    dataset_stats,
    diagnose_errors,
    evaluate_detections,
    mean_ap,
    pr_curve,  # noqa: F401  (bound here so callers can wrap it by name)
)
from .mapping import (
    MapExtent,
    SizePriors,
    load_extent,
    load_observations,
    map_frame,
    sample_frames,
    save_extent,
    save_observations,
)
from .simulate import SimConfig, default_camera, simulate
from .taxonomy import default_taxonomy, default_treatments, load_taxonomy

# ---------------------------------------------------------------------------
# the command frame: declared inputs and outputs, their hashes, the manifest
# ---------------------------------------------------------------------------


class _Input(str):
    """A file argument the command reads."""

    def files(self) -> list[Path]:
        return [Path(self)]


class _RasterInput(_Input):
    """A raster base the command reads: ``<base>.csv`` and ``<base>.json``."""

    def files(self) -> list[Path]:
        return [density_paths(self)[kind] for kind in ("csv", "json")]


class _Output(str):
    """A file argument the command writes; its manifest is ``<stem>.manifest.json``.

    The manifest's directory is the one the command writes into.
    """

    def manifest(self) -> Path:
        return Path(self).with_name(Path(self).stem + ".manifest.json")

    def files(self) -> list[Path]:
        """What the command writes: files, or a directory and every file under it."""
        return [Path(self)]


class _RasterOutput(_Output):
    """A raster base the command writes; its manifest is ``<base>.manifest.json``."""

    def manifest(self) -> Path:
        return Path(self).with_name(Path(self).name + ".manifest.json")

    def files(self) -> list[Path]:
        return list(density_paths(self).values())


class _DirOutput(_Output):
    """A directory the command writes into; its manifest is ``<dir>/manifest.json``."""

    def manifest(self) -> Path:
        return Path(self) / "manifest.json"


def _declared(args: argparse.Namespace, kind: type) -> list:
    """The set arguments whose parser ``type`` is ``kind``, in declaration order."""
    found = []
    for value in vars(args).values():
        found += [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, kind)]
    return found


def _refuse_overwrites(inputs: list[_Input], outputs: list[_Output]) -> None:
    """Raise ``ConfigError`` if an output would overwrite an input or another write.

    An input collides with an output file, and with any file under an output
    directory, since the command names the files it writes there. A raster
    output may replace a raster input of the same base, as in ``density
    --merge A B --out A``: every raster is read before any is written. Two
    outputs may not name the same file, nor one a file under the other's
    directory, and no output may be the manifest ``main`` writes last.
    """
    written = [(out, [p.resolve() for p in out.files()]) for out in outputs]
    for out, files in written:
        for source in inputs:
            if isinstance(source, _RasterInput) and isinstance(out, _RasterOutput) and (
                Path(source).resolve() == Path(out).resolve()
            ):
                continue
            for path in source.files():
                resolved = path.resolve()
                if any(resolved.is_relative_to(w) for w in files):
                    raise ConfigError(f"output {out} would overwrite input {path}")
    for i, (out, files) in enumerate(written):
        for other, other_files in written[:i]:
            if any(a.is_relative_to(b) or b.is_relative_to(a) for a in files for b in other_files):
                raise ConfigError(f"outputs {other} and {out} name the same file")
    manifest = outputs[0].manifest().resolve()
    for out, files in written:
        if manifest in files:
            raise ConfigError(f"output {out} would be overwritten by the manifest {manifest}")


def _refuse_unwritable(outputs: list[_Output]) -> None:
    """Raise ``ConfigError`` for an output that cannot be written as a file.

    Each file an output names, and the manifest, must not be a directory nor
    lie under a regular file; a directory output must not be a regular file.
    Faults that show only while writing (a full disk) are met after the run.
    """
    files = [outputs[0].manifest()] + [
        f for out in outputs for f in ([out.manifest()] if isinstance(out, _DirOutput)
                                       else out.files())]
    for path in files:
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        parent = next(p for p in path.parents if p.exists())
        if not parent.is_dir():
            raise ConfigError(f"cannot write {path}: {parent} is not a directory")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with reading("input", path), path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    path: Path,
    argv: list[str],
    args: argparse.Namespace,
    inputs: dict[str, str],
    outputs: list[Path],
    t0: float,
) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "argv": argv,
        "config": resolved,
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "versions": {
            "posmap": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    if "seed" in resolved:
        manifest["seed"] = resolved["seed"]
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _number(name: str, rule: Rule = FINITE):
    """The argparse type of a number flag: its text read under ``rule``.

    A refusal is a ``ConfigError`` (exit 2), which argparse lets through.
    """
    return lambda text: read_number(text, name, rule, ConfigError)


def _prior(spec: str) -> tuple[str, tuple[float, float]]:
    """``CLASS:W:L``: a class and its footprint width and length in metres.

    Only the form and finiteness are checked here; ``SizePriors`` refuses a
    size that is not positive.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"prior {spec!r} must look like class:width:length")
    size = _number(f"prior {spec!r} size")
    return parts[0], (size(parts[1]), size(parts[2]))


def _resolve_treatment(name: str, taxonomy_path: str | None):
    if taxonomy_path is not None:
        tax, treatments = load_taxonomy(taxonomy_path)
        if not treatments:
            treatments = default_treatments(tax)
    else:
        tax = default_taxonomy()
        treatments = default_treatments(tax)
    if name not in treatments:
        raise ConfigError(
            f"unknown treatment {name!r}; available: {', '.join(sorted(treatments))}"
        )
    return treatments[name]


def _fmt(v: float | None, digits: int = 4) -> str:
    return "-" if v is None else f"{v:.{digits}f}"


def _scores_line(label: str, s: Scores) -> str:
    return (
        f"{label:>14s}  AP {_fmt(s.ap)}  AP50 {_fmt(s.ap50)}  AP75 {_fmt(s.ap75)}  "
        f"small {_fmt(s.ap_small)}  medium {_fmt(s.ap_medium)}  large {_fmt(s.ap_large)}  "
        f"AR100 {_fmt(s.ar100)}"
    )


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate_intrinsics(args: argparse.Namespace) -> list[Path]:
    views = load_planar_views(args.views)
    result = calibrate_intrinsics_planar(
        views, fit_distortion=not args.no_distortion, fix_skew=args.fix_skew
    )
    save_intrinsics(
        args.out, result.intrinsics, result.distortion, args.image_size, result.rms_px
    )
    print(
        f"calibrated from {len(views)} views: "
        f"fx={result.intrinsics.fx:.2f} fy={result.intrinsics.fy:.2f} "
        f"cx={result.intrinsics.cx:.2f} cy={result.intrinsics.cy:.2f} "
        f"rms={result.rms_px:.4f} px"
    )
    return [Path(args.out)]


def cmd_calibrate_extrinsics(args: argparse.Namespace) -> list[Path]:
    intrinsics, distortion, image_size = load_intrinsics(args.intrinsics)
    world, pixels = load_correspondences(args.points)
    result = solve_extrinsics(intrinsics, distortion, world, pixels)
    camera = CameraModel(
        intrinsics=intrinsics,
        distortion=distortion,
        pose=result.pose,
        image_size=image_size,
    )
    save_camera(args.out, camera)
    c = camera.pose.camera_center
    print(
        f"solved pose from {len(world)} points: rms={result.rms_px:.4f} px, "
        f"camera at ({c[0]:.2f}, {c[1]:.2f}, {c[2]:.2f}) m"
    )
    return [Path(args.out)]


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def cmd_project(args: argparse.Namespace) -> list[Path]:
    camera = load_camera(args.camera)
    if args.pixel is not None:
        x, y = camera.back_project_ground(args.pixel[0], args.pixel[1])
        print(f"{x:.6f} {y:.6f}")
    else:
        u, v = camera.project(np.array(args.world))
        print(f"{u:.6f} {v:.6f}")
    return []


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------


def cmd_map(args: argparse.Namespace) -> list[Path]:
    priors = SizePriors(by_class={**SizePriors().by_class, **dict(args.prior or [])})
    camera = load_camera(args.camera)
    ds = load_dataset(args.annotations)
    treatment = _resolve_treatment(args.treatment, args.taxonomy)
    extent = load_extent(args.extent) if args.extent else None
    class_names = {c.id: c.name for c in ds.categories}
    by_image = ds.anns_by_image()
    images = sorted(ds.images, key=lambda im: im.id)
    timestamps = []
    for index, image in enumerate(images):
        raw_ts = image.extra.get("timestamp")
        timestamps.append(index / args.fps if raw_ts is None else read_number(raw_ts, "timestamp"))
    kept = (
        range(len(images)) if args.sample_rate is None
        else sample_frames(timestamps, args.sample_rate)
    )

    # one map_frame call per kept image through this module's global, so a
    # wrapper installed on posmap.cli.map_frame times every mapped frame
    observations = []
    n_out = 0
    failures = []
    for index in kept:
        frame = map_frame(
            camera,
            by_image.get(images[index].id, []),
            class_names,
            treatment,
            extent=extent,
            priors=priors,
            timestamp=timestamps[index],
            image_id=images[index].id,
            source=args.source,
        )
        observations += frame.observations
        n_out += len(frame.out_of_extent)
        failures += frame.failures

    save_observations(args.out, observations)
    print(
        f"mapped {len(observations)} observations from {len(kept)} of {len(images)} "
        f"images ({n_out} outside extent, {len(failures)} geometry failures)"
    )
    for ann_id, reason in failures:
        print(f"  annotation {ann_id}: {reason}", file=sys.stderr)
    return [Path(args.out)]


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def cmd_density(args: argparse.Namespace) -> list[Path]:
    if args.observations is None:
        for flag in ("extent", "cell", "bandwidth", "classes"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} applies only with --observations")
        if not args.merge:
            raise ConfigError("density needs --observations and --extent, or --merge")
    elif args.extent is None:
        raise ConfigError("--observations needs --extent")
    classes = None if args.classes is None else tuple(args.classes.split(","))
    if classes is not None and "" in classes:
        raise ConfigError(f"--classes {args.classes!r} names an empty class")
    grids = [load_density(base) for base in args.merge or []]
    if args.observations is not None:
        grid = kde_raster(load_observations(args.observations), load_extent(args.extent),
                          args.cell or 0.25, bandwidth=args.bandwidth, classes=classes)
        grids.append(grid)
        print(
            f"rasterized {grid.total_count} observations onto "
            f"{grid.shape[1]}x{grid.shape[0]} cells "
            f"(bandwidth {grid.bandwidth:.3f} m, mass {grid.mass():.6f})"
        )
    folded = functools.reduce(merge_rasters, grids)
    if args.merge:
        print(
            f"merged {len(grids)} rasters: {folded.total_count} observations, "
            f"mass {folded.mass():.6f}"
        )
    return list(save_density(args.out, folded).values())


# ---------------------------------------------------------------------------
# eval / diagnose
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> list[Path]:
    if args.taxonomy and not args.treatment:
        raise ConfigError("--taxonomy applies only with --treatment")
    gt = load_dataset(args.gt)
    dets = load_detections(args.detections)
    if args.treatment:
        from .coco import remap_annotations, remap_categories

        treatment = _resolve_treatment(args.treatment, args.taxonomy)
        dets = remap_annotations(dets, list(gt.categories), treatment)
        gt = remap_categories(gt, treatment)
    result = evaluate_detections(gt, dets, iou_mode=args.iou_mode)
    names = {c.id: c.name for c in gt.categories}
    for cat_id in sorted(result.per_class):
        m = result.per_class[cat_id]
        print(f"{_scores_line(names[cat_id], m)}  n_gt {m.n_gt}")
    people_ids = [c.id for c in gt.categories if c.supercategory == "people"]
    map_people = mean_ap(result.per_class, people_ids) if people_ids else None
    print(_scores_line("mean", result.mean))
    print(f"{'people mAP':>14s}  {_fmt(map_people)}")
    outputs = []
    if args.pr_curves:
        pr_path = Path(args.pr_curves)
        lines = ["class,recall,precision"]
        for cat_id in sorted(result.per_class):
            curve = result.pr_curves[cat_id]
            if curve.ap is None:
                continue
            for r, p in zip(curve.recall, curve.precision):
                lines.append(f"{names[cat_id]},{r!r},{p!r}")
        pr_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append(pr_path)
    if args.out:
        out = Path(args.out)
        doc = {
            "per_class": {
                names[cat_id]: dataclasses.asdict(m) for cat_id, m in result.per_class.items()
            },
            "mean": dataclasses.asdict(result.mean),
            "map_people": map_people,
            "map_overall": result.mean.ap,
            "iou_mode": args.iou_mode,
        }
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        outputs.append(out)
    return outputs


def cmd_diagnose(args: argparse.Namespace) -> list[Path]:
    gt = load_dataset(args.gt)
    dets = load_detections(args.detections)
    result = diagnose_errors(gt, dets, iou_mode=args.iou_mode)
    names = {c.id: c.name for c in gt.categories}
    header = f"{'class':>14s}  " + "  ".join(
        f"{s:>6s}" for s in ("C75", "C50", "Loc", "Sim", "Oth", "BG", "FN")
    )
    print(header)
    rows = [(names[cat_id], result.per_class[cat_id]) for cat_id in sorted(result.per_class)]
    if result.mean is not None:
        rows.append(("mean", result.mean))
    for label, ladder in rows:
        print(f"{label:>14s}  " + "  ".join(f"{v:6.4f}" for v in dataclasses.astuple(ladder)))
    if args.out:
        out = Path(args.out)
        doc = {
            "per_class": {
                names[cat_id]: dataclasses.asdict(ladder)
                for cat_id, ladder in result.per_class.items()
            },
            "mean": dataclasses.asdict(result.mean) if result.mean else None,
            "iou_mode": args.iou_mode,
        }
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return [out]
    return []


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> list[Path]:
    ds = load_dataset(args.annotations)
    if args.treatment:
        from .coco import remap_categories

        treatment = _resolve_treatment(args.treatment, args.taxonomy)
        ds = remap_categories(ds, treatment)
        taxonomy = treatment.taxonomy
    else:
        taxonomy = load_taxonomy(args.taxonomy)[0] if args.taxonomy else default_taxonomy()
    stats = dataset_stats(ds, taxonomy)
    print(
        f"{'class':>14s}  {'count':>7s}  {'area_mean':>10s}  {'area_std':>10s}  "
        f"{'aspect_mean':>11s}  {'aspect_std':>10s}"
    )
    rows = []
    for cs in stats.per_class:
        row = dataclasses.asdict(cs)
        rows.append({"class": row.pop("class_name"), **row})
        if cs.count == 0:
            continue
        print(
            f"{cs.class_name:>14s}  {cs.count:>7d}  {cs.area_mean:>10.1f}  "
            f"{cs.area_std:>10.1f}  "
            f"{_fmt(cs.aspect_mean, 2):>11s}  {_fmt(cs.aspect_std, 2):>10s}"
        )
    print(f"{'total':>14s}  {stats.total:>7d}  (images: {stats.n_images})")
    for tag, tally in sorted(stats.condition_tallies.items()):
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(tally.items()))
        print(f"{tag:>14s}  {counts}")
    if args.out:
        doc = {"per_class": rows, "conditions": stats.condition_tallies}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return [Path(args.out)]
    return []


# ---------------------------------------------------------------------------
# filter-annotations / export-labelme / split
# ---------------------------------------------------------------------------


def cmd_filter(args: argparse.Namespace) -> list[Path]:
    dets = load_detections(args.detections)
    kept = filter_for_annotation(
        dets, score_threshold=args.score, min_area_px=args.min_area
    )
    save_detections(args.out, kept)
    print(
        f"kept {len(kept)} of {len(dets)} detections "
        f"(score >= {args.score}, area >= {args.min_area} px^2)"
    )
    return [Path(args.out)]


def cmd_export_labelme(args: argparse.Namespace) -> list[Path]:
    written = export_labelme(load_dataset(args.annotations), args.out_dir)
    print(f"wrote {len(written)} polygon files to {Path(args.out_dir)}")
    return written


def cmd_split(args: argparse.Namespace) -> list[Path]:
    ds = load_dataset(args.annotations)
    train, test = split_dataset(
        ds, args.fraction, args.seed, stratify_key=args.stratify
    )
    save_dataset(args.out_train, train)
    save_dataset(args.out_test, test)
    print(
        f"split {len(ds.images)} images into {len(train.images)} train / "
        f"{len(test.images)} test (seed {args.seed})"
    )
    return [Path(args.out_train), Path(args.out_test)]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> list[Path]:
    if args.extent:
        extent = load_extent(args.extent)
    else:
        extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)
    camera = default_camera(extent)
    config = SimConfig(
        extent=extent,
        camera=camera,
        n_agents=args.agents,
        cyclist_fraction=args.cyclists,
        fps=args.fps,
        seed=args.seed,
        noise_px=args.noise,
        miss_rate=args.miss,
        confusion_rate=args.confusion,
        attractor=args.attractor,
    )
    result = simulate(config, args.frames)
    out_dir = Path(args.out_dir)
    save_camera(out_dir / "camera.json", camera)
    save_extent(out_dir / "extent.json", extent)
    save_dataset(out_dir / "gt.json", result.dataset)
    save_detections(out_dir / "detections.json", result.detections)
    save_observations(
        out_dir / "truth.csv", [o for f in result.frames for o in f.truth_observations]
    )
    n_gt = len(result.dataset.annotations)
    print(
        f"simulated {args.frames} frames, {args.agents} agents: "
        f"{n_gt} ground-truth objects, {len(result.detections)} detections "
        f"-> {out_dir}"
    )
    names = ("camera.json", "extent.json", "gt.json", "detections.json", "truth.csv")
    return [out_dir / name for name in names]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posmap",
        description="Ground-plane mapping, density rasters, and detector "
        "evaluation for public-space cameras.",
    )
    parser.add_argument("--version", action="version", version=f"posmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="camera calibration")
    cal_sub = p_cal.add_subparsers(dest="mode", required=True)

    p_ci = cal_sub.add_parser("intrinsics", help="intrinsics from planar pattern views")
    p_ci.add_argument("--views", type=_Input, required=True,
                      help="JSON list of plane/pixel views")
    p_ci.add_argument("--image-size", nargs=2, type=_number("image size", POSITIVE_WHOLE),
                      required=True, metavar=("W", "H"))
    p_ci.add_argument("--no-distortion", action="store_true")
    p_ci.add_argument("--fix-skew", action="store_true")
    p_ci.add_argument("--out", type=_Output, required=True)
    p_ci.set_defaults(func=cmd_calibrate_intrinsics)

    p_ce = cal_sub.add_parser("extrinsics", help="world pose from surveyed points")
    p_ce.add_argument("--intrinsics", type=_Input, required=True,
                      help="camera JSON without pose")
    p_ce.add_argument("--points", type=_Input, required=True,
                      help="CSV with columns X,Y,Z,u,v")
    p_ce.add_argument("--out", type=_Output, required=True)
    p_ce.set_defaults(func=cmd_calibrate_extrinsics)

    p_proj = sub.add_parser("project", help="project between pixels and the ground plane")
    p_proj.add_argument("--camera", type=_Input, required=True)
    g = p_proj.add_mutually_exclusive_group(required=True)
    g.add_argument("--pixel", nargs=2, type=_number("pixel coordinate"), metavar=("U", "V"))
    g.add_argument("--world", nargs=3, type=_number("world coordinate"),
                   metavar=("X", "Y", "Z"))
    p_proj.set_defaults(func=cmd_project)

    p_map = sub.add_parser("map", help="map detections onto the ground plane")
    p_map.add_argument("--camera", type=_Input, required=True)
    p_map.add_argument("--annotations", type=_Input, required=True)
    p_map.add_argument("--treatment", default="merging")
    p_map.add_argument("--taxonomy", type=_Input, default=None)
    p_map.add_argument("--extent", type=_Input, default=None)
    p_map.add_argument("--prior", type=_prior, action="append", metavar="CLASS:W:L")
    p_map.add_argument("--fps", type=_number("fps", POSITIVE), default=1.0)
    p_map.add_argument("--sample-rate", type=_number("sample rate", POSITIVE), default=None,
                       help="map only the first frame of each 1/RATE s window")
    p_map.add_argument("--source", default="")
    p_map.add_argument("--out", type=_Output, required=True)
    p_map.set_defaults(func=cmd_map)

    p_den = sub.add_parser("density", help="rasterize observations and merge rasters")
    p_den.add_argument("--observations", type=_Input)
    p_den.add_argument("--extent", type=_Input)
    p_den.add_argument("--cell", type=_number("cell size", POSITIVE), help="default 0.25 m")
    p_den.add_argument("--bandwidth", type=_number("bandwidth", NON_NEGATIVE),
                       help="default: Silverman's rule")
    p_den.add_argument("--classes", default=None, help="comma-separated filter")
    p_den.add_argument("--merge", type=_RasterInput, nargs="+", default=None, metavar="BASE")
    p_den.add_argument("--out", type=_RasterOutput, required=True)
    p_den.set_defaults(func=cmd_density)

    p_eval = sub.add_parser("eval", help="score detections against ground truth")
    p_eval.add_argument("--gt", type=_Input, required=True)
    p_eval.add_argument("--detections", type=_Input, required=True)
    p_eval.add_argument("--iou-mode", choices=("segm", "bbox"), default="segm")
    p_eval.add_argument("--treatment", default=None)
    p_eval.add_argument("--taxonomy", type=_Input, default=None)
    # the first output set hosts the manifest: --out before --pr-curves
    p_eval.add_argument("--out", type=_Output, default=None)
    p_eval.add_argument("--pr-curves", type=_Output, default=None, metavar="CSV",
                        help="write per-class recall/precision at IoU 0.5")
    p_eval.set_defaults(func=cmd_eval)

    p_diag = sub.add_parser("diagnose", help="cumulative error ladder")
    p_diag.add_argument("--gt", type=_Input, required=True)
    p_diag.add_argument("--detections", type=_Input, required=True)
    p_diag.add_argument("--iou-mode", choices=("segm", "bbox"), default="segm")
    p_diag.add_argument("--out", type=_Output, default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_stats = sub.add_parser("stats", help="per-class annotation statistics")
    p_stats.add_argument("--annotations", type=_Input, required=True)
    p_stats.add_argument("--treatment", default=None)
    p_stats.add_argument("--taxonomy", type=_Input, default=None)
    p_stats.add_argument("--out", type=_Output, default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_filt = sub.add_parser(
        "filter-annotations", help="keep detections worth human annotation"
    )
    p_filt.add_argument("--detections", type=_Input, required=True)
    p_filt.add_argument("--score", type=_number("score threshold"), default=0.75)
    p_filt.add_argument("--min-area", type=_number("minimum area"), default=600.0)
    p_filt.add_argument("--out", type=_Output, required=True)
    p_filt.set_defaults(func=cmd_filter)

    p_lm = sub.add_parser("export-labelme", help="export per-image polygon files")
    p_lm.add_argument("--annotations", type=_Input, required=True)
    p_lm.add_argument("--out-dir", type=_DirOutput, required=True)
    p_lm.set_defaults(func=cmd_export_labelme)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene")
    p_sim.add_argument("--out-dir", type=_DirOutput, required=True)
    p_sim.add_argument("--frames", type=_number("frames", WHOLE), default=60)
    p_sim.add_argument("--agents", type=_number("agents", WHOLE), default=12)
    p_sim.add_argument("--cyclists", type=_number("cyclist fraction", UNIT), default=0.0)
    p_sim.add_argument("--fps", type=_number("fps", POSITIVE), default=1.0)
    p_sim.add_argument("--seed", type=_number("seed", NON_NEGATIVE_WHOLE), default=0)
    p_sim.add_argument("--noise", type=_number("noise", NON_NEGATIVE), default=0.0,
                       help="vertex noise in px")
    p_sim.add_argument("--miss", type=_number("miss rate", UNIT), default=0.0,
                       help="miss rate in [0,1]")
    p_sim.add_argument("--confusion", type=_number("confusion rate", UNIT), default=0.0,
                       help="class confusion rate in [0,1]")
    p_sim.add_argument("--extent", type=_Input, default=None,
                       help="extent JSON (default 4.5x32 m)")
    p_sim.add_argument("--attractor", nargs=2, type=_number("attractor coordinate"),
                       default=None, metavar=("X", "Y"))
    p_sim.set_defaults(func=cmd_simulate)

    p_split = sub.add_parser("split", help="train/test split by image")
    p_split.add_argument("--annotations", type=_Input, required=True)
    p_split.add_argument("--fraction", type=_number("train fraction", OPEN_UNIT), default=0.9)
    p_split.add_argument("--seed", type=_number("seed", WHOLE), default=0)
    p_split.add_argument("--stratify", default=None)
    p_split.add_argument("--out-train", type=_Output, required=True)
    p_split.add_argument("--out-test", type=_Output, required=True)
    p_split.set_defaults(func=cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; with an output set, hash its inputs and write its manifest.

    Inputs are hashed before the command runs, since an output may replace
    one (``density --merge A B --out A``); any other output that would
    overwrite an input is refused, and so is one that cannot be written as a
    file, before the command runs. A declared input that is not a file is left
    to its loader, whose ``DataError`` names it; an output that fails while
    written is a ``ConfigError`` too. A refused command leaves behind no
    directory this run created, unless it wrote there.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        outputs = _declared(args, _Output)
        if not outputs:
            args.func(args)
            return 0
        _refuse_overwrites(_declared(args, _Input), outputs)
        _refuse_unwritable(outputs)
        t0 = time.perf_counter()
        inputs = {
            str(p): _sha256(p)
            for arg in _declared(args, _Input)
            for p in arg.files()
            if p.is_file()
        }
        made = {d for out in outputs for d in out.manifest().parents if not d.exists()}
        try:
            for out in outputs:
                out.manifest().parent.mkdir(parents=True, exist_ok=True)
            written = args.func(args)
            _write_manifest(outputs[0].manifest(), list(argv), args, inputs, written, t0)
        except (OSError, PosmapError) as e:
            for directory in sorted(made, key=lambda d: len(d.parts), reverse=True):
                if directory.is_dir() and not any(directory.iterdir()):
                    directory.rmdir()
            if isinstance(e, OSError):  # every read fault is a DataError by now
                raise ConfigError(f"cannot write {e.filename or 'an output'}: {e.strerror}") from e
            raise
        return 0
    except PosmapError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
