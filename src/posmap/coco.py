"""Annotation dataset I/O.

Reads and writes the standard polygon-annotation JSON layout (images /
annotations / categories) plus per-image polygon-editor files for manual
label correction. Unknown keys at every level ride along in ``extra`` dicts
so a load/save round trip never drops tool-specific metadata.

Segmentation is polygon-only: each annotation carries a list of flat
``[x1, y1, x2, y2, ...]`` rings, multiple rings meaning one object split by
occlusion. Run-length masks are rejected up front rather than silently
mishandled.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DataError, read_json
from .geometry2d import polygons_area, polygons_bounds
from .taxonomy import Taxonomy, Treatment

__all__ = [
    "Category",
    "ImageRecord",
    "Annotation",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "load_detections",
    "save_detections",
    "split_dataset",
    "filter_for_annotation",
    "remap_categories",
    "remap_annotations",
    "export_labelme",
    "import_labelme",
]

_KNOWN_IMAGE_KEYS = {"id", "file_name", "width", "height"}
_KNOWN_ANN_KEYS = {
    "id",
    "image_id",
    "category_id",
    "segmentation",
    "bbox",
    "area",
    "iscrowd",
    "score",
}
_KNOWN_CAT_KEYS = {"id", "name", "supercategory"}
_KNOWN_TOP_KEYS = {"images", "annotations", "categories", "info", "licenses"}


@dataclass
class Category:
    id: int
    name: str
    supercategory: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class ImageRecord:
    id: int
    file_name: str
    width: int
    height: int
    extra: dict = field(default_factory=dict)


@dataclass
class Annotation:
    id: int
    image_id: int
    category_id: int
    segmentation: list[list[float]] = field(default_factory=list)
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    area: float = 0.0
    iscrowd: int = 0
    score: float | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Dataset:
    images: list[ImageRecord] = field(default_factory=list)
    annotations: list[Annotation] = field(default_factory=list)
    categories: list[Category] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    licenses: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def image_by_id(self) -> dict[int, ImageRecord]:
        return {im.id: im for im in self.images}

    def category_by_id(self) -> dict[int, Category]:
        return {c.id: c for c in self.categories}

    def anns_by_image(self) -> dict[int, list[Annotation]]:
        out: dict[int, list[Annotation]] = {im.id: [] for im in self.images}
        for ann in self.annotations:
            out.setdefault(ann.image_id, []).append(ann)
        return out


# ---------------------------------------------------------------------------
# load / save
# ---------------------------------------------------------------------------


def _extract_extra(raw: dict, known: set[str]) -> dict:
    return {k: v for k, v in raw.items() if k not in known}


def _parse_segmentation(raw, ann_id: int) -> list[list[float]]:
    if raw is None:
        return []
    if isinstance(raw, dict):
        raise DataError(
            f"annotation {ann_id}: run-length segmentation is not supported, "
            "only polygons"
        )
    polys: list[list[float]] = []
    for part in raw:
        coords = list(map(float, part))
        if len(coords) < 6 or len(coords) % 2 != 0:
            raise DataError(
                f"annotation {ann_id}: degenerate polygon with {len(coords)} "
                "coordinates, not x, y pairs of at least 3 vertices"
            )
        if not all(map(math.isfinite, coords)):
            raise DataError(f"annotation {ann_id}: polygon has a non-finite coordinate")
        polys.append(coords)
    return polys


def _check_finite_box(box: tuple[float, float, float, float], what: str, ann_id: int) -> None:
    # a non-finite value or an overflowing width makes a far corner non-finite
    x, y, w, h = box
    if not (math.isfinite(x + w) and math.isfinite(y + h)):
        raise DataError(f"annotation {ann_id} has {what} {box}, not finite")


def _whole(v, what: str) -> int:
    """``v`` as an int. A bool, or a float with a fractional part, is a ``DataError``.

    An integral float reads as its int, and a string as ``int()`` reads it.
    """
    if type(v) is int:
        return v
    if type(v) is bool or (type(v) is float and not v.is_integer()):
        raise DataError(f"{what} {v!r} is not a whole number")
    return int(v)


def _parse_annotation(r: dict) -> Annotation:
    """Build one annotation from its JSON record.

    The id, image_id and category_id are whole numbers, and iscrowd is 0 or
    1. Every polygon coordinate must be finite. The bbox must have 4 values;
    without one it is the polygon hull. A bbox or hull with a corner that is
    not finite (a non-finite value, or a width that overflows) is a
    ``DataError``. A bbox more than 1 px off the hull only warns; this is
    the one place bbox and hull are compared. Without an area, the polygon
    area (else the bbox area) is used; a non-finite or negative area is a
    ``DataError``. Errors from malformed fields
    (``KeyError``, ``TypeError``, ``ValueError``, or ``AttributeError``
    when the record is not an object) propagate to the caller.
    """
    ann_id = _whole(r["id"], "id")
    seg = _parse_segmentation(r.get("segmentation"), ann_id)
    score = r.get("score")
    if score is not None:
        score = float(score)
        if not 0.0 <= score <= 1.0:
            raise DataError(f"annotation {ann_id} has score {score} outside [0, 1]")
    hull = polygons_bounds(seg) if seg else None
    bbox_raw = r.get("bbox")
    if bbox_raw is not None:
        if len(bbox_raw) != 4:
            raise DataError(f"annotation {ann_id} has a bbox with {len(bbox_raw)} values")
        x, y, w, h = bbox_raw
        bbox = (float(x), float(y), float(w), float(h))
    elif hull is not None:
        bbox = hull
    else:
        raise DataError(f"annotation {ann_id} has neither bbox nor segmentation")
    _check_finite_box(bbox, "bbox", ann_id)
    # a hull that is not finite is more than 1 px off the finite bbox
    if bbox_raw is not None and hull is not None and max(
        abs(hull[0] - bbox[0]),
        abs(hull[1] - bbox[1]),
        abs(hull[2] - bbox[2]),
        abs(hull[3] - bbox[3]),
    ) > 1.0:
        _check_finite_box(hull, "polygon hull", ann_id)
        warnings.warn(
            f"annotation {ann_id}: bbox {bbox} deviates more than "
            f"1 px from its polygon hull {hull}",
            stacklevel=5,
        )
    area_raw = r.get("area")
    if area_raw is not None:
        area = float(area_raw)
    elif seg:
        area = polygons_area(seg)
    else:
        area = bbox[2] * bbox[3]
    if not (math.isfinite(area) and area >= 0.0):
        raise DataError(f"annotation {ann_id} has area {area}, not a finite number >= 0")
    iscrowd = _whole(r.get("iscrowd", 0), "iscrowd")
    if iscrowd not in (0, 1):
        raise DataError(f"annotation {ann_id} has iscrowd {iscrowd}, not 0 or 1")
    return Annotation(
        id=ann_id,
        image_id=_whole(r["image_id"], "image_id"),
        category_id=_whole(r["category_id"], "category_id"),
        segmentation=seg,
        bbox=bbox,
        area=area,
        iscrowd=iscrowd,
        score=score,
        extra=_extract_extra(r, _KNOWN_ANN_KEYS),
    )


def _parse_image(r: dict) -> ImageRecord:
    """One image record: whole-number id and size of at least 1 x 1 px, finite timestamp."""
    im = ImageRecord(
        id=_whole(r["id"], "id"),
        file_name=str(r["file_name"]),
        width=_whole(r["width"], "width"),
        height=_whole(r["height"], "height"),
        extra=_extract_extra(r, _KNOWN_IMAGE_KEYS),
    )
    if im.width < 1 or im.height < 1:
        raise DataError(f"image {im.id} is {im.width} x {im.height} px, not at least 1 x 1")
    ts = im.extra.get("timestamp")
    if ts is not None and not (type(ts) is int or (type(ts) is float and math.isfinite(ts))):
        raise DataError(f"image {im.id} has timestamp {ts!r}, not a finite number")
    return im


def _parse_category(r: dict) -> Category:
    return Category(
        id=_whole(r["id"], "id"),
        name=str(r["name"]),
        supercategory=str(r.get("supercategory", "")),
        extra=_extract_extra(r, _KNOWN_CAT_KEYS),
    )


def _parse_records(records: list, parse, kind: str, path: str | Path) -> list:
    """The one record loop: ``parse`` of each ``kind`` record of the file ``path``.

    Every error names the file and the record's index, and a repeated id is
    a ``DataError``.
    """
    if not isinstance(records, list):
        raise DataError(f"{kind} records in {path} are not a JSON list")
    out = []
    ids: set[int] = set()
    for i, r in enumerate(records):
        try:
            item = parse(r)
        except DataError as e:
            raise DataError(f"{kind} record {i} in {path}: {e}") from e
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"{kind} record {i} in {path} is malformed: {e}") from e
        if item.id in ids:
            raise DataError(f"{kind} record {i} in {path} has duplicate {kind} id {item.id}")
        ids.add(item.id)
        out.append(item)
    return out


def load_dataset(path: str | Path) -> Dataset:
    """Load an annotation JSON file, validating referential integrity."""
    return _dataset_from_doc(read_json(path, "annotation"), path)


def _dataset_from_doc(doc: dict, path: str | Path) -> Dataset:
    images = _parse_records(doc.get("images", []), _parse_image, "image", path)
    categories = _parse_records(doc.get("categories", []), _parse_category, "category", path)
    annotations = _parse_records(doc.get("annotations", []), _parse_annotation, "annotation", path)
    image_ids = {im.id for im in images}
    category_ids = {c.id for c in categories}
    for i, ann in enumerate(annotations):
        if ann.image_id not in image_ids:
            raise DataError(f"annotation record {i} in {path}: annotation {ann.id} "
                            f"references missing image {ann.image_id}")
        if ann.category_id not in category_ids:
            raise DataError(f"annotation record {i} in {path}: annotation {ann.id} "
                            f"references missing category {ann.category_id}")
    return Dataset(
        images=images,
        annotations=annotations,
        categories=categories,
        info=doc.get("info", {}),
        licenses=doc.get("licenses", []),
        extra=_extract_extra(doc, _KNOWN_TOP_KEYS),
    )


def _annotation_row(ann: Annotation) -> dict:
    """The JSON record of an annotation, in both file kinds: known keys, then ``extra``."""
    row = {
        "id": ann.id,
        "image_id": ann.image_id,
        "category_id": ann.category_id,
        "segmentation": [list(p) for p in ann.segmentation],
        "bbox": list(ann.bbox),
        "area": ann.area,
        "iscrowd": ann.iscrowd,
    }
    if ann.score is not None:
        row["score"] = ann.score
    row.update(ann.extra)
    return row


def save_dataset(path: str | Path, ds: Dataset) -> None:
    """Write a dataset back to JSON, restoring preserved unknown keys."""
    image_ids = {im.id for im in ds.images}
    category_ids = {c.id for c in ds.categories}
    for ann in ds.annotations:
        if ann.image_id not in image_ids:
            raise DataError(f"annotation {ann.id} references missing image {ann.image_id}")
        if ann.category_id not in category_ids:
            raise DataError(
                f"annotation {ann.id} references missing category {ann.category_id}"
            )

    doc = {
        "info": ds.info,
        "licenses": ds.licenses,
        "images": [
            {
                "id": im.id,
                "file_name": im.file_name,
                "width": im.width,
                "height": im.height,
                **im.extra,
            }
            for im in ds.images
        ],
        "annotations": [_annotation_row(ann) for ann in ds.annotations],
        "categories": [
            {"id": c.id, "name": c.name, "supercategory": c.supercategory, **c.extra}
            for c in ds.categories
        ],
        **ds.extra,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_detections(path: str | Path) -> list[Annotation]:
    """Load detector output: either a full dataset file or a bare result list.

    A bare list holds :func:`save_detections` records, or COCO result
    records ``{image_id, category_id, score, bbox and/or segmentation}``; a
    record without an ``id`` takes its 1-based position in the list. Both
    forms are read by the dataset file's record loop, so a repeated id is a
    ``DataError``. Every record needs a score, in either form. Unknown keys
    ride along in ``extra``.
    """
    doc = read_json(path, "detection", (dict, list))
    if isinstance(doc, dict):
        dets = _dataset_from_doc(doc, path).annotations
    else:
        for i, r in enumerate(doc, start=1):
            if isinstance(r, dict):
                r.setdefault("id", i)
        dets = _parse_records(doc, _parse_annotation, "annotation", path)
    for i, det in enumerate(dets):
        if det.score is None:
            raise DataError(
                f"annotation record {i} in {path} is malformed: a detection needs a score"
            )
    return dets


def save_detections(path: str | Path, detections: list[Annotation]) -> None:
    """Write detections as a compact bare result list.

    Each record is the one a dataset file holds for the annotation (id,
    image_id, category_id, segmentation, bbox, area, iscrowd, score when
    set, then ``extra``), so :func:`load_detections` reads back equal
    annotations when the ids are unique.
    """
    Path(path).write_text(json.dumps([_annotation_row(ann) for ann in detections]) + "\n")


# ---------------------------------------------------------------------------
# dataset surgery
# ---------------------------------------------------------------------------


def split_dataset(
    ds: Dataset,
    train_fraction: float,
    seed: int,
    stratify_key: str | None = None,
) -> tuple[Dataset, Dataset]:
    """Split images (with their annotations) into train/test subsets.

    The shuffle is seeded so a given (dataset, fraction, seed) triple always
    produces the same split; both subsets keep their images sorted by id.
    With ``stratify_key``, images are bucketed by that key in their extra
    metadata and each bucket is split at the same fraction.
    """
    if not ds.images:
        raise DataError("cannot split a dataset with no images")
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {train_fraction}")

    rng = random.Random(seed)
    buckets: dict[object, list[ImageRecord]]
    if stratify_key is None:
        buckets = {None: list(ds.images)}
    else:
        buckets = {}
        for im in ds.images:
            value = im.extra.get(stratify_key)
            if isinstance(value, (list, dict)):
                raise DataError(f"image {im.id}: field {stratify_key!r} is not a JSON scalar")
            buckets.setdefault(value, []).append(im)

    train_ids: set[int] = set()
    for key in sorted(buckets, key=repr):
        group = sorted(buckets[key], key=lambda im: im.id)
        rng.shuffle(group)
        n_train = round(train_fraction * len(group))
        train_ids.update(im.id for im in group[:n_train])

    def subset(keep: set[int]) -> Dataset:
        images = sorted((im for im in ds.images if im.id in keep), key=lambda im: im.id)
        anns = [a for a in ds.annotations if a.image_id in keep]
        return Dataset(
            images=images,
            annotations=anns,
            categories=list(ds.categories),
            info=dict(ds.info),
            licenses=list(ds.licenses),
            extra=dict(ds.extra),
        )

    test_ids = {im.id for im in ds.images} - train_ids
    if not train_ids or not test_ids:
        raise DataError(
            f"split fraction {train_fraction} leaves an empty subset "
            f"({len(train_ids)} train / {len(test_ids)} test)"
        )
    return subset(train_ids), subset(test_ids)


def filter_for_annotation(
    annotations: list[Annotation],
    score_threshold: float = 0.75,
    min_area_px: float = 600.0,
) -> list[Annotation]:
    """Keep detections worth sending to a human annotator.

    A detection survives when its score is at least ``score_threshold`` and
    its polygon area (bbox area when it has no polygon) is at least
    ``min_area_px``. Both thresholds are inclusive; input order is kept. A
    threshold that is not finite is a ``ConfigError``.
    """
    if not (math.isfinite(score_threshold) and math.isfinite(min_area_px)):
        raise ConfigError(
            f"filter thresholds must be finite, got score {score_threshold} "
            f"and area {min_area_px}"
        )
    out = []
    for ann in annotations:
        score = ann.score if ann.score is not None else 1.0
        if score < score_threshold:
            continue
        area = polygons_area(ann.segmentation) if ann.segmentation else (
            ann.bbox[2] * ann.bbox[3]
        )
        if area < min_area_px:
            continue
        out.append(ann)
    return out


def remap_categories(ds: Dataset, treatment: Treatment) -> Dataset:
    """Apply a class treatment to a dataset, dropping absorbed categories."""
    survivors = set(treatment.effective_classes())
    return Dataset(
        images=list(ds.images),
        annotations=remap_annotations(ds.annotations, ds.categories, treatment),
        categories=[c for c in ds.categories if c.name in survivors],
        info=dict(ds.info),
        licenses=list(ds.licenses),
        extra=dict(ds.extra),
    )


def remap_annotations(
    annotations: list[Annotation],
    categories: list[Category],
    treatment: Treatment,
) -> list[Annotation]:
    """Apply a class treatment to standalone annotations (e.g. detections).

    ``categories`` define the id/name table the annotations refer to —
    typically the ground-truth dataset's categories before remapping.
    """
    by_id = {c.id: c for c in categories}
    by_name = {c.name: c for c in categories}
    out = []
    for ann in annotations:
        cat = by_id.get(ann.category_id)
        if cat is None:
            raise DataError(
                f"annotation {ann.id} references missing category {ann.category_id}"
            )
        target = treatment.apply(cat.name)
        if target not in by_name:
            raise DataError(
                f"treatment {treatment.name!r} maps {cat.name!r} to {target!r}, "
                "which is not a known category"
            )
        out.append(replace(ann, category_id=by_name[target].id))
    return out


# ---------------------------------------------------------------------------
# polygon-editor round trip
# ---------------------------------------------------------------------------

_LABELME_VERSION = "5.2.1"
_SUPER_ALIAS = {"people": "person"}
_ALIAS_SUPER = {v: k for k, v in _SUPER_ALIAS.items()}


def _instance_label(supercategory: str, name: str, index: int) -> str:
    alias = _SUPER_ALIAS.get(supercategory, supercategory)
    return f"{alias}_{name}_{index}"


def export_labelme(ds: Dataset, out_dir: str | Path) -> list[Path]:
    """Write one polygon-editor JSON per image for manual correction.

    Labels read ``person_pedestrian_3``: aliased super-category, class name,
    then a per-image per-class instance index assigned in descending score
    order. Multi-part objects emit one shape per ring, tied together by
    ``group_id``. Vertices outside the image are clamped with a warning.
    Each image's file is ``<stem>.json``. Images whose files would share a
    name, or take ``manifest.json`` (the run manifest ``posmap.cli`` writes
    into an output directory), are refused before any file is written.
    """
    names: dict[str, list[str]] = {"manifest.json": ["the run manifest"]}
    for image in ds.images:
        names.setdefault(Path(image.file_name).stem + ".json", []).append(image.file_name)
    clashes = [f"{name} ({', '.join(files)})" for name, files in names.items() if len(files) > 1]
    if clashes:
        raise DataError(f"labelme files would overwrite each other: {'; '.join(clashes)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cats = ds.category_by_id()
    images_by_id = ds.image_by_id()
    written = []
    for im, anns in ds.anns_by_image().items():
        image = images_by_id[im]
        ordered = sorted(
            anns, key=lambda a: (-(a.score if a.score is not None else 0.0), a.id)
        )
        counters: dict[int, int] = {}
        shapes = []
        group_id = 0
        for ann in ordered:
            if not ann.segmentation:
                continue
            cat = cats[ann.category_id]
            counters[cat.id] = counters.get(cat.id, 0) + 1
            label = _instance_label(cat.supercategory, cat.name, counters[cat.id])
            group_id += 1
            gid = group_id if len(ann.segmentation) > 1 else None
            for part in ann.segmentation:
                pts = []
                for x, y in zip(part[0::2], part[1::2]):
                    cx = min(max(x, 0.0), float(image.width))
                    cy = min(max(y, 0.0), float(image.height))
                    if cx != x or cy != y:
                        warnings.warn(
                            f"annotation {ann.id}: vertex ({x}, {y}) clamped to "
                            f"image bounds of {image.file_name}",
                            stacklevel=2,
                        )
                    pts.append([cx, cy])
                shapes.append(
                    {
                        "label": label,
                        "points": pts,
                        "group_id": gid,
                        "shape_type": "polygon",
                        "flags": {},
                    }
                )
        doc = {
            "version": _LABELME_VERSION,
            "flags": {},
            "shapes": shapes,
            "imagePath": image.file_name,
            "imageData": None,
            "imageHeight": image.height,
            "imageWidth": image.width,
        }
        out_path = out_dir / (Path(image.file_name).stem + ".json")
        out_path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(out_path)
    return written


def _parse_instance_label(label: str) -> tuple[str, str]:
    parts = label.split("_")
    if len(parts) != 3:
        raise DataError(
            f"label {label!r} is not of the form <supercategory>_<class>_<index>"
        )
    alias, name, _ = parts
    return _ALIAS_SUPER.get(alias, alias), name


def import_labelme(
    paths: list[str | Path], taxonomy: Taxonomy
) -> Dataset:
    """Rebuild a dataset from polygon-editor JSON files.

    Each file becomes a one-image dataset document, with one annotation
    record per (label, group_id) (shapes sharing both become one multi-part
    annotation) and the categories of the full ``taxonomy``, so ids stay
    stable across partial exports. The document is read as a dataset file is,
    so every error names the polygon file. Class names must exist in
    ``taxonomy``.
    """
    cat_records = [
        {"id": c.class_id, "name": c.name, "supercategory": c.supercategory}
        for c in taxonomy.classes
    ]
    ds = Dataset(categories=[Category(**r) for r in cat_records])
    for image_id, p in enumerate(sorted(Path(q) for q in paths), start=1):
        doc = read_json(p, "polygon")
        grouped: dict[tuple[str, object], dict] = {}
        try:
            image = {"id": image_id, "file_name": doc["imagePath"],
                     "width": doc["imageWidth"], "height": doc["imageHeight"]}
            for shape_no, shape in enumerate(doc["shapes"]):
                if shape.get("shape_type") != "polygon":
                    raise DataError(
                        f"shape {shape_no} has unsupported type {shape.get('shape_type')!r}"
                    )
                label = str(shape["label"])
                gid = shape.get("group_id")
                key = (label, gid if gid is not None else ("solo", shape_no))
                if key not in grouped:
                    cls = taxonomy.by_name(_parse_instance_label(label)[1])
                    grouped[key] = {"id": len(ds.annotations) + len(grouped) + 1,
                                    "image_id": image_id, "category_id": cls.class_id,
                                    "segmentation": []}
                grouped[key]["segmentation"].append(
                    [v for x, y in shape["points"] for v in (x, y)]
                )
        except DataError as e:
            raise DataError(f"polygon file {p}: {e}") from e
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"polygon file {p} is malformed: {e}") from e
        one = _dataset_from_doc(
            {"images": [image], "annotations": list(grouped.values()), "categories": cat_records},
            p,
        )
        ds.images += one.images
        ds.annotations += one.annotations
    return ds
