"""Dataset file I/O, splitting, filtering, and label-editor round trips."""

from __future__ import annotations

import json
import re
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posmap.coco import (
    Annotation,
    Category,
    Dataset,
    ImageRecord,
    export_labelme,
    filter_for_annotation,
    import_labelme,
    load_dataset,
    load_detections,
    remap_annotations,
    remap_categories,
    save_dataset,
    save_detections,
    split_dataset,
)
from posmap.errors import ConfigError, DataError
from posmap.geometry2d import polygons_bounds
from posmap.taxonomy import default_taxonomy, default_treatments

TAX = default_taxonomy()
CATS = [
    Category(id=c.class_id, name=c.name, supercategory=c.supercategory)
    for c in TAX.classes
]
PED_ID = TAX.by_name("pedestrian").class_id
CYC_ID = TAX.by_name("cyclist").class_id

SQUARE = [10.0, 10.0, 50.0, 10.0, 50.0, 40.0, 10.0, 40.0]  # area 1200


def _toy_dataset() -> Dataset:
    images = [
        ImageRecord(id=1, file_name="a.jpg", width=640, height=480,
                    extra={"weather": "sunny"}),
        ImageRecord(id=2, file_name="b.jpg", width=640, height=480,
                    extra={"weather": "rainy", "evening": True}),
    ]
    anns = [
        Annotation(id=1, image_id=1, category_id=PED_ID, segmentation=[list(SQUARE)],
                   bbox=(10.0, 10.0, 40.0, 30.0), area=1200.0,
                   extra={"track_id": 7}),
        Annotation(id=2, image_id=2, category_id=CYC_ID,
                   bbox=(100.0, 100.0, 30.0, 60.0), area=1800.0, score=0.9),
    ]
    return Dataset(
        images=images,
        annotations=anns,
        categories=[c for c in CATS],
        info={"description": "toy"},
        extra={"fps": 30},
    )


# -- load / save ----------------------------------------------------------


def test_save_load_round_trip_preserves_everything(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "ds.json"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded == ds


def test_unknown_keys_survive_reserialization(tmp_path):
    ds = _toy_dataset()
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_dataset(p1, ds)
    save_dataset(p2, load_dataset(p1))
    assert json.loads(p1.read_text()) == json.loads(p2.read_text())


def test_load_rejects_rle_segmentation(tmp_path):
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1,
             "segmentation": {"counts": [0, 100], "size": [48, 64]},
             "bbox": [0, 0, 10, 10]}
        ],
    }
    path = tmp_path / "rle.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_rejects_dangling_references(tmp_path):
    base = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
    }
    for ann in (
        {"id": 1, "image_id": 99, "category_id": 1, "bbox": [0, 0, 5, 5]},
        {"id": 1, "image_id": 1, "category_id": 99, "bbox": [0, 0, 5, 5]},
    ):
        doc = dict(base, annotations=[ann])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="missing"):
            load_dataset(path)


def test_load_rejects_duplicate_ids(tmp_path):
    doc = {
        "images": [
            {"id": 1, "file_name": "a.jpg", "width": 64, "height": 48},
            {"id": 1, "file_name": "b.jpg", "width": 64, "height": 48},
        ],
        "categories": [],
        "annotations": [],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="duplicate"):
        load_dataset(path)


def test_load_rejects_duplicate_annotation_ids(tmp_path):
    # matching and the localization join find annotations by id
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]},
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [30, 30, 5, 5]},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"{path} has duplicate annotation id 1")):
        load_dataset(path)
    with pytest.raises(DataError, match="duplicate annotation id 1"):
        load_detections(path)


def test_load_rejects_out_of_range_score(tmp_path):
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5],
             "score": 1.5}
        ],
    }
    path = tmp_path / "score.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="score"):
        load_dataset(path)


# a 401-digit integer: too large for a float or an int64
OVERFLOW = pytest.param(10**400, id="10**400")


@pytest.mark.parametrize("area", [float("nan"), -5.0, OVERFLOW])
def test_load_rejects_non_finite_or_negative_area(tmp_path, area):
    record = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "area": area}
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [{"id": 1, **record}],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))  # json writes and reads NaN
    with pytest.raises(DataError, match=re.escape(f"area {area} is not a finite number >= 0")):
        load_dataset(path)
    bare = tmp_path / "dets.json"
    bare.write_text(json.dumps([{**record, "score": 0.5}]))
    with pytest.raises(DataError, match=f"area {area}"):
        load_detections(bare)


def test_load_refuses_an_integer_longer_than_the_json_decoder_reads(tmp_path):
    # the decoder raises a bare ValueError past 4300 digits, which left as a traceback
    path = tmp_path / "gt.json"
    text = json.dumps(_one_annotation_doc())
    path.write_text(text.replace('"score": 0.5', '"area": 1' + "0" * 5000))
    with pytest.raises(DataError, match=re.escape(f"annotation file {path} is not valid JSON")):
        load_dataset(path)


def test_load_refuses_lists_nested_deeper_than_the_json_decoder_recurses(tmp_path):
    # the decoder raises RecursionError, which left as a traceback
    path = tmp_path / "gt.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(DataError, match=re.escape(f"annotation file {path} is not valid JSON")):
        load_dataset(path)


def test_load_refuses_a_polygon_coordinate_too_large_for_a_float(tmp_path):
    # float() raised OverflowError, which left the loader as a traceback
    record = {"image_id": 1, "category_id": 1, "segmentation": [[10**400, *SQUARE[1:]]],
              "bbox": [10, 10, 40, 30], "area": 100}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(annotation=record)))
    named = f"annotation record 0 in {path} is malformed: int too large to convert to float"
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)


@pytest.mark.parametrize("value", [True, False])
def test_load_refuses_a_bool_polygon_coordinate(tmp_path, value):
    # float() read true as a coordinate of 1.0 and false as 0.0
    record = {"image_id": 1, "category_id": 1, "segmentation": [[value, *SQUARE[1:]]],
              "bbox": [10, 10, 40, 30], "area": 100}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(annotation=record)))
    named = (f"annotation record 0 in {path}: annotation 4: polygon has a coordinate "
             "true or false, not a number")
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)


@pytest.mark.parametrize("field", ["score", "area"])
def test_load_refuses_a_bool_score_or_area(tmp_path, field):
    # read with float(), true was a score or an area of 1.0
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(annotation={field: True})))
    with pytest.raises(DataError, match=f"{field} True is not a"):
        load_dataset(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_a_non_finite_polygon_coordinate(tmp_path, bad):
    # an explicit area and bbox leave the polygon as the only place the value sits
    record = {"image_id": 1, "category_id": 1, "segmentation": [[bad, *SQUARE[1:]]],
              "bbox": [10, 10, 40, 30], "area": 100}
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [{"id": 4, **record}],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="annotation 4: polygon has a non-finite coordinate"):
        load_dataset(path)
    bare = tmp_path / "dets.json"
    bare.write_text(json.dumps([{**record, "score": 0.5}]))
    with pytest.raises(DataError, match="annotation 1: polygon has a non-finite coordinate"):
        load_detections(bare)

@pytest.mark.parametrize("record, named", [
    # the polygon is finite, but its hull's width overflows to inf
    ({"segmentation": [[-1e308, 0, 1e308, 10, 0, 20]], "area": 100},
     "bbox (-1e+308, 0.0, inf, 20.0)"),
    ({"segmentation": [[-1e308, 0, 1e308, 10, 0, 20]], "bbox": [0, 0, 5, 5], "area": 100},
     "polygon hull (-1e+308, 0.0, inf, 20.0)"),
    ({"bbox": [0, 1e308, 5, 1e308]}, "bbox (0.0, 1e+308, 5.0, 1e+308)"),
])
def test_load_rejects_a_box_that_is_not_finite(tmp_path, record, named):
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [{"id": 6, "image_id": 1, "category_id": 1, **record}],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"annotation 6 has {named}, not finite")):
        load_dataset(path)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), True, "x", [1.0], OVERFLOW])
def test_load_rejects_a_bbox_value_that_is_not_a_finite_number(tmp_path, value):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(annotation={"bbox": [0, 0, value, 5]})))
    named = f"annotation record 0 in {path}: bbox {value!r} is not a finite number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)


@pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), "12.5", True, [1.0],
                                       OVERFLOW])
def test_load_rejects_a_timestamp_that_is_not_a_finite_number(tmp_path, timestamp):
    image = {"id": 3, "file_name": "a.jpg", "width": 64, "height": 48}
    doc = {"images": [{**image, "timestamp": timestamp}], "categories": [], "annotations": []}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    named = f"image record 0 in {path}: timestamp {timestamp!r} is not a finite number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)
    for fine in (None, 7, 2.5):
        path.write_text(json.dumps({**doc, "images": [{**image, "timestamp": fine}]}))
        assert load_dataset(path).images[0].extra["timestamp"] == fine


@pytest.mark.parametrize("width,height", [(0, 48), (64, 0), (64, -48), (-1, -1)])
def test_load_rejects_an_image_smaller_than_one_pixel(tmp_path, width, height):
    image = {"id": 3, "file_name": "a.jpg", "width": width, "height": height}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"images": [image], "categories": [], "annotations": []}))
    with pytest.raises(DataError, match=re.escape(f"image 3 is {width} x {height} px")):
        load_dataset(path)
    path.write_text(json.dumps({"images": [{**image, "width": 1, "height": 1}],
                                "categories": [], "annotations": []}))
    assert load_dataset(path).images[0].width == 1


def _one_annotation_doc(image=None, category=None, annotation=None) -> dict:
    """A dataset document of one image, one category and one annotation, fields updated."""
    return {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48, **(image or {})}],
        "categories": [{"id": 1, "name": "pedestrian", **(category or {})}],
        "annotations": [{"id": 4, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5],
                         "score": 0.5, **(annotation or {})}],
    }


@pytest.mark.parametrize("value", [7.9, True, float("nan"), float("inf"), OVERFLOW, -2**63 - 1])
@pytest.mark.parametrize("field", ["id", "image_id", "category_id"])
def test_load_refuses_an_annotation_id_that_is_not_a_whole_number(
        tmp_path, field, value):
    # read with int(), image 1.5 would join image 1, and ids 7.9 and 7.2 would clash as 7
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(annotation={field: value})))
    named = f"annotation record 0 in {path}: {field} {value!r} is not a whole number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)
    bare = tmp_path / "dets.json"
    bare.write_text(json.dumps(_one_annotation_doc(annotation={field: value})["annotations"]))
    with pytest.raises(DataError, match=re.escape(f"record 0 in {bare}: {field} {value!r}")):
        load_detections(bare)


@pytest.mark.parametrize("value", [640.7, True, 2**63])
@pytest.mark.parametrize("field", ["id", "width", "height"])
def test_load_refuses_an_image_id_or_size_that_is_not_a_whole_number(tmp_path, field, value):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(image={field: value})))
    named = f"image record 0 in {path}: {field} {value!r} is not a whole number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)


@pytest.mark.parametrize("value", [1.5, False])
def test_load_refuses_a_category_id_that_is_not_a_whole_number(tmp_path, value):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(category={"id": value})))
    named = f"category record 0 in {path}: id {value!r} is not a whole number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_dataset(path)


@pytest.mark.parametrize("value, named", [
    (-3, "iscrowd -3, not 0 or 1"),  # read as crowd by evaluation
    (5, "iscrowd 5, not 0 or 1"),
    (0.5, "iscrowd 0.5 is not a whole number"),
    (True, "iscrowd True is not a whole number"),
])
def test_load_refuses_an_iscrowd_other_than_0_or_1(tmp_path, value, named):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(annotation={"iscrowd": value})))
    with pytest.raises(DataError, match=re.escape(f"annotation record 0 in {path}: ")
                       + ".*" + re.escape(named)):
        load_dataset(path)


def test_load_reads_integral_floats_and_numeric_strings_as_whole_numbers(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(_one_annotation_doc(
        image={"id": 1.0, "width": 640.0, "height": "480"},
        category={"id": "1"},
        annotation={"id": 4.0, "image_id": 1.0, "category_id": 1, "iscrowd": 1.0},
    )))
    ds = load_dataset(path)
    assert (ds.images[0].id, ds.images[0].width, ds.images[0].height) == (1, 640, 480)
    assert ds.categories[0].id == 1
    ann = ds.annotations[0]
    assert (ann.id, ann.image_id, ann.category_id, ann.iscrowd) == (4, 1, 1, 1)
    assert all(type(v) is int for v in (ds.images[0].width, ann.id, ann.iscrowd))


@pytest.mark.parametrize("key", ["images", "categories", "annotations"])
def test_load_refuses_records_that_are_not_a_list(tmp_path, key):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({**_one_annotation_doc(), key: 5}))
    with pytest.raises(DataError, match=re.escape(f"records in {path} are not a JSON list")):
        load_dataset(path)


def test_load_warns_on_bbox_hull_mismatch(tmp_path):
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 640, "height": 480}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1,
             "segmentation": [SQUARE], "bbox": [10, 10, 80, 30]}
        ],
    }
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="deviates"):
        load_dataset(path)


# every record warns: its bbox is 40 px wider than its polygon's hull
_DRIFTING = {"image_id": 1, "category_id": 1, "segmentation": [SQUARE],
             "bbox": [10, 10, 80, 30], "area": 100, "score": 0.5}
_OVERFLOWING = [[-1e308, 0, 1e308, 10, 0, 20]]  # finite, but the hull's width is inf
# faults the record loop finds, each read from one record's fields
_FIELD_FAULTS = [
    ({"score": 1.5}, "score 1.5 is not a number in [0, 1]"),
    ({"iscrowd": 2}, "annotation {id} has iscrowd 2, not 0 or 1"),
    ({"bbox": [0, 0, 5]}, "annotation {id} has a bbox with 3 values"),
]
# faults the float checks find, once per file
_FLOAT_FAULTS = [
    ({"segmentation": [[float("nan"), *SQUARE[1:]]]},
     "annotation {id}: polygon has a non-finite coordinate"),
    ({"segmentation": _OVERFLOWING, "bbox": None},
     "annotation {id} has bbox (-1e+308, 0.0, inf, 20.0), not finite"),
    ({"segmentation": _OVERFLOWING},
     "annotation {id} has polygon hull (-1e+308, 0.0, inf, 20.0), not finite"),
]


@pytest.mark.parametrize("field_first", [True, False])
@pytest.mark.parametrize("float_fault", _FLOAT_FAULTS)
@pytest.mark.parametrize("field_fault", _FIELD_FAULTS)
def test_load_names_the_first_bad_record_after_the_warnings_before_it(
        tmp_path, field_fault, float_fault, field_first):
    first, second = (field_fault, float_fault) if field_first else (float_fault, field_fault)
    records = [{"id": 10 + i, **_DRIFTING} for i in range(5)]
    records[2].update(first[0])
    records[4].update(second[0])
    doc = {"images": [{"id": 1, "file_name": "a.jpg", "width": 640, "height": 480}],
           "categories": [{"id": 1, "name": "pedestrian"}], "annotations": records}
    drift = ("annotation {}: bbox (10.0, 10.0, 80.0, 30.0) deviates more than 1 px "
             "from its polygon hull (10.0, 10.0, 40.0, 30.0)")
    for load, content in ((load_dataset, doc), (load_detections, records)):
        path = tmp_path / "anns.json"
        path.write_text(json.dumps(content))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError) as raised:
                load(path)
        assert str(raised.value) == f"annotation record 2 in {path}: " + first[1].format(id=12)
        # the records before the bad one warn, once each and in order; it and those after do not
        assert [str(w.message) for w in caught] == [drift.format(10), drift.format(11)]


def test_bbox_and_area_derived_from_polygon(tmp_path):
    doc = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 640, "height": 480}],
        "categories": [{"id": 1, "name": "pedestrian"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "segmentation": [SQUARE]}
        ],
    }
    path = tmp_path / "derived.json"
    path.write_text(json.dumps(doc))
    ann = load_dataset(path).annotations[0]
    assert ann.bbox == (10.0, 10.0, 40.0, 30.0)
    assert ann.area == 1200.0


# -- detections -----------------------------------------------------------


def test_load_detections_bare_list(tmp_path):
    doc = [
        {"image_id": 1, "category_id": 2, "score": 0.8, "bbox": [5, 5, 20, 10]},
        {"image_id": 1, "category_id": 1, "score": 0.45, "segmentation": [SQUARE]},
    ]
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(doc))
    dets = load_detections(path)
    assert [d.id for d in dets] == [1, 2]
    assert dets[0].area == 200.0
    assert dets[1].bbox == (10.0, 10.0, 40.0, 30.0)
    assert dets[1].score == 0.45


def test_load_detections_requires_score(tmp_path):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]}]))
    with pytest.raises(DataError, match="malformed"):
        load_detections(path)


@pytest.mark.parametrize("bbox", [[0, 0, 5], [0, 0, 5, 5, 1]])
def test_load_detections_rejects_bbox_without_4_values(tmp_path, bbox):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(
        [{"image_id": 1, "category_id": 1, "score": 0.5, "bbox": bbox}]
    ))
    with pytest.raises(DataError, match=f"bbox with {len(bbox)} values"):
        load_detections(path)


def test_load_detections_accepts_dataset_file(tmp_path):
    ds = _toy_dataset()
    ds.annotations[0].score = 0.5  # every detection needs a score
    path = tmp_path / "full.json"
    save_dataset(path, ds)
    dets = load_detections(path)
    assert dets == ds.annotations


def test_load_detections_requires_a_score_in_a_dataset_file(tmp_path):
    # the toy dataset's first annotation has no score
    path = tmp_path / "full.json"
    save_dataset(path, _toy_dataset())
    with pytest.raises(DataError, match=re.escape(
            f"annotation record 0 in {path} is malformed: a detection needs a score")):
        load_detections(path)


def test_load_detections_refuses_a_repeated_id(tmp_path):
    # a record without an id takes its position, which may repeat an explicit id
    doc = [
        {"id": 2, "image_id": 1, "category_id": 1, "score": 0.9, "bbox": [0, 0, 4, 4]},
        {"image_id": 1, "category_id": 1, "score": 0.9, "bbox": [5, 0, 4, 4]},
    ]
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="duplicate annotation id 2"):
        load_detections(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_EXTRA_KEYS = st.text(min_size=1, max_size=8).filter(
    lambda k: k not in {"id", "image_id", "category_id", "segmentation", "bbox", "area",
                        "iscrowd", "score"}
)
_COORD = st.floats(-1e4, 1e4, allow_nan=False)


@st.composite
def _detection(draw):
    rings = draw(st.lists(
        st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=5).map(
            lambda pts: [v for pt in pts for v in pt]),
        max_size=2,
    ))
    # the bbox of a polygon record is its hull, so loading does not warn
    bbox = polygons_bounds(rings) if rings else draw(
        st.tuples(_COORD, _COORD, st.floats(0, 1e4), st.floats(0, 1e4)))
    return Annotation(
        id=draw(st.integers(-2**40, 2**40)),
        image_id=draw(st.integers(0, 1000)),
        category_id=draw(st.integers(1, 15)),
        segmentation=rings,
        bbox=bbox,
        area=draw(st.floats(0, 1e8)),
        iscrowd=draw(st.sampled_from([0, 1])),
        score=draw(st.floats(0.0, 1.0)),
        extra=draw(st.dictionaries(_EXTRA_KEYS, _JSON_VALUES, max_size=3)),
    )


@pytest.fixture(scope="module")
def det_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("dets")


@settings(max_examples=60, deadline=None)
@given(dets=st.lists(_detection(), max_size=5, unique_by=lambda d: d.id))
def test_detections_round_trip(det_dir, dets):
    path = det_dir / "dets.json"
    save_detections(path, dets)
    assert load_detections(path) == dets


_COORD_VALUE = st.one_of(st.integers(-5000, 5000), st.floats(-1e4, 1e4, allow_nan=False),
                         st.sampled_from([0, 0.0, -0.0]))


@st.composite
def _annotation_record(draw):
    """A JSON annotation record without an id: any of bbox, area and polygon may be missing."""
    record = {"image_id": 1, "category_id": 1}
    if draw(st.booleans()):
        record["segmentation"] = draw(st.lists(
            st.lists(st.tuples(_COORD_VALUE, _COORD_VALUE), min_size=3, max_size=5).map(
                lambda pts: [v for pt in pts for v in pt]),
            min_size=1, max_size=5,
        ))
        if draw(st.booleans()):
            record["bbox"] = list(polygons_bounds(record["segmentation"]))
    else:
        record["bbox"] = list(draw(
            st.tuples(_COORD, _COORD, st.floats(0, 1e4), st.floats(0, 1e4))))
    if draw(st.booleans()):
        record["area"] = draw(st.floats(0, 1e8))
    if draw(st.booleans()):
        record["iscrowd"] = draw(st.sampled_from([0, 1]))
    return {**record, **draw(st.dictionaries(_EXTRA_KEYS, _JSON_VALUES, max_size=2))}


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_annotation_record(), max_size=6))
# numpy's min of 0.0 and -0.0 is -0.0, Python's the first of them
@example(records=[{"image_id": 1, "category_id": 1,
                   "segmentation": [[0.0, 5, 3, 0.0, 1, 1], [-0.0, 2.5, 4, -0.0, 2, 2]]}])
def test_dataset_round_trip_through_save_dataset(det_dir, records):
    records = [{"id": i, **r} for i, r in enumerate(records, start=1)]
    doc = {"images": [{"id": 1, "file_name": "a.jpg", "width": 640, "height": 480}],
           "categories": [{"id": 1, "name": "pedestrian"}], "annotations": records}
    path = det_dir / "gt.json"
    path.write_text(json.dumps(doc))
    ds = load_dataset(path)
    for record, ann in zip(records, ds.annotations, strict=True):
        assert ann.segmentation == record.get("segmentation", [])
        if "bbox" not in record:  # the hull, down to the sign of a zero
            hull = polygons_bounds(record["segmentation"])
            assert [v.hex() for v in ann.bbox] == [v.hex() for v in hull]
    saved = det_dir / "saved.json"
    save_dataset(saved, ds)
    again = load_dataset(saved)
    assert again == ds
    save_dataset(det_dir / "again.json", again)
    assert (det_dir / "again.json").read_bytes() == saved.read_bytes()


# -- split ----------------------------------------------------------------


def test_split_nine_to_one_counts():
    images = [
        ImageRecord(id=i, file_name=f"im{i:05d}.jpg", width=64, height=48)
        for i in range(1, 7827)
    ]
    ds = Dataset(images=images, categories=[c for c in CATS])
    train, test = split_dataset(ds, 0.9, seed=7)
    assert len(train.images) == 7043
    assert len(test.images) == 783

    train2, test2 = split_dataset(ds, 0.9, seed=7)
    assert [im.id for im in train2.images] == [im.id for im in train.images]

    train3, _ = split_dataset(ds, 0.9, seed=8)
    assert {im.id for im in train3.images} != {im.id for im in train.images}


def test_split_moves_annotations_with_images():
    ds = _toy_dataset()
    # enough images that both sides are non-empty at 0.5
    ds.images += [
        ImageRecord(id=i, file_name=f"x{i}.jpg", width=64, height=48)
        for i in range(3, 9)
    ]
    train, test = split_dataset(ds, 0.5, seed=1)
    for side in (train, test):
        ids = {im.id for im in side.images}
        assert all(a.image_id in ids for a in side.annotations)
    assert len(train.annotations) + len(test.annotations) == len(ds.annotations)


def test_split_stratified_buckets():
    images = []
    for i in range(1, 41):
        cond = "sunny" if i <= 20 else "rainy"
        images.append(
            ImageRecord(id=i, file_name=f"{i}.jpg", width=4, height=4,
                        extra={"weather": cond})
        )
    ds = Dataset(images=images)
    train, test = split_dataset(ds, 0.75, seed=3, stratify_key="weather")
    n_sunny = sum(1 for im in train.images if im.extra["weather"] == "sunny")
    n_rainy = sum(1 for im in train.images if im.extra["weather"] == "rainy")
    assert n_sunny == 15
    assert n_rainy == 15


def test_split_errors():
    ds = _toy_dataset()
    with pytest.raises(DataError, match="fraction"):
        split_dataset(ds, 1.0, seed=0)
    with pytest.raises(DataError, match="empty"):
        split_dataset(ds, 0.01, seed=0)  # 2 images, round(0.02) = 0 train
    with pytest.raises(DataError, match="no images"):
        split_dataset(Dataset(), 0.5, seed=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 60), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
def test_split_is_a_partition(n, fraction, seed):
    n_train = round(fraction * n)
    assume(0 < n_train < n)
    images = [ImageRecord(id=i, file_name=f"{i}.jpg", width=4, height=4)
              for i in range(1, n + 1)]
    train, test = split_dataset(Dataset(images=images), fraction, seed)
    train_ids = {im.id for im in train.images}
    test_ids = {im.id for im in test.images}
    assert train_ids | test_ids == set(range(1, n + 1))
    assert not train_ids & test_ids
    assert len(train_ids) == n_train


# -- annotation filter ------------------------------------------------------


def _det(score, area_px, ann_id=1):
    side = area_px ** 0.5
    return Annotation(id=ann_id, image_id=1, category_id=PED_ID,
                      bbox=(0.0, 0.0, side, side), area=area_px, score=score)


def test_filter_thresholds_are_inclusive():
    kept = filter_for_annotation([_det(0.75, 600.0)])
    assert len(kept) == 1
    assert not filter_for_annotation([_det(0.7499999, 600.0)])
    assert not filter_for_annotation([_det(0.75, 599.99)])


def test_filter_uses_polygon_area_when_present():
    ann = Annotation(id=1, image_id=1, category_id=PED_ID,
                     segmentation=[list(SQUARE)],  # polygon area 1200
                     bbox=(10.0, 10.0, 40.0, 30.0), area=1200.0, score=0.9)
    assert filter_for_annotation([ann], min_area_px=1200.0) == [ann]
    assert filter_for_annotation([ann], min_area_px=1200.01) == []


def test_filter_unscored_annotations_pass_score_gate():
    ann = _det(None, 600.0)
    assert filter_for_annotation([ann]) == [ann]


@pytest.mark.parametrize("thresholds", [
    {"score_threshold": float("nan")},
    {"min_area_px": float("nan")},
    {"score_threshold": float("nan"), "min_area_px": float("nan")},
    {"min_area_px": float("-inf")},
])
def test_filter_refuses_a_threshold_that_is_not_finite(thresholds):
    # NaN thresholds let a 0.1-scored detection through that the defaults drop
    assert filter_for_annotation([_det(0.1, 700.0)]) == []
    with pytest.raises(ConfigError, match="is not a finite number"):
        filter_for_annotation([_det(0.1, 700.0)], **thresholds)


def test_filter_keeps_input_order():
    dets = [_det(0.9, 700.0, 1), _det(0.8, 700.0, 2), _det(0.95, 700.0, 3)]
    assert [a.id for a in filter_for_annotation(dets)] == [1, 2, 3]


# -- treatments over datasets ------------------------------------------------


def test_remap_categories_merging():
    ds = _toy_dataset()
    merging = default_treatments(TAX)["merging"]
    out = remap_categories(ds, merging)
    assert len(out.categories) == 11
    assert len(out.annotations) == len(ds.annotations)
    # pedestrian and cyclist survive merging untouched
    assert out.annotations[0].category_id == PED_ID
    assert out.annotations[1].category_id == CYC_ID


def test_remap_annotations_standalone():
    merging = default_treatments(TAX)["merging"]
    src = TAX.by_name("roller").class_id
    dets = [Annotation(id=1, image_id=1, category_id=src,
                       bbox=(0.0, 0.0, 5.0, 5.0), area=25.0, score=0.5)]
    out = remap_annotations(dets, CATS, merging)
    assert out[0].category_id == PED_ID
    assert out[0].score == 0.5
    assert dets[0].category_id == src  # input untouched


def test_remap_rejects_unknown_category_id():
    merging = default_treatments(TAX)["merging"]
    dets = [Annotation(id=1, image_id=1, category_id=999,
                       bbox=(0.0, 0.0, 5.0, 5.0), area=25.0)]
    with pytest.raises(DataError, match="missing category"):
        remap_annotations(dets, CATS, merging)


# -- polygon-editor round trip ------------------------------------------------


def _seg_dataset() -> Dataset:
    tri = [100.0, 100.0, 160.0, 100.0, 130.0, 160.0]
    two_part = [
        [200.0, 50.0, 240.0, 50.0, 240.0, 90.0, 200.0, 90.0],
        [250.0, 50.0, 290.0, 50.0, 290.0, 90.0, 250.0, 90.0],
    ]
    images = [
        ImageRecord(id=1, file_name="scene_0001.jpg", width=640, height=480),
        ImageRecord(id=2, file_name="scene_0002.jpg", width=640, height=480),
    ]
    anns = [
        Annotation(id=1, image_id=1, category_id=PED_ID, segmentation=[list(SQUARE)],
                   bbox=(10.0, 10.0, 40.0, 30.0), area=1200.0, score=0.95),
        Annotation(id=2, image_id=1, category_id=PED_ID, segmentation=[list(tri)],
                   bbox=(100.0, 100.0, 60.0, 60.0), area=1800.0, score=0.80),
        Annotation(id=3, image_id=2, category_id=CYC_ID,
                   segmentation=[list(p) for p in two_part],
                   bbox=(200.0, 50.0, 90.0, 40.0), area=3200.0, score=0.9),
    ]
    return Dataset(images=images, annotations=anns, categories=[c for c in CATS])


def test_labelme_round_trip(tmp_path):
    ds = _seg_dataset()
    files = export_labelme(ds, tmp_path)
    assert len(files) == 2

    back = import_labelme(files, TAX)
    assert len(back.images) == 2
    assert len(back.annotations) == 3
    assert len(back.categories) == 15

    by_image = back.anns_by_image()
    segs_in = sorted(a.segmentation for a in ds.annotations)
    segs_out = sorted(a.segmentation for a in back.annotations)
    assert segs_out == segs_in
    # the two-ring object came back as one annotation, not two
    assert [len(a.segmentation) for a in by_image[2]] == [2]
    assert by_image[2][0].category_id == CYC_ID


def test_labelme_labels_use_person_alias(tmp_path):
    ds = _seg_dataset()
    files = export_labelme(ds, tmp_path)
    doc = json.loads(files[0].read_text())
    labels = [s["label"] for s in doc["shapes"]]
    # descending score: 0.95 first, then 0.80; indices are per class per image
    assert labels == ["person_pedestrian_1", "person_pedestrian_2"]


def test_labelme_export_clamps_stray_vertices(tmp_path):
    ds = _seg_dataset()
    ds.annotations[0].segmentation = [[-5.0, 10.0, 50.0, 10.0, 50.0, 40.0, -5.0, 40.0]]
    ds.annotations[0].bbox = (-5.0, 10.0, 55.0, 30.0)
    with pytest.warns(UserWarning, match="clamped"):
        files = export_labelme(ds, tmp_path)
    doc = json.loads([f for f in files if "0001" in f.name][0].read_text())
    xs = [pt[0] for s in doc["shapes"] for pt in s["points"]]
    assert min(xs) >= 0.0


def test_labelme_import_errors(tmp_path):
    bad_label = {
        "version": "5.2.1", "flags": {}, "imagePath": "x.jpg",
        "imageData": None, "imageHeight": 480, "imageWidth": 640,
        "shapes": [{"label": "justoneword", "points": [[0, 0], [5, 0], [5, 5]],
                    "group_id": None, "shape_type": "polygon", "flags": {}}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad_label))
    with pytest.raises(DataError, match="label"):
        import_labelme([p], TAX)

    bad_label["shapes"][0].update(label="person_pedestrian_1",
                                  shape_type="rectangle")
    p.write_text(json.dumps(bad_label))
    with pytest.raises(DataError, match="unsupported"):
        import_labelme([p], TAX)

    bad_label["shapes"][0].update(shape_type="polygon", points=[[0, 0], [5, 0]])
    p.write_text(json.dumps(bad_label))
    with pytest.raises(DataError, match="vertices"):
        import_labelme([p], TAX)


def _labelme_doc(**fields) -> dict:
    doc = {
        "version": "5.2.1", "flags": {}, "imagePath": "x.jpg",
        "imageData": None, "imageHeight": 480, "imageWidth": 640,
        "shapes": [{"label": "person_pedestrian_1", "points": [[0, 0], [9, 0], [9, 9]],
                    "group_id": None, "shape_type": "polygon", "flags": {}}],
    }
    doc.update(fields)
    return doc


@pytest.mark.parametrize("fields, named", [
    ({"imageHeight": 0}, "image 1 is 640 x 0 px"),
    ({"imageWidth": 640.5}, "width 640.5 is not a whole number"),
    ({"shapes": [{"label": "person_pedestrian_1", "shape_type": "polygon",
                  "points": [[0, 0], [5, float("nan")], [9, 9]]}]},
     "polygon has a non-finite coordinate"),
    # flattened, points of three values would make a ring of other vertices
    ({"shapes": [{"label": "person_pedestrian_1", "shape_type": "polygon",
                  "points": [[0, 0, 9], [5, 0, 9]]}]},
     "is malformed: too many values to unpack"),
    ({"shapes": [{"label": "person_pedestrian_1", "shape_type": "polygon"}]},
     "is malformed: 'points'"),
    ({"shapes": [{"label": "person_unicorn_1", "shape_type": "polygon",
                  "points": [[0, 0], [9, 0], [9, 9]]}]},
     "unknown class name 'unicorn'"),
])
def test_labelme_import_names_the_polygon_file(tmp_path, fields, named):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_labelme_doc(**fields)))
    with pytest.raises(DataError, match=re.escape(str(p))):
        import_labelme([p], TAX)
    with pytest.raises(DataError, match=re.escape(named)):
        import_labelme([p], TAX)


def test_labelme_import_numbers_images_and_annotations_across_files(tmp_path):
    two_rings = [
        {"label": "person_cyclist_1", "points": [[0, 0], [9, 0], [9, 9]], "group_id": 3,
         "shape_type": "polygon"},
        {"label": "person_pedestrian_1", "points": [[20, 0], [29, 0], [29, 9]],
         "group_id": None, "shape_type": "polygon"},
        {"label": "person_cyclist_1", "points": [[40, 0], [49, 0], [49, 9]], "group_id": 3,
         "shape_type": "polygon"},
    ]
    (tmp_path / "b.json").write_text(json.dumps(_labelme_doc(imagePath="b.jpg")))
    (tmp_path / "a.json").write_text(json.dumps(_labelme_doc(imagePath="a.jpg",
                                                             shapes=two_rings)))
    ds = import_labelme([tmp_path / "b.json", tmp_path / "a.json"], TAX)
    assert [(im.id, im.file_name) for im in ds.images] == [(1, "a.jpg"), (2, "b.jpg")]
    assert [(a.id, a.image_id, a.category_id, len(a.segmentation)) for a in ds.annotations] \
        == [(1, 1, CYC_ID, 2), (2, 1, PED_ID, 1), (3, 2, PED_ID, 1)]
    assert ds.annotations[0].bbox == (0.0, 0.0, 49.0, 9.0)
    assert ds.annotations[0].area == 81.0
    assert ds.categories == CATS
