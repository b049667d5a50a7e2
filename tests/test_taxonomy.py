from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posmap.errors import ConfigError, DataError
from posmap.taxonomy import (
    Taxonomy,
    Treatment,
    default_taxonomy,
    default_treatments,
    load_taxonomy,
    save_taxonomy,
)

TAX = default_taxonomy()
TREATMENTS = default_treatments(TAX)


def test_fifteen_classes_in_four_groups():
    assert len(TAX.classes) == 15
    assert {c.supercategory for c in TAX.classes} == {"people", "accessory", "animal", "vehicle"}


def test_people_supercategory_has_ten_classes():
    assert sum(c.supercategory == "people" for c in TAX.classes) == 10


def test_class_ids_are_unique_and_contiguous():
    ids = sorted(c.class_id for c in TAX.classes)
    assert ids == list(range(1, 16))


def test_three_treatments_available():
    assert set(TREATMENTS) == {"merging", "filtering", "separating"}


@pytest.mark.parametrize("name", sorted(TREATMENTS))
def test_roller_becomes_pedestrian_in_every_treatment(name):
    assert TREATMENTS[name].apply("roller") == "pedestrian"


@pytest.mark.parametrize("name", sorted(TREATMENTS))
def test_unmapped_classes_pass_through(name):
    t = TREATMENTS[name]
    assert t.apply("dog") == "dog"
    assert t.apply("pedestrian") == "pedestrian"


def test_merging_eliminates_part_classes():
    t = TREATMENTS["merging"]
    assert t.apply("pedpart") == "pedestrian"
    assert t.apply("cycpart") == "cyclist"
    assert "pedpart" not in t.effective_classes()
    assert "cycpart" not in t.effective_classes()


def test_filtering_sends_parts_to_peopleother():
    t = TREATMENTS["filtering"]
    assert t.apply("pedpart") == "peopleother"
    assert t.apply("cycpart") == "peopleother"


def test_merging_and_filtering_keep_eleven_classes():
    assert len(TREATMENTS["merging"].effective_classes()) == 11
    assert len(TREATMENTS["filtering"].effective_classes()) == 11


def test_separating_keeps_fourteen_classes():
    assert len(TREATMENTS["separating"].effective_classes()) == 14


@pytest.mark.parametrize("name", sorted(TREATMENTS))
@given(source=st.sampled_from([c.name for c in TAX.classes]))
def test_treatment_idempotent(name, source):
    t = TREATMENTS[name]
    once = t.apply(source)
    assert t.apply(once) == once


@pytest.mark.parametrize("name", sorted(TREATMENTS))
def test_effective_classes_preserve_taxonomy_order(name):
    t = TREATMENTS[name]
    order = [c.name for c in TAX.classes]
    eff = list(t.effective_classes())
    assert eff == [n for n in order if n in set(eff)]


@given(
    names=st.lists(
        st.sampled_from([c.name for c in TAX.classes]), min_size=1, unique=True
    )
)
def test_apply_preserves_length_over_sequences(names):
    t = TREATMENTS["merging"]
    mapped = [t.apply(n) for n in names]
    assert len(mapped) == len(names)


def test_treatment_rejects_chained_mapping():
    with pytest.raises(ConfigError):
        Treatment(
            name="bad",
            mapping={"roller": "skater", "skater": "pedestrian"},
            taxonomy=TAX,
        )


def test_treatment_rejects_unknown_class():
    with pytest.raises(ConfigError):
        Treatment(name="bad", mapping={"unicorn": "pedestrian"}, taxonomy=TAX)


def test_duplicate_class_names_rejected():
    classes = list(TAX.classes)
    classes.append(classes[0])
    with pytest.raises(ConfigError):
        Taxonomy(classes=tuple(classes))


def test_taxonomy_round_trip(tmp_path):
    path = tmp_path / "taxonomy.json"
    save_taxonomy(path, TAX, TREATMENTS)
    tax2, treatments2 = load_taxonomy(path)
    assert tax2 == TAX
    assert set(treatments2) == set(TREATMENTS)
    for name in TREATMENTS:
        assert treatments2[name].mapping == TREATMENTS[name].mapping


@pytest.mark.parametrize("value", [1.9, True, pytest.param(10**400, id="10**400"), "x"])
def test_load_taxonomy_refuses_a_class_id_that_is_not_a_whole_number(tmp_path, value):
    # read with int(), id 1.9 loaded as class 1 and true as class 1
    path = tmp_path / "taxonomy.json"
    save_taxonomy(path, TAX)
    doc = json.loads(path.read_text())
    doc["classes"][1]["id"] = value
    path.write_text(json.dumps(doc))
    named = f"taxonomy file {path} is malformed: id {value!r} is not a whole number"
    with pytest.raises(DataError, match=named):
        load_taxonomy(path)


def test_load_taxonomy_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_taxonomy(path)
