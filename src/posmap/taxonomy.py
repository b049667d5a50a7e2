"""Object taxonomy for public-open-space scenes.

Fifteen observable classes grouped into four super-categories, plus the
label *treatments* that remap ambiguous classes before training or mapping.
Treatments are pure class-to-class remaps and are idempotent: applying one
twice gives the same result as applying it once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import WHOLE, ConfigError, DataError, read_json, read_number

__all__ = [
    "ClassDef",
    "Taxonomy",
    "Treatment",
    "default_taxonomy",
    "load_taxonomy",
    "save_taxonomy",
]

TAXONOMY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ClassDef:
    """One observable class: stable integer id, name, super-category."""

    class_id: int
    name: str
    supercategory: str


@dataclass(frozen=True)
class Taxonomy:
    """An immutable class table with a name lookup."""

    classes: tuple[ClassDef, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.classes]
        ids = [c.class_id for c in self.classes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate class names in taxonomy")
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate class ids in taxonomy")

    def by_name(self, name: str) -> ClassDef:
        for c in self.classes:
            if c.name == name:
                return c
        raise DataError(f"unknown class name {name!r}")


@dataclass(frozen=True)
class Treatment:
    """A named class remap applied before training or mapping.

    ``mapping`` sends source class name -> target class name; classes not in
    the mapping pass through unchanged. The target of every rule must be a
    fixed point (never itself remapped), which is what makes treatments
    idempotent.
    """

    name: str
    mapping: dict[str, str]
    taxonomy: Taxonomy

    def __post_init__(self) -> None:
        known = {c.name for c in self.taxonomy.classes}
        for src, dst in self.mapping.items():
            for name in (src, dst):
                if name not in known:
                    raise ConfigError(
                        f"treatment {self.name!r} references unknown class {name!r}"
                    )
            if dst in self.mapping:
                raise ConfigError(
                    f"treatment {self.name!r} is not idempotent: "
                    f"{src!r} -> {dst!r} -> {self.mapping[dst]!r}"
                )

    def apply(self, name: str) -> str:
        """Remap one class name. Names outside the mapping pass through."""
        self.taxonomy.by_name(name)
        return self.mapping.get(name, name)

    def effective_classes(self) -> tuple[str, ...]:
        """Distinct class names that survive the treatment, in table order."""
        survivors = {self.mapping.get(c.name, c.name) for c in self.taxonomy.classes}
        return tuple(c.name for c in self.taxonomy.classes if c.name in survivors)


def default_taxonomy() -> Taxonomy:
    """The 15-class, 4-super-category table used throughout the toolkit."""
    people = [
        "cycpart",
        "cyclist",
        "pedestrian",
        "pedpart",
        "peoplelying",
        "peopleother",
        "roller",
        "scooterer",
        "sitter",
        "skater",
    ]
    rows: list[ClassDef] = []
    cid = 1
    for name in people:
        rows.append(ClassDef(cid, name, "people"))
        cid += 1
    for name, sup in [
        ("umbrella", "accessory"),
        ("dog", "animal"),
        ("car", "vehicle"),
        ("stroller", "vehicle"),
        ("vehicleother", "vehicle"),
    ]:
        rows.append(ClassDef(cid, name, sup))
        cid += 1
    return Taxonomy(tuple(rows))


def default_treatments(taxonomy: Taxonomy | None = None) -> dict[str, Treatment]:
    """The three standard treatments.

    All three fold ``roller`` into ``pedestrian`` (rollerbladers move and
    read like pedestrians at surveillance distance). They differ in how the
    part-classes and lying-people class are handled:

    - ``merging``: body parts join their parent class, lying people join
      the residual people class.
    - ``filtering``: parts and lying people all go to the residual class,
      so the trained classes only see whole, upright people.
    - ``separating``: parts and lying people stay as distinct classes.
    """
    tax = taxonomy or default_taxonomy()
    base = {"roller": "pedestrian"}
    return {
        "merging": Treatment(
            "merging",
            {
                **base,
                "pedpart": "pedestrian",
                "cycpart": "cyclist",
                "peoplelying": "peopleother",
            },
            tax,
        ),
        "filtering": Treatment(
            "filtering",
            {
                **base,
                "pedpart": "peopleother",
                "cycpart": "peopleother",
                "peoplelying": "peopleother",
            },
            tax,
        ),
        "separating": Treatment("separating", dict(base), tax),
    }


def save_taxonomy(
    path: str | Path,
    taxonomy: Taxonomy,
    treatments: dict[str, Treatment] | None = None,
) -> None:
    doc = {
        "version": TAXONOMY_SCHEMA_VERSION,
        "classes": [
            {"id": c.class_id, "name": c.name, "supercategory": c.supercategory}
            for c in taxonomy.classes
        ],
        "treatments": {
            name: dict(t.mapping) for name, t in (treatments or {}).items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_taxonomy(path: str | Path) -> tuple[Taxonomy, dict[str, Treatment]]:
    doc = read_json(path, "taxonomy")
    version = doc.get("version")
    if version != TAXONOMY_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported taxonomy schema version {version!r} "
            f"(expected {TAXONOMY_SCHEMA_VERSION})"
        )
    try:
        tax = Taxonomy(
            tuple(
                ClassDef(read_number(c["id"], "id", WHOLE), str(c["name"]),
                         str(c["supercategory"]))
                for c in doc["classes"]
            )
        )
        treatments = {
            name: Treatment(name, {str(k): str(v) for k, v in m.items()}, tax)
            for name, m in doc.get("treatments", {}).items()
        }
    except KeyError as e:
        raise DataError(f"taxonomy file {path} is missing field {e}") from e
    except (AttributeError, DataError, TypeError, ValueError) as e:
        raise DataError(f"taxonomy file {path} is malformed: {e}") from e
    return tax, treatments
