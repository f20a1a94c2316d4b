"""Type-oriented (standardized) metadata schemas.

"Standardized metadata might be based on lists of elements such as the
Dublin Core" — MySRB's Figure 2 is the ingestion form with Dublin Core
attributes.  A :class:`MetadataSchema` names a fixed element set; the
registry binds schemas either to specific data types ("data-type
designated metadata can be ingested for SRB objects of particular type")
or to all objects (Dublin Core's case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MetadataError, NoSuchSchema

#: The fifteen Dublin Core elements (1.1), as MySRB's entry form lists them.
DUBLIN_CORE_ELEMENTS: Tuple[str, ...] = (
    "Title", "Creator", "Subject", "Description", "Publisher",
    "Contributor", "Date", "Type", "Format", "Identifier",
    "Source", "Language", "Relation", "Coverage", "Rights",
)


@dataclass(frozen=True)
class SchemaElement:
    """One element of a type-oriented schema."""

    name: str
    description: str = ""
    units: Optional[str] = None
    vocabulary: Optional[Tuple[str, ...]] = None   # restricted value list

    def check(self, value: str) -> None:
        if self.vocabulary is not None and value not in self.vocabulary:
            raise MetadataError(
                f"value {value!r} for {self.name!r} not in vocabulary "
                f"{list(self.vocabulary)}")


@dataclass(frozen=True)
class MetadataSchema:
    """A named set of elements, optionally grouped ("groupings of the meta
    entities in schemas and subgroupings")."""

    name: str
    elements: Tuple[SchemaElement, ...]
    groups: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def element(self, name: str) -> SchemaElement:
        for el in self.elements:
            if el.name == name:
                return el
        raise MetadataError(f"schema {self.name!r} has no element {name!r}")


def dublin_core_schema() -> MetadataSchema:
    """The Dublin Core 1.1 schema with its three element groupings."""
    return MetadataSchema(
        name="dublin-core",
        elements=tuple(SchemaElement(name=el) for el in DUBLIN_CORE_ELEMENTS),
        groups={
            "content": ("Title", "Subject", "Description", "Type", "Source",
                        "Relation", "Coverage"),
            "intellectual-property": ("Creator", "Publisher", "Contributor",
                                      "Rights"),
            "instantiation": ("Date", "Format", "Identifier", "Language"),
        },
    )


class SchemaRegistry:
    """Registry of type-oriented schemas and their data-type bindings."""

    def __init__(self) -> None:
        self._schemas: Dict[str, MetadataSchema] = {}
        self._by_type: Dict[str, List[str]] = {}    # data_type -> schema names
        self._global: List[str] = []                # schemas for ALL objects
        # Dublin Core ships registered for every object, as in MySRB.
        self.register(dublin_core_schema(), data_types=None)

    def register(self, schema: MetadataSchema,
                 data_types: Optional[Sequence[str]] = None) -> None:
        """Register ``schema``; bind to ``data_types`` or to all objects."""
        if schema.name in self._schemas:
            raise MetadataError(f"schema {schema.name!r} already registered")
        self._schemas[schema.name] = schema
        if data_types is None:
            self._global.append(schema.name)
        else:
            for dt in data_types:
                self._by_type.setdefault(dt, []).append(schema.name)

    def get(self, name: str) -> MetadataSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise NoSuchSchema(f"no schema {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._schemas

    def schemas_for(self, data_type: Optional[str]) -> List[MetadataSchema]:
        """Schemas applicable to an object of ``data_type``."""
        names = list(self._global)
        if data_type is not None:
            names.extend(self._by_type.get(data_type, ()))
        return [self._schemas[n] for n in names]

    def names(self) -> List[str]:
        return sorted(self._schemas)
