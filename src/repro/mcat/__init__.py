"""MCAT: the Metadata Catalog behind the SRB logical name space."""

from repro.mcat.catalog import Mcat
from repro.mcat.dublin_core import (
    DUBLIN_CORE_ELEMENTS,
    MetadataSchema,
    SchemaElement,
    SchemaRegistry,
    dublin_core_schema,
)
from repro.mcat.dump import export_catalog, import_catalog
from repro.mcat.extraction import ExtractionMethod, ExtractionRegistry
from repro.mcat.query import (
    Condition,
    DisplayOnly,
    QueryPage,
    QueryResult,
    queryable_attributes,
    search,
    search_page,
)
from repro.mcat.schema import OBJECT_KINDS, PERMISSIONS
from repro.mcat.shard import McatShard, ShardedMcat

__all__ = [
    "Mcat", "McatShard", "ShardedMcat", "OBJECT_KINDS", "PERMISSIONS",
    "MetadataSchema", "SchemaElement", "SchemaRegistry",
    "dublin_core_schema", "DUBLIN_CORE_ELEMENTS",
    "ExtractionMethod", "ExtractionRegistry",
    "Condition", "DisplayOnly", "QueryPage", "QueryResult", "search",
    "search_page", "queryable_attributes",
    "export_catalog", "import_catalog",
]
