"""Metadata extraction methods.

The paper's fourth way of associating metadata: "extract metadata from an
extraction method associated with the data-type of the file.  The
metadata can be extracted from the object itself (eg. FITS files, HTML
files) or one can extract the metadata from a second SRB object and
associate the metadata to the first object (eg. AMICO image metadata with
XML metadata files, or DICOM image metadata from separate header files).
One can associate more than one metadata extraction method for a
data-type and the user is allowed to choose one at the time of metadata
creation."

An :class:`ExtractionRegistry` maps data types to named methods; each
method is a compiled T-language :class:`ExtractionProgram`.  Ships with
extractors for the formats the paper names (FITS, HTML, XML headers,
DICOM-style sidecar headers) plus generic ``key = value`` properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ExtractionError
from repro.tlang.extract import ExtractionProgram, Triple

# ---------------------------------------------------------------------------
# built-in extractor sources (T-language)
# ---------------------------------------------------------------------------

FITS_HEADER_SOURCE = r"""
# FITS header cards: 'KEYWORD =  value / comment' in the primary HDU.
EXTRACT LINES /^(?P<key>[A-Z][A-Z0-9_-]{0,7})\s*=\s*'?(?P<val>[^'\/]+?)'?\s*(?:\/.*)?$/ -> $key = $val
"""

HTML_META_SOURCE = r"""
# <meta name="..." content="..."> and the document <title>.
EXTRACT /<meta\s+name="(?P<name>[^"]+)"\s+content="(?P<content>[^"]*)"\s*\/?>/ -> $name = $content
EXTRACT /<title>(?P<t>[^<]*)<\/title>/ -> 'Title' = $t
"""

XML_ELEMENT_SOURCE = r"""
# Flat XML sidecar files: <tag>value</tag> pairs (AMICO-style).
EXTRACT /<(?P<tag>[A-Za-z][A-Za-z0-9_.-]*)>(?P<val>[^<]+)<\/(?P=tag)>/ -> $tag = $val
"""

DICOM_HEADER_SOURCE = r"""
# DICOM dump-style sidecar header: '(0010,0010) PatientName: DOE^JOHN'.
EXTRACT LINES /^\((?P<group>[0-9a-fA-F]{4}),(?P<elem>[0-9a-fA-F]{4})\)\s+(?P<name>[A-Za-z][A-Za-z0-9 ]*?):\s*(?P<val>.+)$/ -> $name = $val
"""

PROPERTIES_SOURCE = r"""
# Generic 'key = value' or 'key: value' properties files.
EXTRACT LINES /^\s*(?P<key>[A-Za-z][A-Za-z0-9_.-]*)\s*[:=]\s*(?P<val>.+?)\s*$/ -> $key = $val
"""


@dataclass(frozen=True)
class ExtractionMethod:
    """A named extractor bound to a data type.

    ``from_sidecar`` marks methods that read a *second* SRB object (the
    DICOM/AMICO pattern) rather than the target object itself.
    """

    name: str
    data_type: str
    program: ExtractionProgram
    from_sidecar: bool = False
    description: str = ""


class ExtractionRegistry:
    """data_type -> list of extraction methods (users choose one)."""

    def __init__(self, with_builtins: bool = True) -> None:
        self._methods: Dict[str, List[ExtractionMethod]] = {}
        if with_builtins:
            self.register("fits header", "fits image", FITS_HEADER_SOURCE,
                          description="FITS primary-HDU header cards")
            self.register("html meta", "html", HTML_META_SOURCE,
                          description="HTML <meta> tags and <title>")
            self.register("xml sidecar", "xml metadata", XML_ELEMENT_SOURCE,
                          from_sidecar=True,
                          description="flat XML sidecar (AMICO-style)")
            self.register("dicom header", "dicom image", DICOM_HEADER_SOURCE,
                          from_sidecar=True,
                          description="DICOM dump sidecar header file")
            self.register("properties", "ascii text", PROPERTIES_SOURCE,
                          description="generic key=value properties")

    def register(self, name: str, data_type: str, source: str,
                 from_sidecar: bool = False, description: str = "") -> ExtractionMethod:
        """Compile and register an extraction method for ``data_type``."""
        for m in self._methods.get(data_type, ()):
            if m.name == name:
                raise ExtractionError(
                    f"method {name!r} already registered for {data_type!r}")
        method = ExtractionMethod(
            name=name, data_type=data_type,
            program=ExtractionProgram(source),
            from_sidecar=from_sidecar, description=description)
        self._methods.setdefault(data_type, []).append(method)
        return method

    def get(self, data_type: str, name: str) -> ExtractionMethod:
        for m in self._methods.get(data_type, ()):
            if m.name == name:
                return m
        raise ExtractionError(
            f"no extraction method {name!r} for data type {data_type!r}")

    def extract(self, data_type: str, name: str,
                content: bytes | str) -> List[Triple]:
        """Run a method over document content; returns metadata triples."""
        method = self.get(data_type, name)
        triples = method.program.run(content)
        if not triples:
            # An extractor that finds nothing is suspicious but legal —
            # the caller decides; we just return the empty list.
            return []
        return triples
