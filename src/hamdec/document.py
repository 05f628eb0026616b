"""JSON persistence for decomposition certificates.

The on-disk format is a single human-inspectable JSON object with an explicit
schema version; unknown versions are rejected instead of guessed at.
"""
from __future__ import annotations

import dataclasses
import json

from .errors import CertificateFormatError
from .model import ConnectionSet, DecompositionCertificate, FinitePath

SCHEMA_VERSION = "1"


@dataclasses.dataclass(frozen=True)
class CertificateDocument:
    schema_version: str
    connection_set: tuple[int, ...]
    period: int
    starter_vertices: tuple[int, ...]
    offsets: tuple[int, ...]
    provenance: str = ""

    @classmethod
    def from_certificate(cls, cert: DecompositionCertificate,
                         provenance: str = "") -> "CertificateDocument":
        return cls(
            schema_version=SCHEMA_VERSION,
            connection_set=cert.connection_set.s_plus,
            period=cert.period,
            starter_vertices=cert.starter.vertices,
            offsets=cert.offsets,
            provenance=provenance,
        )

    def to_certificate(self) -> DecompositionCertificate:
        return DecompositionCertificate(
            connection_set=ConnectionSet(self.connection_set),
            period=self.period,
            starter=FinitePath(self.starter_vertices),
            offsets=self.offsets,
        )

    def to_json(self) -> str:
        """The document as ``json.dumps(payload, indent=2) + "\\n"``, byte for byte.

        The payload holds the fields in declaration order, the tuples as lists.
        ``indent`` selects the pure-Python encoder, so each list is written by
        the C encoder instead, with the indented line break as its item
        separator; that is exact for lists of numbers, strings, booleans and
        nulls, and the list fields hold ints.
        """
        return (f'{{\n  "schema_version": {json.dumps(self.schema_version)},\n'
                f'  "connection_set": {_json_list(self.connection_set)},\n'
                f'  "period": {json.dumps(self.period)},\n'
                f'  "starter_vertices": {_json_list(self.starter_vertices)},\n'
                f'  "offsets": {_json_list(self.offsets)},\n'
                f'  "provenance": {json.dumps(self.provenance)}\n}}\n')

    @classmethod
    def from_json(cls, text: str) -> "CertificateDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateFormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CertificateFormatError("certificate document must be a JSON object")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CertificateFormatError(
                f"unknown schema_version {version!r}, expected {SCHEMA_VERSION!r}")
        try:
            connection_set = _int_list(payload["connection_set"])
            period = payload["period"]
            starter = _int_list(payload["starter_vertices"])
            offsets = _int_list(payload["offsets"])
        except KeyError as exc:
            raise CertificateFormatError(f"missing field {exc.args[0]!r}") from exc
        if not isinstance(period, int) or isinstance(period, bool):
            raise CertificateFormatError("period must be an integer")
        provenance = payload.get("provenance", "")
        if not isinstance(provenance, str):
            raise CertificateFormatError("provenance must be a string")
        return cls(
            schema_version=version,
            connection_set=connection_set,
            period=period,
            starter_vertices=starter,
            offsets=offsets,
            provenance=provenance,
        )


def _json_list(values) -> str:
    """A list of scalars as ``json.dumps`` writes it at indent 2, one level deep."""
    values = list(values)
    if not values:
        return "[]"
    return "[\n    " + json.dumps(values, separators=(",\n    ", ": "))[1:-1] + "\n  ]"


def _int_list(value) -> tuple[int, ...]:
    # JSON gives int, bool, float, str, list, dict or None: only the exact
    # type int is an integer.
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise CertificateFormatError(f"expected a list of integers, got {value!r}")
    return tuple(value)


def load_certificate(path: str) -> tuple[CertificateDocument, DecompositionCertificate]:
    """Read a document from disk; format errors raise CertificateFormatError.

    A starter that repeats a vertex is no path and raises RepeatedVertex.
    ``hamdec verify`` reports it as the rejection ``PathBroken``; every other
    command treats it as unusable input.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CertificateFormatError(f"cannot read {path}: {exc}") from exc
    doc = CertificateDocument.from_json(text)
    return doc, doc.to_certificate()
