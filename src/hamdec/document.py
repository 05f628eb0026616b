"""JSON persistence for decomposition certificates.

The on-disk format is a single human-inspectable JSON object with an explicit
schema version; unknown versions are rejected instead of guessed at.  Next to
the certificate's fields the document carries a free-text provenance.
"""
from __future__ import annotations

import json

from .errors import CertificateFormatError
from .model import ConnectionSet, DecompositionCertificate, FinitePath

SCHEMA_VERSION = "1"


def to_json(cert: DecompositionCertificate, provenance: str = "") -> str:
    """The document as ``json.dumps(payload, indent=2) + "\\n"``, byte for byte.

    The payload holds ``schema_version``, ``connection_set``, ``period``,
    ``starter_vertices``, ``offsets`` and ``provenance``, in that order, the
    tuples as lists.  ``indent`` selects the pure-Python encoder, so each list
    of ints is joined directly instead, with the indented line break as its
    item separator.
    """
    return (f'{{\n  "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
            f'  "connection_set": {_json_list(cert.connection_set.s_plus)},\n'
            f'  "period": {json.dumps(cert.period)},\n'
            f'  "starter_vertices": {_json_list(cert.starter.vertices)},\n'
            f'  "offsets": {_json_list(cert.offsets)},\n'
            f'  "provenance": {json.dumps(provenance)}\n}}\n')


def from_json(text: str) -> tuple[str, DecompositionCertificate]:
    """The provenance and the certificate of a document.

    Format errors raise CertificateFormatError; the certificate's own checks
    then raise as its constructors do.
    """
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
    return provenance, DecompositionCertificate(
        ConnectionSet(connection_set), period, FinitePath(starter), offsets)


def _json_list(values: tuple[int, ...]) -> str:
    """A non-empty tuple of ints as ``json.dumps`` writes it at indent 2, one level deep.

    json writes an int with ``int.__repr__``, so joining those is exact.
    """
    return "[\n    " + ",\n    ".join(map(int.__repr__, values)) + "\n  ]"


def _int_list(value) -> tuple[int, ...]:
    # JSON gives int, bool, float, str, list, dict or None: only the exact
    # type int is an integer.
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise CertificateFormatError(f"expected a list of integers, got {value!r}")
    return tuple(value)


def load_certificate(path: str) -> tuple[str, DecompositionCertificate]:
    """The provenance and the certificate of a document on disk, as ``from_json`` reads them.

    A starter that repeats a vertex is no path and raises RepeatedVertex.
    ``hamdec verify`` reports it as the rejection ``PathBroken``; every other
    command treats it as unusable input.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CertificateFormatError(f"cannot read {path}: {exc}") from exc
    return from_json(text)
