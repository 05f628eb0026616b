import json

import pytest
from hypothesis import given, strategies as st

import helpers
from hamdec import (
    CertificateFormatError, ConnectionSet, DecompositionCertificate, VertexOverflow, construct)
from hamdec.document import from_json, to_json
from hamdec.model import INT64_MAX, INT64_MIN


def reference_json(cert: DecompositionCertificate, provenance: str) -> str:
    """The document through the standard encoder, as ``to_json`` must write it."""
    payload = {
        "schema_version": "1",
        "connection_set": list(cert.connection_set.s_plus),
        "period": cert.period,
        "starter_vertices": list(cert.starter.vertices),
        "offsets": list(cert.offsets),
        "provenance": provenance,
    }
    return json.dumps(payload, indent=2) + "\n"


int64s = st.integers(INT64_MIN, INT64_MAX) | st.integers(-3, 3)


@st.composite
def certificates(draw):
    period = draw(st.integers(1, INT64_MAX) | st.integers(1, 8))
    return DecompositionCertificate(
        draw(st.sets(st.integers(1, INT64_MAX) | st.integers(1, 5), min_size=1, max_size=6)),
        period,
        draw(st.lists(int64s, min_size=1, max_size=8, unique=True)),
        draw(st.sets(st.integers(0, period - 1), min_size=1, max_size=6)))


@given(certificates(), st.text())
def test_to_json_matches_standard_encoder(cert, provenance):
    text = to_json(cert, provenance)
    assert text == reference_json(cert, provenance)
    assert from_json(text) == (provenance, cert)


@pytest.mark.parametrize("provenance", [
    "", 'quote " and backslash \\', "line\nbreak\ttab\r", "Zé ∞ — 中文 \U0001F600", "\x00\x1f\x7f",
])
def test_to_json_edge_cases(provenance):
    for cert in (
        DecompositionCertificate([1], 1, [0], [0]),
        DecompositionCertificate([1, 3], 6, [0, -1, INT64_MIN, INT64_MAX], [0, 3]),
    ):
        text = to_json(cert, provenance)
        assert text == reference_json(cert, provenance)
        assert from_json(text) == (provenance, cert)


def test_to_json_of_constructed_certificates():
    for s in ([1], [1, 3], [1, 2, 3, 4], [1, 2, 4], [1, 2, 4, 6, 8], [1, 2, 10], [3, 5, 7]):
        cert = construct(ConnectionSet(s))
        assert to_json(cert, str(s)) == reference_json(cert, str(s))
        assert to_json(cert) == reference_json(cert, "")


def test_family_certificates_round_trip():
    for cert in helpers.family_corpus():
        assert from_json(to_json(cert, "p")) == ("p", cert)


@pytest.mark.parametrize("field", ["connection_set", "starter_vertices", "offsets"])
@pytest.mark.parametrize("entry", ["true", "1.0", '"1"', "null", "[1]"])
def test_from_json_rejects_non_integers(field, entry):
    payload = json.loads(to_json(construct(ConnectionSet([1, 3])), provenance="p"))
    payload[field].insert(1, json.loads(entry))
    with pytest.raises(CertificateFormatError) as info:
        from_json(json.dumps(payload))
    assert str(info.value) == f"expected a list of integers, got {payload[field]!r}"


MISSING = object()


@pytest.mark.parametrize("changes, error, message", [
    ({"connection_set": MISSING}, CertificateFormatError, "missing field 'connection_set'"),
    ({"period": MISSING}, CertificateFormatError, "missing field 'period'"),
    ({"period": 1.5}, CertificateFormatError, "period must be an integer"),
    ({"period": True}, CertificateFormatError, "period must be an integer"),
    ({"provenance": 3}, CertificateFormatError, "provenance must be a string"),
    # Several faults: the fields are read in document order, each list's
    # entries checked as it is read, and only then the period and provenance.
    ({"period": 1.5, "offsets": [0.5]}, CertificateFormatError,
     "expected a list of integers, got [0.5]"),
    ({"starter_vertices": [0, 1.0, 4], "offsets": MISSING}, CertificateFormatError,
     "expected a list of integers, got [0, 1.0, 4]"),
    ({"connection_set": [1, True], "period": MISSING}, CertificateFormatError,
     "expected a list of integers, got [1, True]"),
    ({"offsets": MISSING, "provenance": 3}, CertificateFormatError, "missing field 'offsets'"),
    ({"period": 1.5, "provenance": 3}, CertificateFormatError, "period must be an integer"),
    # The document's checks come before the certificate's own, and the
    # certificate checks its starter before its offsets.
    ({"starter_vertices": [0, 2**70], "provenance": 3}, CertificateFormatError,
     "provenance must be a string"),
    ({"starter_vertices": [0, 2**70], "offsets": [7]}, VertexOverflow,
     f"vertex {2**70} outside the signed 64-bit range"),
])
def test_from_json_refusal_order(changes, error, message):
    payload = json.loads(to_json(construct(ConnectionSet([1, 3])), provenance="p"))
    for field, value in changes.items():
        if value is MISSING:
            del payload[field]
        else:
            payload[field] = value
    with pytest.raises(error) as info:
        from_json(json.dumps(payload))
    assert str(info.value) == message
