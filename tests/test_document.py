import json

import pytest
from hypothesis import given, strategies as st

from hamdec import CertificateDocument, CertificateFormatError, ConnectionSet, construct
from hamdec.model import INT64_MAX, INT64_MIN


def reference_json(doc: CertificateDocument) -> str:
    """The document through the standard encoder, as ``to_json`` must write it."""
    payload = {
        "schema_version": doc.schema_version,
        "connection_set": list(doc.connection_set),
        "period": doc.period,
        "starter_vertices": list(doc.starter_vertices),
        "offsets": list(doc.offsets),
        "provenance": doc.provenance,
    }
    return json.dumps(payload, indent=2) + "\n"


int_lists = st.lists(st.integers(INT64_MIN, INT64_MAX) | st.integers(-3, 3), max_size=8).map(tuple)
# A hand-built document may hold any scalar; the standard encoder sets the bytes.
scalars = st.booleans() | st.none() | st.floats() | st.text(max_size=5) | st.integers()
scalar_lists = int_lists | st.lists(scalars, max_size=6).map(tuple)


@given(st.text(), scalar_lists, scalars, scalar_lists, scalar_lists, st.text())
def test_to_json_matches_standard_encoder(version, s_plus, period, starter, offsets, provenance):
    doc = CertificateDocument(version, s_plus, period, starter, offsets, provenance)
    assert doc.to_json() == reference_json(doc)


@pytest.mark.parametrize("provenance", [
    "", 'quote " and backslash \\', "line\nbreak\ttab\r", "Zé ∞ — 中文 \U0001F600", "\x00\x1f\x7f",
])
def test_to_json_edge_cases(provenance):
    for doc in (
        CertificateDocument("1", (), 1, (), (), provenance),
        CertificateDocument("1", (1, 3), 6, (0, -1, INT64_MIN, INT64_MAX), (0, 3), provenance),
    ):
        text = doc.to_json()
        assert text == reference_json(doc)
        assert CertificateDocument.from_json(text) == doc


def test_to_json_of_constructed_certificates():
    for s in ([1], [1, 3], [1, 2, 3, 4], [1, 2, 4], [1, 2, 4, 6, 8], [1, 2, 10], [3, 5, 7]):
        doc = CertificateDocument.from_certificate(construct(ConnectionSet(s)), provenance=str(s))
        assert doc.to_json() == reference_json(doc)


@pytest.mark.parametrize("field", ["connection_set", "starter_vertices", "offsets"])
@pytest.mark.parametrize("entry", ["true", "1.0", '"1"', "null", "[1]"])
def test_from_json_rejects_non_integers(field, entry):
    doc = CertificateDocument.from_certificate(construct(ConnectionSet([1, 3])), provenance="p")
    payload = json.loads(doc.to_json())
    payload[field].insert(1, json.loads(entry))
    with pytest.raises(CertificateFormatError) as info:
        CertificateDocument.from_json(json.dumps(payload))
    assert str(info.value) == f"expected a list of integers, got {payload[field]!r}"
