"""Golden digests: outputs that must stay byte-identical unless changed on purpose.

``python tests/golden/regen.py`` rewrites the files; the digests must not
depend on ``PYTHONHASHSEED``, so CI runs this file under two seeds.
"""
import helpers


def test_constructions_match_golden_digests():
    expected = dict(line.split(" ") for line in
                    helpers.GOLDEN_CONSTRUCTIONS.read_text(encoding="utf-8").splitlines())
    cases = list(helpers.golden_construction_cases())
    assert [case for case, _ in cases] == list(expected), "case list differs from the golden file"
    for case, call in cases:
        assert helpers.golden_digest(call) == expected[case], f"first differing case: {case}"
