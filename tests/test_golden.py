"""Golden digests: outputs that must stay byte-identical unless changed on purpose.

``python tests/golden/regen.py`` rewrites the files; the digests must not
depend on ``PYTHONHASHSEED``, so CI runs this file under two seeds.
"""
import helpers


def _expected(path) -> dict[str, str]:
    return dict(line.split(" ") for line in path.read_text(encoding="utf-8").splitlines())


def test_constructions_match_golden_digests():
    expected = _expected(helpers.GOLDEN_CONSTRUCTIONS)
    cases = list(helpers.golden_construction_cases())
    assert [case for case, _ in cases] == list(expected), "case list differs from the golden file"
    for case, call in cases:
        assert helpers.golden_digest(call) == expected[case], f"first differing case: {case}"


def test_oracle_matches_golden_digests():
    expected = _expected(helpers.GOLDEN_ORACLE)
    cases = list(helpers.golden_oracle_cases())
    assert [case for case, _, _ in cases] == list(expected), "case list differs from the golden file"
    differing = [case for case, cert, periods in cases
                 if helpers.golden_oracle_digest(cert, periods) != expected[case]]
    assert differing == []


def test_cli_matches_golden_digests(tmp_path):
    expected = _expected(helpers.GOLDEN_CLI)
    cases = list(helpers.golden_cli_cases(tmp_path))
    assert [case for case, _ in cases] == list(expected), "case list differs from the golden file"
    differing = [case for case, argv in cases
                 if helpers.golden_cli_digest(argv, tmp_path) != expected[case]]
    assert differing == []
