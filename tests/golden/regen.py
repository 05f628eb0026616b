"""Rewrite the golden digest files from the current code.

Run from the repository root as ``python tests/golden/regen.py``.  Each line
of ``constructions.txt``, ``oracle.txt`` and ``cli.txt`` is
``<case id> <sha256>``; see ``helpers.golden_construction_cases``,
``helpers.golden_oracle_cases`` and ``helpers.golden_cli_cases`` for the
cases, and ``helpers.golden_digest``, ``helpers.golden_oracle_digest`` and
``helpers.golden_cli_digest`` for what is hashed.  Run it only when an
output changes on purpose, and list the changed case ids in CHANGES.md:
for each file it prints how many case ids changed digest, are new or are
gone, and the first few of each.
"""
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import helpers  # noqa: E402


SHOWN = 5


def write(path: Path, lines: list[str]) -> None:
    before = dict(map(str.split, path.read_text(encoding="utf-8").splitlines())) \
        if path.exists() else {}
    after = dict(map(str.split, lines))
    path.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} cases to {path}")
    for kind, cases in (("changed", [c for c in after if c in before and before[c] != after[c]]),
                        ("new", [c for c in after if c not in before]),
                        ("removed", [c for c in before if c not in after])):
        if cases:
            more = f" ... and {len(cases) - SHOWN} more" if len(cases) > SHOWN else ""
            print(f"  {len(cases)} {kind}: {' '.join(cases[:SHOWN])}{more}")


def main() -> None:
    write(helpers.GOLDEN_CONSTRUCTIONS, [f"{case} {helpers.golden_digest(call)}\n"
                                         for case, call in helpers.golden_construction_cases()])
    write(helpers.GOLDEN_ORACLE, [f"{case} {helpers.golden_oracle_digest(cert, periods)}\n"
                                  for case, cert, periods in helpers.golden_oracle_cases()])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(helpers.GOLDEN_CLI, [f"{case} {helpers.golden_cli_digest(argv, root)}\n"
                                   for case, argv in helpers.golden_cli_cases(root)])


if __name__ == "__main__":
    main()
