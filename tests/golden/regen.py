"""Rewrite the golden digest files from the current code.

Run from the repository root as ``python tests/golden/regen.py``.  Each line
of ``constructions.txt`` is ``<case id> <sha256>``; see
``helpers.golden_construction_cases`` for the cases and
``helpers.golden_digest`` for what is hashed.  Run it only when an output
changes on purpose, and list the changed case ids in CHANGES.md.
"""
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import helpers  # noqa: E402


def main() -> None:
    lines = [f"{case} {helpers.golden_digest(call)}\n"
             for case, call in helpers.golden_construction_cases()]
    helpers.GOLDEN_CONSTRUCTIONS.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} cases to {helpers.GOLDEN_CONSTRUCTIONS}")


if __name__ == "__main__":
    main()
