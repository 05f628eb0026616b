"""Argument vectors drawn over all five commands never end in an internal error.

Each vector runs as ``python -m hamdec.cli`` in a child process with a 1 GiB
address-space limit and 10 s of CPU, and must exit with one of the documented
codes 0-4: never 70 (an unexpected exception) and never a signal (a limit
hit).  The grammar mixes 19-digit and negative integers, ``vxn`` repeats,
negative range starts, ``--window-periods auto`` and ``--out`` under a
missing directory.  Inputs that do real work stay small (full sweeps up to
p = 13, samples of a few multisets, searches with k <= 13, periods far below
the cap); sizes aimed at a cap sit far above it, so each is refused at once.
"""
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hamdec
from hamdec.cli import main

BIG = ["9223372036854775807", "9223372036854775808", "1000000000000000003",
       "9999999999999999999", "-9223372036854775808"]
INTS = st.sampled_from(["0", "1", "2", "3", "5", "-1", "-7", "1.5", *BIG])
SMALL_SETS = ["1", "1,3", "1,2,3,4", "1,2,4", "1,2,10", "4,6,9", "1,2", "3,5,7", "1,5", ""]
SET_ENTRIES = st.sampled_from(["1", "2", "3", "4", "10", "0", "-1", "x", *BIG])
LENGTH_ENTRIES = st.sampled_from(["1", "2", "3", "6", "-1", "x", "1x4", "2x6", "1x12", "3x0",
                                  "1x999999999", "9999999999999999999x2", "1x9223372036854775806"])
RANGES = st.sampled_from(["0..12", "-8..16", "-96..-48", "5..1", "abc", "0..50000000",
                          "-9223372036854775808..9223372036854775807"])


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (10, 10))


def _opt(flag, values):
    """Nothing, or ``flag`` with a drawn value."""
    return st.none() | values.map(lambda v: [flag, v])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Certificate files: valid, damaged with a huge period, not JSON, missing."""
    root = tmp_path_factory.mktemp("fuzz")
    valid = root / "valid.json"
    main(["construct", "--set", "1,2,3,4", "--out", str(valid)])
    payload = json.loads(valid.read_text())
    payload.update(period=10**18, starter_vertices=[0, 1])
    (root / "huge.json").write_text(json.dumps(payload))
    (root / "junk.json").write_text("{not json")
    return {"valid": str(valid), "huge": str(root / "huge.json"),
            "junk": str(root / "junk.json"), "missing": str(root / "missing.json"),
            "out": str(root / "out.file"), "no_dir": str(root / "no" / "dir" / "out.file"),
            "pycache": str(root / "pycache")}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["check", "construct", "verify", "buratti", "figure"]))
    certs = st.sampled_from(["valid", "huge", "junk", "missing"])
    outs = st.sampled_from(["out", "no_dir"])
    sets = st.sampled_from(SMALL_SETS) | st.lists(SET_ENTRIES, max_size=4).map(",".join)
    parts = [[command]]
    if command in ("check", "construct"):
        parts.append(["--set", draw(sets)])
        if command == "construct":
            parts.append(draw(_opt("--out", outs)))
    elif command == "verify":
        parts.append(["--cert", draw(certs)])
        parts.append(draw(_opt("--window-periods", st.just("auto") | INTS)))
    elif command == "figure":
        parts.append(["--cert", draw(certs)])
        rng = draw(RANGES)
        parts.append([f"--range={rng}"] if draw(st.booleans()) else ["--range", rng])
        parts.append(draw(_opt("--format", st.sampled_from(["svg", "dot"]))))
        parts.append(draw(_opt("--out", outs)))
    else:
        mode = draw(st.sampled_from(["search", "sweep", "sample", "both", "neither"]))
        if mode in ("search", "both"):
            parts.append(["--k", draw(st.sampled_from(["5", "9", "13", "1", "-5"]) | INTS)])
            parts.append(draw(_opt("--lengths", st.lists(LENGTH_ENTRIES, min_size=1,
                                                         max_size=4).map(",".join))))
        if mode in ("sweep", "both"):
            parts.append(["--sweep-prime", draw(st.sampled_from(["3", "5", "7", "11", "13", "9",
                                                                 "23", "53", "-7"]) | INTS)])
        if mode == "sample":  # a few searches, or a 19-digit sample the caps refuse
            small = draw(st.booleans())
            parts.append(["--sweep-prime", draw(st.sampled_from(["17", "19"] if small
                                                                else ["31", "47"])),
                          "--sample", draw(st.sampled_from(["1", "3", "0", "-1"] if small
                                                           else BIG))])
        parts.append(draw(_opt("--seed", INTS)))
        parts.append(draw(_opt("--jobs", INTS)))
    return [arg for part in parts if part for arg in part]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(argv=argvs())
@example(argv=["construct", "--set", "1,3", "--out", "no_dir"])
@example(argv=["figure", "--cert", "valid", "--range", "-8..16", "--out", "no_dir"])
def test_no_argument_vector_ends_in_an_internal_error(files, argv):
    argv = [files.get(arg, arg) for arg in argv]  # file keys become paths
    # The children need no site packages (-S) and share one bytecode cache,
    # so only the first compiles the package: each start costs about half.
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1]),
           "PYTHONPYCACHEPREFIX": files["pycache"]}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run([sys.executable, "-S", "-m", "hamdec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_child)
    assert done.returncode in {0, 1, 2, 3, 4}, (argv, done.returncode, done.stderr[-500:])
