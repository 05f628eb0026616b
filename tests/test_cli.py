import hashlib
import json
import os
import resource
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hamdec
import helpers
from hamdec import (
    ConnectionSet,
    HamdecError,
    cli,
    construct,
    find_path,
    sweep,
    verify_certificate,
)
from hamdec.cli import main
from hamdec.document import from_json, to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_not_admissible_exit_1(self, capsys):
        code, out, _ = run(capsys, "check", "--set", "1,2")
        assert code == 1
        assert "admissible: no" in out

    def test_admissible_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "--set", "1,3")
        assert code == 0
        assert "admissible: yes" in out

    def test_zero_generator_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "--set", "0,3")
        assert code == 2

    def test_garbage_exit_2(self, capsys):
        code, _, _ = run(capsys, "check", "--set", "1,x")
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "construct"])
    @pytest.mark.parametrize("s, message", [
        ("", "connection set must contain at least one generator"),
        ("0,1", "generator magnitudes must be positive, got 0")])
    def test_empty_or_non_positive_set_exit_2(self, capsys, command, s, message):
        assert run(capsys, command, "--set", s) == (2, "", f"error: {message}\n")


class TestConstruct:
    def test_consecutive_4(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, out, _ = run(capsys, "construct", "--set", "1,2,3,4", "--out", str(out_file))
        assert code == 0
        assert "[0, -1, 1, 5, 2, 3, 6, 4, 8]" in out
        payload = json.loads(out_file.read_text())
        assert payload["starter_vertices"] == [0, -1, 1, 5, 2, 3, 6, 4, 8]
        assert payload["schema_version"] == "1"

    def test_consecutive_1001(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, out, _ = run(capsys, "construct", "--set", ",".join(map(str, range(1, 1002))),
                           "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["period"] == 2002

    def test_cyclic_lift_1001(self, capsys, tmp_path):
        # S+ = {1 + 1001 i} u {1001}: the Z_1001 search needs a path of 1001
        # vertices, deeper than the default recursion limit.
        s_plus = [1 + 1001 * i for i in range(1000)] + [1001]
        out_file = tmp_path / "cert.json"
        code, _, _ = run(capsys, "construct", "--set", ",".join(map(str, s_plus)),
                         "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["period"] == 2002
        _, cert = from_json(out_file.read_text())
        assert verify_certificate(cert).accepted

    def test_skip_k(self, capsys):
        code, out, _ = run(capsys, "construct", "--set", "1,2,4")
        assert code == 0
        assert "[0, 1, -1, 3]" in out

    def test_unsupported_exit_3(self, capsys):
        code, out, _ = run(capsys, "construct", "--set", "4,6,9")
        assert code == 3

    def test_exhausted_lift_exit_3(self, capsys):
        # The set has the lift's shape, k = 9, but no Z_9 path has its lengths.
        assert run(capsys, "construct", "--set", "1,3,6,9,12,15,21,24,30") == (
            3, "unsupported: no known construction for S+={1, 3, 6, 9, 12, 15, 21, 24, 30}; "
               "families tried: consecutive, skip-k, even-run, one-two-c, four-valent, "
               "cyclic-lift (search exhausted)\n", "")

    # The first two starters have negative vertices.
    @pytest.mark.parametrize("s", ["1,2,3,4", "1,2,3,4,5,7", "1,5", "1,2,10", "3,5,7"])
    def test_starter_line_matches_join(self, capsys, s):
        code, out, _ = run(capsys, "construct", "--set", s)
        assert code == 0
        vertices = construct(ConnectionSet([int(x) for x in s.split(",")])).starter.vertices
        assert f"starter: [{', '.join(map(str, vertices))}]\n" in out

    @pytest.mark.parametrize("s", ["1,99999999", "9223372036854775807,1", "1,2,1000000000000"])
    def test_period_above_cap_exit_2(self, capsys, s):
        started = time.perf_counter()
        code, out, err = run(capsys, "construct", "--set", s)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "more than the cap of" in err
        assert time.perf_counter() - started < 0.5

    def test_not_admissible_exit_1(self, capsys):
        code, out, _ = run(capsys, "construct", "--set", "1,2")
        assert code == 1

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "c.json"
        code, out, err = run(capsys, "construct", "--set", "1,2,3,4", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_closed_stdout_still_writes_the_file(self, capsys, tmp_path):
        # The file is written before the summary, so a reader that has gone
        # away (``| head -c 10``) cannot stop it.  The starter line is larger
        # than a pipe's buffer, so the write fails inside the command, not at
        # the final flush.
        s = ",".join(map(str, [1 + 1001 * i for i in range(1000)] + [1001]))
        expected = tmp_path / "expected.json"
        assert run(capsys, "construct", "--set", s, "--out", str(expected))[0] == 0
        path = tmp_path / "c.json"
        assert closed_stdout("construct", "--set", s, "--out", str(path))[:2] == (141, b"")
        assert path.read_bytes() == expected.read_bytes()


class TestVerify:
    def make_cert_file(self, tmp_path, s="1,2,3,4"):
        cert = construct(ConnectionSet([int(x) for x in s.split(",")]))
        path = tmp_path / "cert.json"
        path.write_text(to_json(cert, provenance="test"))
        return path, cert

    def test_pipeline_exit_0(self, capsys, tmp_path):
        path, _ = self.make_cert_file(tmp_path)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0
        assert "exact check: accepted" in out
        assert "window oracle" in out

    def test_broken_starter_exit_1(self, capsys, tmp_path):
        path, cert = self.make_cert_file(tmp_path)
        payload = json.loads(path.read_text())
        del payload["starter_vertices"][3]  # splice a vertex out
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert "PathBroken" in out

    def test_repeated_vertex_reports_path_broken(self, capsys, tmp_path):
        path, cert = self.make_cert_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["starter_vertices"][2] = payload["starter_vertices"][1]
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert "PathBroken" in out

    def test_truncated_json_exit_2(self, capsys, tmp_path):
        path, _ = self.make_cert_file(tmp_path)
        path.write_text(path.read_text()[:40])
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 2

    def test_unknown_schema_exit_2(self, capsys, tmp_path):
        path, _ = self.make_cert_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "99"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", "--cert", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("command", [["verify"], ["figure", "--range", "0..16"]])
    def test_malformed_certificate_one_stderr_line(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, out, err = run(capsys, *command, "--cert", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1

    def test_huge_window_exit_0(self, capsys, tmp_path):
        # The oracle's work does not grow with the window.
        path, _ = self.make_cert_file(tmp_path)
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--cert", str(path), "--window-periods", "2000000")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (0, "exact check: accepted\n"
                                  "window oracle (2000000 periods): accepted\n")

    def test_window_periods_auto_checks_a_long_edge_at_3(self, capsys, tmp_path):
        # Period 26 and edges up to 144 long: neither auto's 3 periods nor the
        # default 5 hold the longest edges, and both check them by class.
        path, _ = self.make_cert_file(tmp_path, ",".join(map(str, [1 + 13 * i for i in range(12)]
                                                             + [13])))
        code, out, _ = run(capsys, "verify", "--cert", str(path), "--window-periods", "auto")
        assert (code, out) == (0, "exact check: accepted\nwindow oracle (3 periods): accepted\n")
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert (code, out) == (0, "exact check: accepted\nwindow oracle (5 periods): accepted\n")

    def test_window_periods_auto_over_the_cap_is_not_run(self, capsys, tmp_path):
        # Consecutive 2237: 2237 offsets times 4474 starter edges.
        path, _ = self.make_cert_file(tmp_path, ",".join(map(str, range(1, 2238))))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--cert", str(path), "--window-periods", "auto")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        exact, oracle = out.splitlines()
        assert exact == "exact check: accepted"
        assert oracle == (f"window oracle: not run ({2237 * 4474} progressions, "
                          f"more than the cap of {hamdec.verifier.MAX_PROGRESSIONS})")

    def test_window_periods_must_be_int_or_auto(self, capsys, tmp_path):
        path, _ = self.make_cert_file(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["verify", "--cert", str(path), "--window-periods", "five"])
        assert info.value.code == 2
        assert "expected an integer or 'auto', got 'five'" in capsys.readouterr().err

    @pytest.mark.parametrize("periods", ["2", "0", "-1"])
    def test_window_periods_below_3_refused_before_the_exact_check(self, capsys, tmp_path,
                                                                   periods):
        path, _ = self.make_cert_file(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["verify", "--cert", str(path), "--window-periods", periods])
        out = capsys.readouterr()
        assert (info.value.code, out.out) == (2, "")
        assert f"argument --window-periods: periods must be at least 3, got '{periods}'" in out.err

    def test_window_periods_3_is_accepted(self, capsys, tmp_path):
        path, _ = self.make_cert_file(tmp_path)
        code, out, _ = run(capsys, "verify", "--cert", str(path), "--window-periods", "3")
        assert (code, out) == (0, "exact check: accepted\nwindow oracle (3 periods): accepted\n")


class TestBuratti:
    def test_k9_shorthand_exhausted_exit_4(self, capsys):
        code, out, _ = run(capsys, "buratti", "--k", "9", "--lengths", "3×8")
        assert code == 4
        assert "exhausted" in out

    def test_ascii_shorthand(self, capsys):
        code, out, _ = run(capsys, "buratti", "--k", "9", "--lengths", "3x8")
        assert code == 4

    def test_walecki_witness(self, capsys):
        code, out, _ = run(capsys, "buratti", "--k", "5", "--lengths", "1,1,2,2")
        assert code == 0
        assert "[0, 1, 4, 2, 3]" in out

    def test_size_mismatch_exit_2(self, capsys):
        code, _, _ = run(capsys, "buratti", "--k", "5", "--lengths", "1,1")
        assert code == 2

    def test_multiset_size_boundary(self, capsys):
        code, out, _ = run(capsys, "buratti", "--k", "3", "--lengths", "1x2")
        assert (code, out) == (0, "found: [0, 1, 2]  (nodes expanded: 2)\n")
        code, out, _ = run(capsys, "buratti", "--k", "3", "--lengths", "1x3")
        assert (code, out) == (2, "bad multiset: multiset has 3 lengths, expected exactly 2\n")

    @pytest.mark.parametrize("lengths", ["1x200000000", "1x1000000000000", f"1,1x{10**30}"])
    def test_huge_repeat_exit_2_before_expanding(self, capsys, lengths):
        started = time.perf_counter()
        code, out, err = run(capsys, "buratti", "--k", "3", "--lengths", lengths)
        assert code == 2
        assert out.startswith("bad multiset: multiset has ") and err == ""
        assert time.perf_counter() - started < 0.5

    @given(st.integers(2, 9), st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 4),
                                                 st.booleans()), min_size=1, max_size=6))
    @example(3, [(1, 0, True)])
    @example(3, [(5, 0, True), (7, 1, False), (5, 1, False)])
    @settings(max_examples=300, deadline=None)
    def test_counts_match_expanded_lengths(self, k, parts):
        # The counts give the search and its errors exactly what the
        # expanded list of lengths gave it, and an empty multiset is refused.
        if any(v < 0 and repeat for v, _, repeat in parts):
            return  # '-vxn', which neither form parses
        text = ",".join(f"{v}x{n}" if repeat else str(v) for v, n, repeat in parts)
        expanded = [v for v, n, repeat in parts for _ in range(n if repeat else 1)]

        def outcome(parse):
            try:
                found = find_path(k, parse())
            except (ValueError, HamdecError) as exc:
                return type(exc), str(exc)
            return found.witness, found.nodes_expanded

        def expand():
            if not expanded:
                raise ValueError("length multiset is empty")
            return expanded
        assert outcome(lambda: cli._parse_lengths(text)) == outcome(expand)

    def test_sweep_7(self, capsys):
        code, out, _ = run(capsys, "buratti", "--sweep-prime", "7")
        assert code == 0
        lines = out.strip().splitlines()
        records = [l for l in lines if "\t" in l]
        assert len(records) == 28
        assert all(len(l.split("\t")) == 4 for l in records)
        assert "0 failures" in lines[-1]

    def test_sweep_not_prime_exit_2(self, capsys):
        code, _, _ = run(capsys, "buratti", "--sweep-prime", "9")
        assert code == 2

    def test_requires_one_mode(self, capsys):
        code, _, err = run(capsys, "buratti", "--k", "5")
        assert code == 2

    def test_crash_exit_70(self, capsys, monkeypatch):
        # An unexpected exception must not read as the negative result of
        # exit code 1.
        def crash(k, lengths):
            raise RuntimeError("boom")
        monkeypatch.setattr("hamdec.cli.find_path", crash)
        code, _, err = run(capsys, "buratti", "--k", "1001", "--lengths", "1x1000")
        assert code == 70
        assert err.startswith("internal error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--sweep-prime", "53", "--sample", "1"],
        ["--sweep-prime", "1000000000000000003"],
        ["--sweep-prime", "23"],
        ["--sweep-prime", "31", "--sample", "2000001"],
        ["--k", "1000000000", "--lengths", "1x999999999"]])
    def test_unbounded_requests_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "buratti", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert (out + err).count("\n") == 1
        assert "cap" in out + err

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_1_exit_2(self, capsys, sample):
        # An empty sweep would read as clean, a negative one failed in random.sample.
        code, out, err = run(capsys, "buratti", "--sweep-prime", "7", "--sample", sample)
        assert (code, out, err) == (2, "", f"error: sample must be at least 1, got {sample}\n")

    def test_sample_of_1_exit_0(self, capsys):
        code, out, _ = run(capsys, "buratti", "--sweep-prime", "7", "--sample", "1")
        assert code == 0
        assert "sweep p=7: 1 of 28 multisets, 0 failures" in out

    def test_long_path_exit_0(self, capsys):
        code, out, _ = run(capsys, "buratti", "--k", "1001", "--lengths", "1x1000")
        assert code == 0
        assert str(list(range(1001)))[1:-1] in out


class TestFigure:
    @pytest.fixture()
    def cert_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(capsys, "construct", "--set", "1,3", "--out", str(path))
        return path

    def test_svg_deterministic(self, capsys, tmp_path, cert_file):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "figure", "--cert", str(cert_file), "--range", "0..12",
                   "--format", "svg", "--out", str(a))[0] == 0
        assert run(capsys, "figure", "--cert", str(cert_file), "--range", "0..12",
                   "--format", "svg", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_has_one_class_per_path(self, capsys, cert_file):
        code, out, _ = run(capsys, "figure", "--cert", str(cert_file),
                           "--range", "0..12", "--format", "svg")
        assert code == 0
        assert 'class="h0"' in out and 'class="h1"' in out
        assert 'class="h2"' not in out

    def test_dot_output(self, capsys, cert_file):
        code, out, _ = run(capsys, "figure", "--cert", str(cert_file),
                           "--range=-6..6", "--format", "dot")
        assert code == 0
        assert out.startswith("graph decomposition {")
        assert '"-6" [pos="0,0!"];' in out

    def test_trivial_certificate_single_stroke_class(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "construct", "--set", "1", "--out", str(path))
        code, out, _ = run(capsys, "figure", "--cert", str(path),
                           "--range", "0..8", "--format", "svg")
        assert code == 0
        assert 'class="h0"' in out and 'class="h1"' not in out

    def test_range_smaller_than_period_exit_2(self, capsys, cert_file):
        code, _, _ = run(capsys, "figure", "--cert", str(cert_file),
                         "--range", "0..2", "--format", "svg")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["svg", "dot"])
    def test_range_shorter_than_period_message(self, capsys, cert_file, fmt):
        # The period is 6: 0..5 falls one short, 0..6 covers it.
        assert run(capsys, "figure", "--cert", str(cert_file), "--range", "0..5",
                   "--format", fmt) == (2, "", "error: range 0..5 is smaller than one period (6)\n")
        assert run(capsys, "figure", "--cert", str(cert_file), "--range", "0..6",
                   "--format", fmt)[0] == 0

    def test_repeated_vertex_exit_2(self, capsys, cert_file):
        # figure draws damaged certificates, but a starter that is not a path is unusable.
        payload = json.loads(cert_file.read_text())
        payload["starter_vertices"][2] = payload["starter_vertices"][1]
        cert_file.write_text(json.dumps(payload))
        assert run(capsys, "figure", "--cert", str(cert_file), "--range", "0..12") == \
            (2, "", "error: vertex 1 occurs more than once\n")

    def test_unwritable_out_exit_2(self, capsys, tmp_path, cert_file):
        path = tmp_path / "missing" / "f.svg"
        code, out, err = run(capsys, "figure", "--cert", str(cert_file), "--range", "0..12",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_bad_range_exit_2(self, capsys, cert_file):
        code, _, _ = run(capsys, "figure", "--cert", str(cert_file),
                         "--range", "abc", "--format", "svg")
        assert code == 2

    def test_huge_range_exit_2(self, capsys, cert_file):
        start = time.perf_counter()
        code, out, err = run(capsys, "figure", "--cert", str(cert_file), "--range=0..50000000")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "more than the cap" in err

    def test_negative_range_start_in_both_forms(self, capsys, cert_file):
        for fmt in ("svg", "dot"):
            joined = run(capsys, "figure", "--cert", str(cert_file), "--range=-48..96",
                         "--format", fmt)
            separate = run(capsys, "figure", "--cert", str(cert_file), "--range", "-48..96",
                           "--format", fmt)
            assert joined[0] == 0
            assert separate == joined
        code, _, err = run(capsys, "figure", "--cert", str(cert_file), "--range", "-96..-48")
        assert code == 0 and err == ""

    def test_huge_vertex_range_exit_2(self, capsys, cert_file):
        # A damaged starter with one edge and a huge period passes the edge
        # bound; the figure would still draw one vertex per integer.
        payload = json.loads(cert_file.read_text())
        payload.update(period=10**9, starter_vertices=[0, 1])
        cert_file.write_text(json.dumps(payload))
        start = time.perf_counter()
        code, out, err = run(capsys, "figure", "--cert", str(cert_file), "--range=0..1000000000")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert "1000000001 vertices, more than the cap" in err


def fresh_process(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "hamdec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def closed_stdout(*argv, unbuffered=False):
    """Exit code, stderr and seconds of a fresh CLI process whose stdout reader has gone."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(hamdec.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "hamdec.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    return done.returncode, done.stderr, time.perf_counter() - started


@pytest.mark.parametrize("argv", [
    ["check", "--set", "1,2,4"],
    ["construct", "--set", "1,2,3,4", "--out", "{cert}"],
    ["verify", "--cert", "{cert}"],
    ["buratti", "--k", "5", "--lengths", "1,1,2,2"],
    ["figure", "--cert", "{cert}", "--range", "0..16"],
    pytest.param(["--help"], id="help"),
    pytest.param(["construct", "--help"], id="construct-help"),
    pytest.param(["buratti", "--help"], id="buratti-help"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141(tmp_path, argv, unbuffered):
    # Buffered, output this short meets the closed pipe at the final flush;
    # unbuffered, at the first print.  Neither gives a traceback, an internal
    # error or exit 120, and neither does help, which argparse would print
    # before any command runs.
    cert = tmp_path / "cert.json"
    cert.write_text(to_json(construct(ConnectionSet([1, 2, 3, 4])), provenance="test"))
    code, err, seconds = closed_stdout(*(arg.format(cert=cert) for arg in argv),
                                       unbuffered=unbuffered)
    assert (code, err) == (141, b"")
    assert seconds < 0.5


def test_closed_stdout_keeps_usage_errors():
    # A usage error writes only to stderr, so a closed stdout changes nothing.
    code, err, _ = closed_stdout("check")
    assert code == 2
    assert err.decode().startswith("usage: hamdec check [-h] --set S\n")
    assert "error: the following arguments are required: --set" in err.decode()


def run_verify_in_128_mib(tmp_path, cert):
    path = tmp_path / "cert.json"
    path.write_text(to_json(cert))
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "hamdec.cli", "verify", "--cert", str(path)],
                          env=env, preexec_fn=helpers.limit_address_space_128_mib,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("s_plus", [
    pytest.param((31247, 31249), id="4-valent-31247-31249"),
    pytest.param(tuple(range(1, 250)), id="consecutive-249"),
])
def test_window_oracle_at_the_cap_runs_in_128_mib(tmp_path, s_plus):
    # 4-valent (31247, 31249) and consecutive 249, 124,996 and 124,002
    # progressions: the load, the exact check and the oracle run in a fresh
    # process limited to 128 MiB of address space.
    done = run_verify_in_128_mib(tmp_path, construct(ConnectionSet(s_plus)))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "exact check: accepted\nwindow oracle (5 periods): accepted\n"


@pytest.mark.parametrize("s_plus, next_s_plus", [
    pytest.param(tuple(range(1, 2237)), tuple(range(1, 2238)), id="consecutive-2236"),
    pytest.param((*range(1, 3162), 3163), (*range(1, 3163), 3164), id="skip-k-3162"),
])
def test_window_oracle_at_max_progressions_runs_in_128_mib(tmp_path, s_plus, next_s_plus):
    # The largest consecutive and skip-k certificates under the oracle's cap,
    # whose next family members are over it, run as above.
    cert, after = construct(ConnectionSet(s_plus)), construct(ConnectionSet(next_s_plus))
    cap = hamdec.verifier.MAX_PROGRESSIONS
    assert len(cert.offsets) * cert.starter.edge_count <= cap
    assert len(after.offsets) * after.starter.edge_count > cap
    done = run_verify_in_128_mib(tmp_path, cert)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "exact check: accepted\nwindow oracle (5 periods): accepted\n"


# ``hamdec verify``, with the oracle timed and the process's peak RSS, in KiB,
# read before and after it.
TIMED_VERIFY = textwrap.dedent("""
    import resource, sys, time
    from hamdec import cli
    oracle = cli.window_oracle
    def timed(cert, periods):
        peak, start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.perf_counter()
        check = oracle(cert, periods)
        print(time.perf_counter() - start, peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              file=sys.stderr)
        return check
    cli.window_oracle = timed
    sys.exit(cli.main(["verify", "--cert", sys.argv[1]]))
    """)


def test_verify_at_the_period_cap_runs_the_oracle(tmp_path):
    # 4-valent (1, 499999), of period 999,998 and 1,999,996 progressions:
    # ``verify`` exits 0 in 256 MiB of address space, where it needs about
    # 168 MiB, and the oracle takes 0.7 s and sets no new peak RSS; the exact
    # check sets it, at about 162 MB (Python 3.11).
    path = tmp_path / "cert.json"
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "hamdec.cli", "construct", "--set", "1,499999",
                    "--out", str(path)], env=env, capture_output=True, timeout=60, check=True)
    done = subprocess.run(
        [sys.executable, "-c", TIMED_VERIFY, str(path)], env=env, capture_output=True, text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "exact check: accepted\nwindow oracle (5 periods): accepted\n"
    seconds, before, after = map(float, done.stderr.split())
    assert seconds < 2
    assert after == before


def test_witness_at_the_search_cap_prints_in_128_mib():
    # The search for 1x999999 peaks near 73 MB RSS and runs in 80 MiB of
    # address space; a witness built as one string before printing took
    # 129.5 MB and needed 136 MiB.  The printed bytes stay the same.
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "hamdec.cli", "buratti", "--k", "1000000",
                           "--lengths", "1x999999"],
                          env=env, preexec_fn=helpers.limit_address_space_128_mib,
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    expected = hashlib.sha256(b"found: [")
    for i in range(0, 10**6, 1000):
        expected.update(", ".join(map(str, range(i, i + 1000))).encode())
        expected.update(b", " if i + 1000 < 10**6 else b"]  (nodes expanded: 999999)\n")
    assert hashlib.sha256(done.stdout).hexdigest() == expected.hexdigest()


class TestParserReuse:
    """The parser is built once per process; each call must still start clean."""

    @pytest.mark.parametrize("bad", [["check"], ["figure", "--range"], ["nope"],
                                     ["buratti", "--jobs", "x"]])
    def test_usage_error_then_valid_call(self, capsys, tmp_path, bad):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        capsys.readouterr()
        for argv in (["check", "--set", "1,3"], ["buratti", "--k", "5", "--lengths", "1,1,2,2"]):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == fresh_process(*argv)

    def test_jobs_default_is_1_and_flag_reaches_sweep(self, capsys, monkeypatch):
        seen = []

        def spy(p, **kwargs):
            seen.append(kwargs["jobs"])
            return sweep(p, **{**kwargs, "jobs": 1})  # no pool in the test
        monkeypatch.setattr("hamdec.cli.sweep", spy)
        assert run(capsys, "buratti", "--sweep-prime", "5")[0] == 0
        assert run(capsys, "buratti", "--sweep-prime", "5", "--jobs", "2")[0] == 0
        assert run(capsys, "buratti", "--sweep-prime", "5")[0] == 0
        assert seen == [1, 2, 1]


def test_cli_import_loads_no_dataclasses_inspect_or_process_pool():
    # Each CLI call pays a fresh import: these modules cost it most of its
    # time (dataclasses with inspect) or are needed by pooled sweeps alone.
    code = "import sys, hamdec.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "hamdec.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "concurrent.futures"})


class TestDocumentRoundTrip:
    def test_round_trip_certificates(self):
        for s in ([1, 3], [1, 2, 3, 4], [1, 2, 4], [1, 2, 4, 6, 8], [1, 2, 10], [3, 5, 7]):
            cert = construct(ConnectionSet(s))
            assert from_json(to_json(cert, provenance="p")) == ("p", cert)
