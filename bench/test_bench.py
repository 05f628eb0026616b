"""Self-test of the benchmark at tiny sizes: every workload, every known-answer check.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

It takes a few seconds and keeps the harness from rotting: a workload that no
longer runs, a check that no longer catches a wrong answer, or a metric that
goes missing from the result line fails here first.
"""
from __future__ import annotations

import io
import itertools
import json
import os
import random
import types
from collections import defaultdict
from contextlib import redirect_stdout

import pytest

import known
import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    w = workloads.WORKLOADS[name]()
    if name == "certify":
        w.sizes = workloads.CertifySizes(max_k=40, max_period=300, small_k=12,
                                         small_period=60, small_slices=2, slices=2, lift_ks=(3, 5, 9), extra=3)
    elif name == "crosscheck":
        w.sizes = workloads.CrosscheckSizes(per_family=2, max_k=12, max_period=30)
    else:
        w.full_p, w.sample_p, w.sample_n, w.single_p, w.single_n = 7, 11, 20, 11, 10
    return w


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name, trace):
    report = run.run(tiny(name), seed=3, seconds=0, trace=trace)
    assert report["wrong_answers"] == 0 and report["failed"] == 0, report["failures"]
    assert report["passes"] >= 2
    assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in report["end_to_end"].values()), report["end_to_end"]
    line = run.result_line(report, SPEC)
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in group]
    assert line["correct"] and line["attempted"] >= 1
    out = io.StringIO()
    with redirect_stdout(out):
        run._print_report(report, SPEC)
    assert "wall_s" in out.getvalue()
    if trace:
        assert report["traced_passes"] >= 2 and report["counters_unstable"] == []
        layers = report["per_layer"]
        busiest = {"certify": "verifier.exact.busy_s", "crosscheck": "verifier.oracle.busy_s",
                   "sweep": "buratti.find_path.busy_s"}
        assert layers[busiest[name]] > 0


def test_unstable_work_counts_are_flagged():
    tracer = spans.Tracer()
    for nodes in (5, 6):
        tracer.passes.append(defaultdict(float, {"buratti.find_path.nodes": nodes}))
    assert tracer.unstable_counts() == ["buratti.find_path.nodes"]


def test_tail_rule():
    per_op = [float(i) for i in range(1, 21)]
    assert run._tail(per_op) == (10.0, 50.0, 10)
    assert run._tail(per_op[:5]) == (5.0, 100.0, 0)


def test_fastest_repeat_per_column():
    nan = float("nan")
    rows = [[3.0, 5.0, nan], [2.0, 6.0, nan], [4.0, nan, nan]]
    assert run._fastest(rows) == [2.0, 5.0]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no processor affinity")
def test_quietest_cpu_is_one_of_those_allowed():
    cpus = sorted(os.sched_getaffinity(0))
    try:
        assert run._quietest_cpu(cpus) in cpus
    finally:
        os.sched_setaffinity(0, cpus)


def test_construct_exit_codes_from_the_readme():
    assert known.expected_construct_exit((1, 2, 3, 4)) == known.EXIT_OK
    assert known.expected_construct_exit((1, 2, 3, 4, 5, 7)) == known.EXIT_OK  # skip-k, k=6
    assert known.expected_construct_exit((1, 2, 3, 5)) == known.EXIT_FAIL      # skip-k, k=4
    assert known.expected_construct_exit((1, 2)) == known.EXIT_FAIL           # parity
    assert known.expected_construct_exit((2, 4)) == known.EXIT_FAIL           # gcd 2
    assert known.expected_construct_exit((3, 7)) == known.EXIT_OK             # 4-valent
    assert known.expected_construct_exit((1, 2, 10)) == known.EXIT_OK         # one-two-c
    assert known.expected_construct_exit((1, 4, 6)) == known.EXIT_UNSUPPORTED
    assert known.expected_construct_exit(
        (1, 3, 6, 12, 15, 21, 24, 30, 9)) == known.EXIT_UNSUPPORTED           # K_9 exhausted
    assert known.expected_construct_exit(tuple(range(1, 1002))) == known.EXIT_OK


def test_certificate_checker_accepts_valid_and_rejects_mutants():
    # The README example certificate for S+ = {1, 2, 3, 4}.
    s, n, vs, offs = (1, 2, 3, 4), 8, [0, -1, 1, 5, 2, 3, 6, 4, 8], [0, 2, 4, 6]
    assert known.certificate_valid(s, n, vs, offs)
    doc = workloads._document(s, n, vs, offs)
    rng = random.Random(0)
    for kind, mutant in workloads._mutants(doc, rng):
        if kind in ("splice", "repeat"):
            assert not workloads._valid_doc(mutant), kind
    assert not known.certificate_valid(s, n, vs, [0, 2, 4, 4])
    assert not known.certificate_valid(s, n, [v + 1 for v in vs], offs)
    assert known.residue_checks(s, vs, offs) == 8 * 4
    assert known.window_edges(n, vs, offs, 3) > 0


def test_witness_checker():
    assert known.is_hamilton_witness(5, (1, 1, 2, 2), (0, 1, 4, 2, 3))
    assert not known.is_hamilton_witness(5, (1, 1, 2, 2), (0, 1, 2, 3, 4))
    assert not known.is_hamilton_witness(5, (1, 1, 2, 2), None)


def test_unranking_matches_lexicographic_enumeration():
    for p in (5, 7, 11):
        full = list(itertools.combinations_with_replacement(range(1, (p - 1) // 2 + 1), p - 1))
        assert len(full) == known.multiset_count(p)
        assert [known.unrank_multiset(p, i) for i in range(len(full))] == full


def test_wrong_answers_are_caught():
    """A program that answers wrongly must show up as wrong answers, not pass."""
    hd = run._import_package()
    work = run.OUT / "selftest"
    work.mkdir(parents=True, exist_ok=True)

    certify = tiny("certify")
    ops = certify.setup(1, work, hd, 1)
    lying = types.SimpleNamespace(main=lambda argv: 0, begin_op=lambda label: None,
                                  load_certificate=hd.document.load_certificate,
                                  verify_certificate=hd.verify_certificate)
    result = certify.run_pass(ops, lying)
    assert any(wrong for _, _, wrong in result.failures)

    crosscheck = tiny("crosscheck")
    ops = crosscheck.setup(1, work, hd, 1)
    accepting = types.SimpleNamespace(begin_op=lambda label: None, main=lambda argv: print(
        "exact check: accepted\nwindow oracle (3 periods): accepted") or 0)
    result = crosscheck.run_pass([op for op in ops if op.item[0] == "verify"], accepting)
    assert any(wrong for _, _, wrong in result.failures)

    sweep = tiny("sweep")
    ops = sweep.setup(1, work, hd, 1)

    def no_paths(p, **kwargs):
        report = hd.sweep(p, **kwargs)
        return types.SimpleNamespace(entries=[(m, hd.SearchOutcome(None, 0, 0.0))
                                              for m, _ in report.entries])

    result = sweep.run_pass(ops, types.SimpleNamespace(sweep=no_paths,
                                                       begin_op=lambda label: None))
    assert len(result.failures) == result.attempted and all(w for _, _, w in result.failures)

    def raising(argv):
        raise RecursionError("deep")

    result = certify.run_pass(certify.setup(1, work, hd, 1)[:1], types.SimpleNamespace(
        main=raising, begin_op=lambda label: None))
    assert [(kind, wrong) for _, kind, wrong in result.failures] == [
        ("raised RecursionError", False)]
