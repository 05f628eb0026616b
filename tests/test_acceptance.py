"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they happen).
"""
import math
import random
import time
from itertools import combinations_with_replacement

import pytest

import helpers
from hamdec import (
    ConnectionSet,
    NotAdmissible,
    analyze,
    construct,
    construct_4valent,
    construct_consecutive,
    construct_even_run,
    construct_one_two_c,
    construct_skip_k,
    construct_walecki_family,
    find_path,
    sweep,
    verify_certificate,
    window_oracle,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


GOLDEN_STARTERS = [
    (lambda: construct_consecutive(4), (0, -1, 1, 5, 2, 3, 6, 4, 8)),
    (lambda: construct_skip_k(3), (0, 1, -1, 3)),
    (lambda: construct_skip_k(6), (0, 2, -3, -2, -5, -1, 6)),
    (lambda: construct_even_run(4), (0, 1, 3, 7, -1, 5)),
    (lambda: construct_even_run(6), (0, 1, 5, 3, -3, 9, -1, 7)),
    (lambda: construct_even_run(8), (0, 1, 7, 3, 5, 13, -3, 11, -1, 9)),
    (lambda: construct_even_run(10), (0, 1, 9, 3, 7, 5, -5, 15, -3, 13, -1, 11)),
    (lambda: construct_one_two_c(8), (0, 1, 9, 11, 3, 5, 6, 7, 8, 10, 2, 4, 12)),
]


def test_criterion_1_golden_starter_paths():
    started = time.perf_counter()
    mismatches = []
    for build, expected in GOLDEN_STARTERS:
        got = helpers.canonical(build().starter)
        if got != expected:
            mismatches.append((expected, got))
    elapsed = time.perf_counter() - started
    _report(1, not mismatches and elapsed < 1.0,
            f"{len(GOLDEN_STARTERS)} printed starters reproduced exactly in {elapsed:.2f}s"
            + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_2_construction_sweep():
    started = time.perf_counter()
    rejections = []
    total = 0

    def check(cert, label):
        nonlocal total
        total += 1
        if not verify_certificate(cert).accepted:
            rejections.append((label, "exact"))
        if not window_oracle(cert, 5).accepted:
            rejections.append((label, "window"))

    for b in range(3, 100, 2):
        for a in range(1, b, 2):
            if math.gcd(a, b) == 1:
                check(construct_4valent(a, b), f"4valent({a},{b})")
    for k in range(1, 42):
        if k % 4 in (0, 1):
            check(construct_consecutive(k), f"consecutive({k})")
    for k in range(2, 43):
        if k % 4 in (2, 3):
            check(construct_skip_k(k), f"skip({k})")
    for t in range(2, 41, 2):
        check(construct_even_run(t), f"even-run({t})")
    for c in range(4, 201, 2):
        check(construct_one_two_c(c), f"12c({c})")
    rng = random.Random(2024)
    for k in range(3, 22, 2):
        for sample in range(3):
            a_list = helpers.walecki_magnitudes(k, rng)
            check(construct_walecki_family(k, a_list), f"walecki({k},{sample})")

    elapsed = time.perf_counter() - started
    _report(2, not rejections and elapsed < 60.0,
            f"{total} certificates constructed+verified+window-checked, "
            f"{len(rejections)} rejections, {elapsed:.1f}s"
            + (f"; first rejections: {rejections[:5]}" if rejections else ""))


K9_EXPECTED_EXHAUSTED = {
    (1, 3, 3, 3, 3, 3, 3, 3),
    (2, 3, 3, 3, 3, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3, 4),
}


def test_criterion_3_k9_nonexistence():
    started = time.perf_counter()
    exhausted = set()
    total = 0
    for lengths in combinations_with_replacement((1, 2, 3, 4), 8):
        total += 1
        if not find_path(9, lengths).found:
            exhausted.add(lengths)
    elapsed = time.perf_counter() - started
    ok = exhausted == K9_EXPECTED_EXHAUSTED and elapsed < 120.0
    _report(3, ok,
            f"{total} multisets enumerated, exhausted exactly {sorted(exhausted)}, "
            f"{elapsed:.1f}s")


def test_criterion_4_buratti_sweeps():
    started = time.perf_counter()
    failures = []
    for p in (3, 5, 7, 11, 13):
        report = sweep(p)
        failures.extend((p, f) for f in report.failures)
    full_elapsed = time.perf_counter() - started
    sample_started = time.perf_counter()
    for p in (17, 19):
        report = sweep(p, sample=1000, seed=0)
        failures.extend((p, f) for f in report.failures)
    sample_elapsed = time.perf_counter() - sample_started
    ok = not failures and full_elapsed < 1800.0 and sample_elapsed < 300.0
    _report(4, ok,
            f"full sweeps p in 3,5,7,11,13 ({full_elapsed:.1f}s) and seeded 1000-samples "
            f"p in 17,19 ({sample_elapsed:.1f}s): {len(failures)} failures"
            + (f"; first: {failures[:3]}" if failures else ""))


@pytest.fixture(scope="module")
def valid_corpus():
    return helpers.family_corpus(four_valent_max_b=51, consecutive_max_k=17,
                                 skip_max_k=19, even_run_max_t=12,
                                 one_two_c_max=40, walecki_ks=(3, 5, 7, 9), seed=7)


def test_criterion_5_oracle_equivalence(valid_corpus):
    started = time.perf_counter()
    rng = random.Random(5)
    invalid = []
    accepted_mutants = 0
    for cert in valid_corpus:
        for mutant in helpers.mutate(cert, rng):
            if verify_certificate(mutant).accepted:
                accepted_mutants += 1  # rare but legitimate (see ledger)
            else:
                invalid.append(mutant)

    disagreements = 0
    compared = 0
    for cert in [*valid_corpus, *invalid]:
        expected = verify_certificate(cert).accepted
        for periods in (3, 5, 8):
            compared += 1
            if window_oracle(cert, periods).accepted != expected:
                disagreements += 1
    elapsed = time.perf_counter() - started
    ok = (len(valid_corpus) >= 200 and len(invalid) >= 500 and disagreements == 0)
    _report(5, ok,
            f"{len(valid_corpus)} valid + {len(invalid)} rejected mutants "
            f"({accepted_mutants} mutants stayed valid), {compared} comparisons at "
            f"periods 3/5/8, "
            f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_6_necessary_condition(valid_corpus):
    bad_accepts = [cert.connection_set
                   for cert in valid_corpus
                   if verify_certificate(cert).accepted
                   and not analyze(cert.connection_set).admissible]
    missing_raises = []
    for s in helpers.non_admissible_sets(80):
        try:
            construct(s)
            missing_raises.append(s)
        except NotAdmissible:
            pass
    _report(6, not bad_accepts and not missing_raises,
            f"{len(valid_corpus)} accepted certificates all admissible; "
            f"80 non-admissible sets all raised NotAdmissible"
            + (f"; offenders: {bad_accepts[:3]} {missing_raises[:3]}"
               if bad_accepts or missing_raises else ""))


def test_criterion_7_completeness_vs_permutation_oracle():
    started = time.perf_counter()
    disagreements = []
    total = 0
    for k in range(2, 9):
        for lengths in combinations_with_replacement(range(1, k // 2 + 1), k - 1):
            total += 1
            got = find_path(k, lengths).found
            expected = helpers.naive_find(k, lengths)
            if got != expected:
                disagreements.append((k, lengths, got, expected))
    elapsed = time.perf_counter() - started
    ok = not disagreements and elapsed < 120.0
    _report(7, ok,
            f"{total} (k, multiset) pairs for k <= 8 agree with the permutation oracle, "
            f"{elapsed:.1f}s" + (f"; first: {disagreements[:3]}" if disagreements else ""))
