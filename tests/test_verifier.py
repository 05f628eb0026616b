import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import hamdec
from hamdec import model, verifier
from hamdec import (
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    WindowCheck,
    WindowTooLarge,
    WindowTooSmall,
    analyze,
    construct,
    construct_4valent,
    construct_consecutive,
    construct_even_run,
    construct_from_zk_path,
    construct_skip_k,
    verify_certificate,
    window_oracle,
)
from hamdec.verifier import smallest_window_periods


def hand_cert(offsets=(0, 3)):
    return DecompositionCertificate(
        ConnectionSet([1, 3]), 6, FinitePath((0, 1, 4, 5, 2, 3, 6)), offsets)


class TestVerifyCertificate:
    def test_constructed_consecutive_accepted(self):
        assert verify_certificate(construct_consecutive(4)).accepted

    def test_hand_checked_certificate(self):
        report = verify_certificate(hand_cert())
        assert report.accepted
        assert helpers.reference_residue_tables(hand_cert()) == {1: (0, 2, 4), 3: (1, 2, 3)}

    def test_wrong_offsets_rejected(self):
        report = verify_certificate(hand_cert(offsets=(0, 2)))
        assert not report.accepted
        assert "LengthResidueOverlap" in report.failures
        assert "LengthResidueGap" in report.failures

    def test_foreign_edge_length(self):
        cert = DecompositionCertificate(
            ConnectionSet([1, 3]), 6, FinitePath((0, 7, 4, 5, 2, 3, 6)), (0, 3))
        assert "ForeignEdgeLength" in verify_certificate(cert).failures

    def test_path_broken_on_splice(self):
        cert = DecompositionCertificate(
            ConnectionSet([1, 3]), 6, FinitePath((0, 1, 4, 5, 2, 6)), (0, 3))
        assert "PathBroken" in verify_certificate(cert).failures

    def test_endpoint_mismatch(self):
        cert = DecompositionCertificate(
            ConnectionSet([1, 3]), 6, FinitePath((1, 2, 5, 6, 3, 4, 7)), (0, 3))
        assert "EndpointMismatch" in verify_certificate(cert).failures

    def test_residue_coverage(self):
        cert = DecompositionCertificate(
            ConnectionSet([1, 3, 5, 7]), 6, FinitePath((0, 1, 2, 7, 4, 5, 6)), (0, 3))
        assert "ResidueCoverage" in verify_certificate(cert).failures

    def test_offset_collision(self):
        cert = DecompositionCertificate(
            ConnectionSet([1, 3]), 6, FinitePath((0, 1, 4, 5, 2, 3, 6)), (0, 0))
        assert "OffsetCollision" in verify_certificate(cert).failures

    def test_translation_invariance(self):
        base = hand_cert()
        for t in (-2, -1, 1, 3):
            shifted = DecompositionCertificate(
                base.connection_set, base.period,
                helpers.translate(base.starter, 6 * t), base.offsets)
            assert verify_certificate(shifted).accepted

    def test_counting_identity(self):
        for cert in helpers.family_corpus(four_valent_max_b=15, one_two_c_max=20):
            assert verify_certificate(cert).accepted
            n, k = cert.period, len(cert.connection_set.s_plus)
            tables = helpers.reference_residue_tables(cert)
            assert all(len(rs) == n // k for rs in tables.values())

    def test_huge_period_is_checked_in_starter_time(self):
        cert = DecompositionCertificate(
            ConnectionSet([1, 3]), 10**15, FinitePath((0, 1, 4)), (0, 1))
        start = time.perf_counter()
        report = verify_certificate(cert)
        assert time.perf_counter() - start < 1.0
        assert report.failures == (
            "PathBroken", "EndpointMismatch", "ResidueCoverage", "LengthResidueGap")

    def test_accepted_implies_admissible(self):
        for cert in helpers.family_corpus(four_valent_max_b=15, one_two_c_max=20):
            if verify_certificate(cert).accepted:
                assert analyze(cert.connection_set).admissible


MUTANT_BASES = helpers.family_corpus(four_valent_max_b=15, consecutive_max_k=13,
                                     skip_max_k=11, even_run_max_t=8,
                                     one_two_c_max=16, walecki_ks=(3, 5))


@st.composite
def verifier_mutants(draw):
    """A valid certificate with its offsets, period or starter changed."""
    cert = draw(st.sampled_from(MUTANT_BASES))
    n, offsets, vs = cert.period, list(cert.offsets), list(cert.starter.vertices)
    kind = draw(st.sampled_from(["duplicate", "subset", "subgroup", "period", "swap"]))
    if kind == "duplicate":
        offsets += draw(st.lists(st.sampled_from(offsets), min_size=1, max_size=3))
    elif kind == "subset":
        offsets = draw(st.lists(st.sampled_from(offsets), min_size=1, unique=True))
    elif kind == "subgroup":
        # A union of cosets of the subgroup of order m.
        m = draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
        shifts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        offsets = sorted({(t + i * (n // m)) % n for t in shifts for i in range(m)})
    elif kind == "period":
        n = draw(st.integers(1, 3 * n))
        offsets = sorted({o % n for o in offsets})
    else:
        i, j = draw(st.lists(st.integers(0, len(vs) - 1), min_size=2, max_size=2, unique=True))
        vs[i], vs[j] = vs[j], vs[i]
    return DecompositionCertificate(cert.connection_set, n, FinitePath(vs), offsets)


@given(verifier_mutants())
@settings(max_examples=400, deadline=None)
def test_failures_match_reference(cert):
    assert verify_certificate(cert).failures == helpers.reference_failures(cert)


class TestWindowOracle:
    def test_accepts_4valent(self):
        assert window_oracle(construct_4valent(1, 3), 5).accepted

    def test_rejects_tampered(self):
        cert = construct_4valent(1, 3)
        vs = list(cert.starter.vertices)
        vs[1], vs[3] = vs[3], vs[1]
        bad = DecompositionCertificate(
            cert.connection_set, cert.period, FinitePath(vs), cert.offsets)
        check = window_oracle(bad, 5)
        assert not check.accepted and check.failure

    def test_trivial_certificate(self):
        assert window_oracle(construct_consecutive(1), 10).accepted

    def test_window_too_small(self):
        cert = construct_from_zk_path(3, (7, 11), FinitePath((0, 1, 2)))
        with pytest.raises(WindowTooSmall):
            window_oracle(cert, 3)
        assert window_oracle(cert, 4).accepted

    def test_smallest_window_periods(self):
        # The smallest window holds the longest edge and a non-empty core:
        # the oracle runs on it, and one period fewer is too small.
        lift = construct(ConnectionSet([1 + 13 * i for i in range(12)] + [13]))
        assert smallest_window_periods(lift) == 12  # 12 * 26 >= 2 * 144 > 11 * 26
        corpus = helpers.family_corpus(four_valent_max_b=15, consecutive_max_k=9,
                                       skip_max_k=11, even_run_max_t=6, one_two_c_max=12,
                                       walecki_ks=(3, 5))
        for cert in (*corpus, lift, construct_from_zk_path(3, (7, 11), FinitePath((0, 1, 2)))):
            periods = smallest_window_periods(cert)
            assert window_oracle(cert, periods).accepted
            if periods > 3:
                with pytest.raises(WindowTooSmall):
                    window_oracle(cert, periods - 1)

    def test_periods_must_be_at_least_3(self):
        with pytest.raises(ValueError):
            window_oracle(construct_4valent(1, 3), 2)

    def test_large_overhang_starters(self):
        # The skip-k starter for k = 3 mod 4 overhangs one period by about
        # k^2/4; the oracle must still accept at every window size.
        for k in (11, 19, 23):
            cert = construct_skip_k(k)
            for periods in (3, 5, 8):
                assert window_oracle(cert, periods).accepted

    def test_monotone_stability(self):
        for cert in (construct_4valent(3, 7), construct_consecutive(5),
                     construct_skip_k(7)):
            accepted = [window_oracle(cert, p).accepted for p in (3, 5, 8)]
            assert accepted[0]
            assert accepted == sorted(accepted)  # once accepted, stays accepted


def oracle_outcome(oracle, cert, periods):
    try:
        check = oracle(cert, periods)
    except WindowTooSmall as exc:
        return "WindowTooSmall", str(exc)
    return check.accepted, check.failure


ORACLE_BASES = helpers.family_corpus(four_valent_max_b=9, consecutive_max_k=8,
                                     skip_max_k=7, even_run_max_t=6,
                                     one_two_c_max=10, walecki_ks=(3,))


@st.composite
def oracle_cases(draw):
    """A crosscheck-style mutant of a valid certificate, or a random small certificate."""
    if draw(st.booleans()):
        cert = draw(st.sampled_from(ORACLE_BASES))
        rng = random.Random(draw(st.integers(0, 2**32)))
        cert = draw(st.sampled_from([cert] + helpers.mutate(cert, rng)))
    else:
        n = draw(st.integers(1, 6))
        s_plus = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        vs = draw(st.lists(st.integers(-3, n + 3), min_size=2, max_size=n + 4, unique=True))
        offsets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        cert = DecompositionCertificate(ConnectionSet(s_plus), n, FinitePath(vs), offsets)
    return cert, draw(st.integers(3, 6))


@given(oracle_cases())
@settings(max_examples=400, deadline=None)
def test_window_oracle_matches_reference(case):
    cert, periods = case
    assert oracle_outcome(window_oracle, cert, periods) == \
        oracle_outcome(helpers.reference_window_oracle, cert, periods)


# Starters whose ends lie |m| >= 2 periods apart, so that each path is |m|
# chains of translates: two disconnected chains; three chains accepted at 3
# periods, where the core meets translates of one chain only; a span of 12,
# above the 9 of a 3-period slab, which leaves no connectivity core; and two
# chains at 3 periods of which only the last translate to touch the core
# lies on the second.
SEVERAL_CHAINS = [((1, 3), 2, (0, 1, 4), (0,)),
                  ((3,), 2, (0, 3, 6), (0,)),
                  ((4,), 3, (0, 4, 8, 12), (0,)),
                  ((1, 3, 5), 4, (0, -3, 2, 7, 8), (0,))]


def test_window_oracle_chain_check_matches_reference():
    # Acyclicity and connectivity come from the starter's ends, once a
    # starter with a length outside S+ has been refused.  Each branch is
    # counted, past the degree check, so that the comparison cannot pass
    # vacuously.
    rng = random.Random(19)
    certs = helpers.random_certificates(600, seed=19) + helpers.walk_certificates(600, seed=19)
    for cert in ORACLE_BASES:
        certs += [cert, *helpers.mutate(cert, rng)]
    certs += [DecompositionCertificate(ConnectionSet(s_plus), period, FinitePath(starter), offsets)
              for s_plus, period, starter, offsets in SEVERAL_CHAINS]
    certs.append(helpers.window_reproducers()["disconnected"])
    seen = {"chains accept": 0, "chains disconnected": 0, "empty core": 0, "foreign refused": 0}
    for cert in certs:
        n, max_s = cert.period, cert.connection_set.s_plus[-1]
        vs = cert.starter.vertices
        foreign = any(v - u not in cert.connection_set.s_plus for u, v in cert.starter.edges())
        for periods in (3, 4, 5, 8):
            outcome = oracle_outcome(window_oracle, cert, periods)
            assert outcome == oracle_outcome(helpers.reference_window_oracle, cert, periods)
            if outcome[0] == "WindowTooSmall":
                continue
            if foreign:
                assert outcome[1].endswith("is not an edge of the graph")
                seen["foreign refused"] += 1
                continue
            if (outcome[1] or "").startswith("vertex "):
                continue
            if outcome == (True, None):
                seen["chains accept"] += 1
            if outcome == (False, "path is disconnected inside the window"):
                seen["chains disconnected"] += 1
            if min((periods - 1) * n - max_s, periods * n - (max(vs) - min(vs))) < 0:
                seen["empty core"] += 1
    assert all(seen.values()), seen


def test_window_oracle_chain_invariant_raises(monkeypatch):
    # Degree 2 at every vertex puts the starter's ends a multiple of the
    # period apart.  A slab that says otherwise is a library bug, raised, not
    # asserted, so that ``python -O`` keeps it: here the slab of a valid
    # certificate stands in for that of a starter cut short.
    valid = construct_4valent(1, 3)
    cut = DecompositionCertificate(valid.connection_set, valid.period,
                                   FinitePath(valid.starter.vertices[:-1]), valid.offsets)
    monkeypatch.setattr(verifier, "materialize_edges",
                        lambda cert, lo, hi: model.materialize_edges(valid, lo, hi))
    with pytest.raises(AssertionError, match="no multiple of the period apart"):
        window_oracle(cut, 3)


@pytest.mark.parametrize("s_plus, period, starter, offsets, failure", [
    ((3,), 2, (1, 4), (0, 1), "vertex -1 has degree 1"),
    # A length outside S+ is refused before any other check: in these rows,
    # before a cycle, a disconnection, edges used twice and uncovered edges.
    ((1,), 1, (2, 3, -2), (0,), "edge (-3, 2) is not an edge of the graph"),
    ((1,), 1, (1, 3), (0,), "edge (-3, -1) is not an edge of the graph"),
    ((2,), 2, (0, -1, -2), (0, 1), "edge (-6, -5) is not an edge of the graph"),
    ((1, 3), 2, (2, -1, 4), (1,), "edge (-6, -1) is not an edge of the graph"),
    # A swapped-vertex mutant of construct_4valent(5, 9) whose paths share an
    # edge of length 10 > max(S+).
    ((5, 9), 18, (0, 5, 14, 19, 10, 15, 6, 11, 21, 7, 16, 2, 12, 17, 8, 13, 4, 9, 18), (0, 9),
     "edge (-52, -42) is not an edge of the graph"),
    ((1, 3), 3, (-3, -2, 2, 0), (0,), "edge (-9, -7) is not an edge of the graph"),
    # The second path's first progression (length 1) is disjoint from the
    # first path; its second (length 3) is not.
    ((1, 3), 6, (0, 1, 4, 5, 2, 3, 6), (0, 1), "edge (-16, -13) used by two paths"),
    # The third path shares an edge with the second, none with the first,
    # and again not in its first progression.
    ((1, 2, 3, 4), 8, (0, -1, 1, 5, 2, 3, 6, 4, 8), (0, 2, 7), "edge (-18, -16) used by two paths"),
    # A foreign edge (-3, 3) whose lower endpoint lies left of the core and
    # whose upper one right of it.  Counted from the slab, vertex -1 had
    # degree 0, though its true degree is 2.
    ((1,), 1, (0, 6), (0,), "edge (-3, 3) is not an edge of the graph"),
    # Two chains of translates, (0, 1, 4) + 4i and (2, 3, 6) + 4i.
    ((1, 3), 2, (0, 1, 4), (0,), "path is disconnected inside the window"),
    # The first uncovered edges are (-5, -4) and (-6, -4): the smallest x
    # wins, though its length is the larger.
    ((1, 2, 3), 2, (0, 3, 2), (0,), "edge (-6, -4) not covered"),
])
def test_window_failure_messages(s_plus, period, starter, offsets, failure):
    cert = DecompositionCertificate(ConnectionSet(s_plus), period, FinitePath(starter), offsets)
    assert window_oracle(cert, 3) == WindowCheck(False, failure)
    assert helpers.reference_window_oracle(cert, 3) == WindowCheck(False, failure)


@pytest.mark.parametrize("periods", [3, 5, 8, 20])
def test_window_oracle_refuses_a_length_outside_s_plus(periods):
    # Each path is one two-way-infinite path, through edges of length 3.
    cert = DecompositionCertificate(ConnectionSet([1]), 2, FinitePath((0, -1, 2)), (0, 1))
    assert verify_certificate(cert).failures == ("ForeignEdgeLength",)
    u = -2 * periods
    failure = WindowCheck(False, f"edge ({u}, {u + 3}) is not an edge of the graph")
    assert window_oracle(cert, periods) == failure
    assert helpers.reference_window_oracle(cert, periods) == failure


def lengthen_one_step(cert, rng):
    """``cert`` with one starter step longer than a slab of 5 periods.

    The vertices after the step move away from the vertex before it by more
    than the starter's span plus 10 periods, so they stay distinct from the
    others, the step's length is outside S+, and no translate of it fits in
    a slab of 3 or 5 periods.
    """
    vs, n = cert.starter.vertices, cert.period
    j = rng.randrange(1, len(vs))
    shift = max(vs) - min(vs) + 10 * n + 1 + rng.randrange(n)
    longer = vs[:j] + tuple(v + (shift if vs[j] > vs[j - 1] else -shift) for v in vs[j:])
    return DecompositionCertificate(cert.connection_set, n, FinitePath(longer), cert.offsets)


def test_window_oracle_accepts_no_length_outside_s_plus():
    # Every starter edge, of length at most 2n - 1, has a translate inside a
    # slab of 3 or 5 periods, so a certificate the oracle accepts uses only
    # lengths in S+.  Before the oracle checked this, it accepted 53 of these
    # outcomes whose starters use other lengths.  The slab also holds a
    # translate of every graph edge, so an accepted certificate uses every
    # class (d, r) with d in S+: with coverage checked on the core alone, 6
    # of these outcomes were accepted with a LengthResidueGap.
    accepted = 0
    walks = helpers.walk_certificates(2000, seed=7)
    for cert in walks:
        for periods in (3, 5):
            outcome = oracle_outcome(window_oracle, cert, periods)
            assert outcome == oracle_outcome(helpers.reference_window_oracle, cert, periods)
            if outcome[0] is True:
                accepted += 1
                failures = verify_certificate(cert).failures
                assert "ForeignEdgeLength" not in failures, cert
                assert "LengthResidueGap" not in failures, cert
    assert accepted > 300  # the property is not vacuous

    # A step lengthened past the slab has no translate inside it, so it is
    # refused from the starter.  While the oracle read lengths from the slab
    # alone, it accepted 7 of these outcomes: there the slab's degrees and
    # coverage looked whole without the lengthened step.
    rng = random.Random(7)
    refused = 0
    for cert in walks + helpers.random_certificates(2000, seed=7):
        cert = lengthen_one_step(cert, rng)
        assert "ForeignEdgeLength" in verify_certificate(cert).failures
        for periods in (3, 5):
            outcome = oracle_outcome(window_oracle, cert, periods)
            assert outcome == oracle_outcome(helpers.reference_window_oracle, cert, periods)
            if outcome[0] != "WindowTooSmall":
                refused += 1
                assert outcome[0] is False and outcome[1].endswith("is not an edge of the graph"), \
                    (cert, periods, outcome)
    assert refused > 5000


@pytest.mark.parametrize("periods", [3, 5, 8, 20, 40])
def test_window_oracle_refuses_a_length_too_long_for_the_slab(periods):
    # Period 1: the length-1 translates give every vertex degree 2 and cover
    # every edge, and the length-99 ones, which no slab of up to 49 periods
    # holds, double every degree.  Both oracles once accepted it.
    cert = helpers.window_reproducers()["long-edge"]
    assert "ForeignEdgeLength" in verify_certificate(cert).failures
    failure = WindowCheck(False, f"edge ({-periods}, {99 - periods}) is not an edge of the graph")
    assert window_oracle(cert, periods) == failure
    assert helpers.reference_window_oracle(cert, periods) == failure


@pytest.mark.parametrize("periods", [3, 5, 8])
def test_window_oracle_checks_coverage_over_the_slab(periods):
    # No path uses an edge of length 3.  At 3 periods the core, |x| <= 1, is
    # too narrow to hold one, so coverage is checked over the whole slab.
    cert = helpers.window_reproducers()["uncovered-length"]
    assert verify_certificate(cert).failures == ("LengthResidueGap",)
    u = -2 * periods
    failure = WindowCheck(False, f"edge ({u}, {u + 3}) not covered")
    assert window_oracle(cert, periods) == failure
    assert helpers.reference_window_oracle(cert, periods) == failure


def test_invariants_raise_under_optimize():
    # An accepted certificate of a set analyze calls non-admissible is a
    # library bug; ``python -O`` must not turn it into an accepted report.
    code = textwrap.dedent("""
        import sys
        from hamdec import AdmissibilityReport, construct_4valent, verifier
        assert sys.flags.optimize
        cert = construct_4valent(1, 3)
        verifier.analyze = lambda s: AdmissibilityReport(1, 1, False, False)
        try:
            verifier.verify_certificate(cert)
        except AssertionError as exc:
            print(exc)
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "accepted certificate for a non-admissible connection set\n"


def test_window_oracle_refuses_large_window(monkeypatch):
    cert = construct_4valent(1, 3)
    assert window_oracle(cert, 5).accepted
    monkeypatch.setattr(model, "MAX_WINDOW_EDGES", 10)
    with pytest.raises(WindowTooLarge):
        window_oracle(cert, 5)


def test_window_oracle_huge_period_fails_fast():
    # The core holds more vertices than any path has edges, so the degrees
    # are counted on the first (edges + 1) core vertices only: neither the
    # time nor the memory grows with the period.
    cert = DecompositionCertificate(
        ConnectionSet([1, 3]), 10**15, FinitePath((0, 1, 4)), (0, 1))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        check = window_oracle(cert, 3)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20
    assert check == WindowCheck(False, f"vertex {-(2 * 10**15 - 3)} has degree 0")


@pytest.mark.parametrize("k, degree", [(127, 254), (128, 256)])
def test_window_oracle_exact_degree_past_a_byte(k, degree):
    # Period 1 and a starter 0, 1, ..., k: every translate of every starter
    # edge is an edge (u, u + 1), so each vertex has degree 2k.  The counts
    # saturate at 255, and the message must still give the exact degree.
    cert = DecompositionCertificate(ConnectionSet([1]), 1, FinitePath(range(k + 1)), (0,))
    failure = WindowCheck(False, f"vertex -1 has degree {degree}")
    assert window_oracle(cert, 3) == failure
    assert helpers.reference_window_oracle(cert, 3) == failure


def test_window_oracle_memory_with_many_lengths():
    # A zigzag starter 0, 1, n-1, 2, n-2, ..., n has nearly n distinct edge
    # lengths, each used a handful of times in the slab: the oracle's
    # bookkeeping must grow with the edges, not with lengths times window.
    n = 3001
    starter = [0, *(v for i in range(1, n // 2 + 1) for v in (i, n - i)), n]
    lengths = {abs(v - u) for u, v in zip(starter, starter[1:])}
    assert len(lengths) == 2999
    cert = DecompositionCertificate(ConnectionSet(lengths), n, FinitePath(starter), (0,))
    tracemalloc.start()
    try:
        check = window_oracle(cert, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check == WindowCheck(False, "edge (-9003, -9001) not covered")
    assert peak < 16 * 2**20


class TestCrossValidation:
    def test_agreement_on_valid_corpus(self):
        for cert in helpers.family_corpus(four_valent_max_b=15, consecutive_max_k=9,
                                          skip_max_k=11, even_run_max_t=8,
                                          one_two_c_max=16, walecki_ks=(3, 5)):
            for periods in (3, 5, 8):
                try:
                    assert (verify_certificate(cert).accepted
                            == window_oracle(cert, periods).accepted)
                except WindowTooSmall:
                    continue

    def test_agreement_on_mutants(self):
        rng = random.Random(99)
        corpus = helpers.family_corpus(four_valent_max_b=11, consecutive_max_k=8,
                                       skip_max_k=7, even_run_max_t=6,
                                       one_two_c_max=12, walecki_ks=(3,))
        rejected = 0
        for cert in corpus:
            for mutant in helpers.mutate(cert, rng):
                exact = verify_certificate(mutant).accepted
                if not exact:
                    rejected += 1
                for periods in (3, 5):
                    try:
                        assert window_oracle(mutant, periods).accepted == exact
                    except WindowTooSmall:
                        continue
        assert rejected > 0
