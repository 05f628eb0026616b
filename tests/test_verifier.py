import collections
import os
import random
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import hamdec
from hamdec import verifier
from hamdec import (
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    WindowCheck,
    WindowTooLarge,
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
        # Ends 2n apart: every other condition holds, but the translates overlap.
        cert = DecompositionCertificate(
            ConnectionSet([1, 3]), 6, FinitePath((0, 1, 4, 5, 8, 9, 12)), (0, 3))
        assert verify_certificate(cert).failures == ("EndpointMismatch",)

    def test_shifted_starter_accepted(self):
        # The ends need not lie on the zero class: shifting the starter keeps
        # its translates chaining end to end, and the oracle agrees.
        cert = construct(ConnectionSet([1, 2, 4]))
        assert (cert.period, cert.starter.vertices, cert.offsets) == (3, (0, 1, -1, 3), (0, 1, 2))
        shifted = DecompositionCertificate(
            cert.connection_set, cert.period, helpers.translate(cert.starter, 1), cert.offsets)
        assert verify_certificate(shifted) == verify_certificate(cert)
        assert verify_certificate(shifted).accepted
        assert window_oracle(shifted, 3).accepted

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


def test_failures_match_reference_on_drawn_offsets():
    """Random and walk starters under drawn offsets, against the direct count.

    Each starter is checked with its own offsets, with some of them
    repeated, with a union of cosets of a subgroup of Z_n (several classes
    mod g when there are several cosets), and shifted by t with its offsets
    shifted by -t.  Together these reach foreign lengths, lengths with no
    edge and lengths with few edges in one certificate.
    """
    rng = random.Random(29)
    kinds = collections.Counter()
    for cert in helpers.random_certificates(700, seed=29) + helpers.walk_certificates(700, seed=29):
        n, offsets = cert.period, cert.offsets
        m = rng.choice([m for m in range(1, n + 1) if n % m == 0])
        cosets = {(t + i * (n // m)) % n for t in rng.sample(range(n), rng.randint(1, min(n, 3)))
                  for i in range(m)}
        t = rng.randrange(1, n + 1)
        for drawn in (
                DecompositionCertificate(cert.connection_set, n, cert.starter,
                                         offsets + tuple(rng.choices(offsets, k=rng.randint(1, 3)))),
                DecompositionCertificate(cert.connection_set, n, cert.starter, cosets),
                DecompositionCertificate(cert.connection_set, n, helpers.translate(cert.starter, t),
                                         [(o - t) % n for o in offsets]),
                cert):
            failures = verify_certificate(drawn).failures
            assert failures == helpers.reference_failures(drawn)
            kinds.update(failures or ["accepted"])
        if 1 < m < n and 1 < len(cosets) // m < n // m:
            kinds["several classes mod g"] += 1
    assert set(kinds) == {"PathBroken", "EndpointMismatch", "ResidueCoverage", "ForeignEdgeLength",
                          "LengthResidueOverlap", "LengthResidueGap", "OffsetCollision",
                          "accepted", "several classes mod g"}


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

    def test_window_shorter_than_the_longest_edge(self):
        # Period 26 and edges up to 144 long: a window of 3 periods holds no
        # edge of the longest lengths, and one of 12 is the first that holds
        # them all.  Read by class, the outcome is the same at both.
        lift = construct(ConnectionSet([1 + 13 * i for i in range(12)] + [13]))
        assert (lift.period, lift.connection_set.s_plus[-1]) == (26, 144)
        assert window_oracle(lift, 3) == window_oracle(lift, 12) == WindowCheck(True)
        assert helpers.reference_window_oracle(lift, 3) == WindowCheck(True)
        zk = construct_from_zk_path(3, (7, 11), FinitePath((0, 1, 2)))
        assert window_oracle(zk, 3) == window_oracle(zk, 4) == WindowCheck(True)

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
    check = oracle(cert, periods)
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
# chains of translates, refused at every window: two chains; three chains,
# which the oracle accepted at 3 periods while it looked for a split only
# among the translates touching its core; a span of 12, above the 9 of a
# 3-period slab, accepted at 3 and 4 periods then; and two chains at 3
# periods of which only the last translate to touch the core lies on the
# second.
SEVERAL_CHAINS = [((1, 3), 2, (0, 1, 4), (0,)),
                  ((3,), 2, (0, 3, 6), (0,)),
                  ((4,), 3, (0, 4, 8, 12), (0,)),
                  ((1, 3, 5), 4, (0, -3, 2, 7, 8), (0,))]


def test_window_oracle_chain_check_matches_reference():
    # Acyclicity and connectivity come from the starter's ends, once a
    # starter with a length outside S+ has been refused.  Each branch is
    # counted, past the degree check, so that the comparison cannot pass
    # vacuously, and so is a window shorter than twice the longest edge,
    # which the oracle once refused.
    rng = random.Random(19)
    certs = helpers.random_certificates(600, seed=19) + helpers.walk_certificates(600, seed=19)
    for cert in ORACLE_BASES:
        certs += [cert, *helpers.mutate(cert, rng)]
    certs += [DecompositionCertificate(ConnectionSet(s_plus), period, FinitePath(starter), offsets)
              for s_plus, period, starter, offsets in SEVERAL_CHAINS]
    certs.append(helpers.window_reproducers()["disconnected"])
    seen = {"chains accept": 0, "chains disconnected": 0, "window below the longest edge": 0,
            "foreign refused": 0}
    for cert in certs:
        n, max_s = cert.period, cert.connection_set.s_plus[-1]
        foreign = any(v - u not in cert.connection_set.s_plus for u, v in cert.starter.edges())
        for periods in (3, 4, 5, 8):
            outcome = oracle_outcome(window_oracle, cert, periods)
            assert outcome == oracle_outcome(helpers.reference_window_oracle, cert, periods)
            if foreign:
                assert outcome[1].endswith("is not an edge of the graph")
                seen["foreign refused"] += 1
                continue
            if (outcome[1] or "").startswith("vertex "):
                continue
            if outcome == (True, None):
                seen["chains accept"] += 1
            if outcome == (False, "path is disconnected"):
                seen["chains disconnected"] += 1
            if periods * n < 2 * max_s:
                seen["window below the longest edge"] += 1
    assert all(seen.values()), seen


def test_window_oracle_per_progression_matches_reference():
    # The oracle reads degrees, shared edges and coverage from each
    # progression's start and length; the reference walks every edge.  Each
    # branch of the first two checks and both outcomes of the last are
    # counted, so that the comparison cannot pass vacuously: a degree found
    # past class 0, a degree above 2, a class whose earlier user is not the
    # path just before, an uncovered class, and acceptance.  The windows run
    # from 3 periods to 3 past the smallest that holds twice the longest edge.
    seen = dict.fromkeys(["degree past class 0", "degree above 2", "shared with an older path",
                          "not covered", "accepted"], 0)
    certs = helpers.random_certificates(1000, seed=31) + helpers.walk_certificates(1000, seed=31)
    for cert in certs:
        n, max_s = cert.period, cert.connection_set.s_plus[-1]
        for periods in range(3, max(3, -(-2 * max_s // n)) + 4):
            check = window_oracle(cert, periods)
            assert check == helpers.reference_window_oracle(cert, periods), (cert, periods)
            failure = check.failure or ""
            if check.accepted:
                seen["accepted"] += 1
            elif failure.endswith("not covered"):
                seen["not covered"] += 1
            elif failure.startswith("vertex "):
                c, _, degree = map(int, re.findall(r"\d+", failure))
                seen["degree past class 0"] += c != 0
                seen["degree above 2"] += degree > 2
            elif failure.endswith("used by two paths"):
                d, r, _ = map(int, re.findall(r"\d+", failure))
                users = [k for k, o in enumerate(cert.offsets)
                         if (r, r + d) in helpers.reference_materialize_edges(cert, o, 0, n + d)]
                seen["shared with an older path"] += users[1] - users[0] > 1
    assert all(seen.values()), seen


def test_window_oracle_chain_invariant_raises():
    # Degree 2 at every vertex puts the starter's ends a multiple of the
    # period apart.  A starter that says otherwise is a library bug, raised,
    # not asserted, so that ``python -O`` keeps it: here the edges of a valid
    # starter stand with the vertices of one cut short.
    valid = construct_4valent(1, 3)
    cut = valid.starter.vertices[:-1]
    stub = SimpleNamespace(
        connection_set=valid.connection_set, period=valid.period, offsets=valid.offsets,
        starter=SimpleNamespace(vertices=cut, edge_count=len(cut) - 1, edges=valid.starter.edges))
    with pytest.raises(AssertionError, match="no multiple of the period apart"):
        window_oracle(stub, 3)


@pytest.mark.parametrize("s_plus, period, starter, offsets, failure", [
    ((3,), 2, (1, 4), (0, 1), "vertex class 0 mod 2 has degree 1"),
    # A length outside S+ is refused before any other check: in these rows,
    # before a cycle, a disconnection, edges used twice and uncovered edges.
    ((1,), 1, (2, 3, -2), (0,), "length 5, residue 0 mod 1 is not an edge of the graph"),
    ((1,), 1, (1, 3), (0,), "length 2, residue 0 mod 1 is not an edge of the graph"),
    ((2,), 2, (0, -1, -2), (0, 1), "length 1, residue 0 mod 2 is not an edge of the graph"),
    ((1, 3), 2, (2, -1, 4), (1,), "length 5, residue 0 mod 2 is not an edge of the graph"),
    # A swapped-vertex mutant of construct_4valent(5, 9) whose paths share an
    # edge of length 10 > max(S+).
    ((5, 9), 18, (0, 5, 14, 19, 10, 15, 6, 11, 21, 7, 16, 2, 12, 17, 8, 13, 4, 9, 18), (0, 9),
     "length 10, residue 2 mod 18 is not an edge of the graph"),
    ((1, 3), 3, (-3, -2, 2, 0), (0,), "length 2, residue 0 mod 3 is not an edge of the graph"),
    # The second path's first progression (length 1) is disjoint from the
    # first path; its second (length 3) is not.
    ((1, 3), 6, (0, 1, 4, 5, 2, 3, 6), (0, 1), "length 3, residue 2 mod 6 used by two paths"),
    # The third path shares a class with the second, none with the first,
    # and again not in its first progression.
    ((1, 2, 3, 4), 8, (0, -1, 1, 5, 2, 3, 6, 4, 8), (0, 2, 7),
     "length 2, residue 6 mod 8 used by two paths"),
    # A foreign edge that alone gives every vertex degree 2.
    ((1,), 1, (0, 6), (0,), "length 6, residue 0 mod 1 is not an edge of the graph"),
    # Two chains of translates, (0, 1, 4) + 4i and (2, 3, 6) + 4i.
    ((1, 3), 2, (0, 1, 4), (0,), "path is disconnected"),
    # Lengths 1 and 2 each miss a class, (1, 1) and (2, 0): the smaller
    # length wins, though its residue is the larger.
    ((1, 2, 3), 2, (0, 3, 2), (0,), "length 1, residue 1 mod 2 not covered"),
])
def test_window_failure_messages(s_plus, period, starter, offsets, failure):
    cert = DecompositionCertificate(ConnectionSet(s_plus), period, FinitePath(starter), offsets)
    assert window_oracle(cert, 3) == WindowCheck(False, failure)
    assert helpers.reference_window_oracle(cert, 3) == WindowCheck(False, failure)


def test_window_oracle_outcome_does_not_depend_on_the_window():
    # Every check reads residue classes and names its failure by one, so the
    # window sets neither the outcome of a call nor its work, however large.
    # The certificates are those of the golden oracle corpus.
    for case, cert, periods in helpers.golden_oracle_cases():
        if periods != "3":
            continue
        outcomes = {window_oracle(cert, p) for p in (3, 4, 5, 8, 20, 2_000_000)}
        assert len(outcomes) == 1, (case, outcomes)


@pytest.mark.parametrize("periods", [3, 5, 8, 20])
def test_window_oracle_refuses_a_length_outside_s_plus(periods):
    # Each path is one two-way-infinite path, through edges of length 3.
    cert = DecompositionCertificate(ConnectionSet([1]), 2, FinitePath((0, -1, 2)), (0, 1))
    assert verify_certificate(cert).failures == ("ForeignEdgeLength",)
    failure = WindowCheck(False, "length 3, residue 0 mod 2 is not an edge of the graph")
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
    failure = WindowCheck(False, "length 99, residue 0 mod 1 is not an edge of the graph")
    assert window_oracle(cert, periods) == failure
    assert helpers.reference_window_oracle(cert, periods) == failure


@pytest.mark.parametrize("periods", [3, 5, 8])
def test_window_oracle_checks_coverage_over_the_slab(periods):
    # No path uses an edge of length 3, so its first class is uncovered.
    cert = helpers.window_reproducers()["uncovered-length"]
    assert verify_certificate(cert).failures == ("LengthResidueGap",)
    failure = WindowCheck(False, "length 3, residue 0 mod 2 not covered")
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
    # Two offsets times six starter edges: 12 progressions, whatever the window.
    cert = construct_4valent(1, 3)
    monkeypatch.setattr(verifier, "MAX_PROGRESSIONS", 12)
    assert window_oracle(cert, 2_000_000).accepted
    monkeypatch.setattr(verifier, "MAX_PROGRESSIONS", 11)
    with pytest.raises(WindowTooLarge, match="^12 progressions, more than the cap of 11$"):
        window_oracle(cert, 3)
    # Three lengths of S+ times six starter edges count 18, more than the
    # offsets give: the coverage marks hold a byte per length and class.
    wide = DecompositionCertificate(ConnectionSet([1, 3, 5]), cert.period, cert.starter,
                                    cert.offsets)
    monkeypatch.setattr(verifier, "MAX_PROGRESSIONS", 18)
    assert window_oracle(wide, 3) == WindowCheck(False, "length 5, residue 0 mod 6 not covered")
    monkeypatch.setattr(verifier, "MAX_PROGRESSIONS", 17)
    with pytest.raises(WindowTooLarge, match="^18 progressions, more than the cap of 17$"):
        window_oracle(wide, 3)


def test_window_oracle_one_progression_over_the_real_cap_is_refused_before_allocating():
    # Period 1, a starter 0, 1, ..., e and k offsets 0: k paths of e
    # progressions each, k e = cap + 1 = 11 x 909,091.  At the cap the oracle
    # runs; one progression more is refused before any list is built.
    cap = verifier.MAX_PROGRESSIONS
    assert cap == 10 * 10**6
    at_cap = DecompositionCertificate(ConnectionSet([1]), 1, FinitePath(range(11)), [0] * 10**6)
    assert window_oracle(at_cap, 3) == WindowCheck(False, "vertex class 0 mod 1 has degree 20")
    over = DecompositionCertificate(ConnectionSet([1]), 1, FinitePath(range(12)), [0] * 909_091)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(WindowTooLarge, match=f"^{cap + 1} progressions, more than the cap"):
            window_oracle(over, 3)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 64 * 1024


def test_window_oracle_huge_period_fails_fast():
    # The period is larger than any path's count of progressions, so the
    # degrees are searched on the first (progressions + 1) classes only:
    # neither the time nor the memory grows with the period.
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
    assert check == WindowCheck(False, f"vertex class 0 mod {10**15} has degree 1")


@pytest.mark.parametrize("k, degree", [(127, 254), (128, 256)])
def test_window_oracle_exact_degree_past_a_byte(k, degree):
    # Period 1 and a starter 0, 1, ..., k: every translate of every starter
    # edge is an edge (u, u + 1), so each vertex has degree 2k.  The message
    # must give the exact degree past a byte's 255.
    cert = DecompositionCertificate(ConnectionSet([1]), 1, FinitePath(range(k + 1)), (0,))
    failure = WindowCheck(False, f"vertex class 0 mod 1 has degree {degree}")
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
    assert check == WindowCheck(False, "length 1, residue 1 mod 3001 not covered")
    assert peak < 16 * 2**20


# Run in a fresh process: the oracle's peak RSS over that of the process
# which has just built the certificate, in MiB.  A forked child's peak starts
# at its parent's resident set, so the peak of a child that calls nothing is
# subtracted.
ORACLE_PEAK = textwrap.dedent("""
    import os, sys
    from hamdec import ConnectionSet, WindowCheck, construct, window_oracle
    cert = construct(ConnectionSet(map(int, sys.argv[1].split(","))))
    peaks = []
    for call in (lambda: True, lambda: window_oracle(cert, 5) == WindowCheck(True)):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if call() else 1
            finally:
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        peaks.append(usage.ru_maxrss)
    print(len(cert.offsets) * cert.starter.edge_count, (peaks[1] - peaks[0]) / 1024)
    """)


@pytest.mark.parametrize("s_plus, progressions, mib", [
    pytest.param((1, 499999), 1_999_996, 48, id="4-valent-1-499999"),
    pytest.param(tuple(range(1, 2237)), 9_999_392, 16, id="consecutive-2236"),
])
def test_window_oracle_memory_at_the_cap(s_plus, progressions, mib):
    # The largest 4-valent certificate, at the period cap, and the largest
    # consecutive one under MAX_PROGRESSIONS.  The oracle keeps three words
    # per starter edge and a byte per length and class: it adds 32 and 9 MiB
    # (Python 3.11), at any window.
    env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", ORACLE_PEAK, ",".join(map(str, s_plus))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    count, peak = done.stdout.split()
    assert int(count) == progressions <= verifier.MAX_PROGRESSIONS
    assert float(peak) < mib


# The exact check and the oracle must agree on every small certificate: a
# fixed sample in tier-1, and a random one of 20,000 with
# ``HYPOTHESIS_PROFILE=agreement-large``.
settings.register_profile("agreement", max_examples=600, derandomize=True, database=None,
                          deadline=None)
settings.register_profile("agreement-large", max_examples=20_000, database=None, deadline=None)


@given(helpers.small_certificates())
@settings(settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "agreement")))
def test_exact_check_and_oracle_agree(cert):
    assert verify_certificate(cert).accepted == window_oracle(cert, 3).accepted


class TestCrossValidation:
    def test_agreement_on_valid_corpus(self):
        for cert in helpers.family_corpus(four_valent_max_b=15, consecutive_max_k=9,
                                          skip_max_k=11, even_run_max_t=8,
                                          one_two_c_max=16, walecki_ks=(3, 5)):
            for periods in (3, 5, 8):
                assert verify_certificate(cert).accepted == window_oracle(cert, periods).accepted

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
                    assert window_oracle(mutant, periods).accepted == exact
        assert rejected > 0
