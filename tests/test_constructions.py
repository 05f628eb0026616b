import collections
import hashlib
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import edge_length_multiset
from hamdec import (
    CongruenceViolation,
    ConnectionSet,
    ConstructionError,
    DecompositionCertificate,
    FinitePath,
    LengthMultisetMismatch,
    NotAdmissible,
    PeriodTooLarge,
    Unsupported,
    analyze,
    constructions,
    construct,
    construct_4valent,
    construct_consecutive,
    construct_even_run,
    construct_from_zk_path,
    construct_one_two_c,
    construct_skip_k,
    construct_walecki_family,
    construct_with_family,
    verify_certificate,
    walecki_path,
    window_oracle,
)
from hamdec.document import to_json


class TestFourValent:
    def test_smallest_instance(self):
        cert = construct_4valent(1, 3)
        assert cert.starter.vertices == (0, 1, 4, 5, 2, 3, 6)
        assert cert.period == 6
        assert cert.offsets == (0, 3)

    def test_three_five(self):
        cert = construct_4valent(3, 5)
        assert cert.period == 10
        assert cert.starter.edge_count == 10
        assert verify_certificate(cert).accepted

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            construct_4valent(1, 2)
        with pytest.raises(NotAdmissible):
            construct_4valent(3, 9)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            construct_4valent(5, 3)

    def test_alternation_and_counts_up_to_60(self):
        for b in range(3, 61, 2):
            for a in range(1, b, 2):
                if math.gcd(a, b) != 1:
                    continue
                cert = construct_4valent(a, b)
                lengths = [v - u for u, v in cert.starter.edges()]
                assert lengths == [a, b] * b  # strict alternation, b edges each
                assert cert.starter.first == 0 and cert.starter.last == 2 * b


class TestZkLift:
    def test_walecki_path_values(self):
        assert walecki_path(5).vertices == (0, 1, 4, 2, 3)
        assert walecki_path(3).vertices == (0, 1, 2)
        assert walecki_path(7).vertices == (0, 1, 6, 2, 5, 3, 4)

    def test_walecki_path_lengths(self):
        from hamdec import circular_length
        for k in range(3, 22, 2):
            q = walecki_path(k)
            lengths = sorted(circular_length(u, v, k) for u, v in zip(q.vertices, q.vertices[1:]))
            expected = sorted(d for d in range(1, (k - 1) // 2 + 1) for _ in range(2))
            assert lengths == expected

    def test_smallest_admissible_triple(self):
        # {1, 5, 3}: gcd 1 and 1+5+3 = 9 odd with |S+| = 3 odd.
        cert = construct_from_zk_path(3, (1, 5), FinitePath((0, 1, 2)))
        assert cert.period == 6
        assert cert.offsets == (0, 2, 4)
        assert verify_certificate(cert).accepted

    def test_walecki_family_k5(self):
        cert = construct_walecki_family(5, (1, 2, 3, 4))
        assert cert.period == 10
        assert cert.offsets == (0, 2, 4, 6, 8)
        assert cert.connection_set.s_plus == (1, 2, 3, 4, 5)

    def test_walecki_family_not_admissible(self):
        with pytest.raises(NotAdmissible):
            construct_walecki_family(3, (1, 2))
        with pytest.raises(NotAdmissible):
            construct_walecki_family(5, (6, 2, 3, 4))

    def test_walecki_family_congruence(self):
        with pytest.raises(CongruenceViolation):
            construct_walecki_family(5, (2, 1, 3, 4))

    def test_multiset_mismatch(self):
        with pytest.raises(LengthMultisetMismatch):
            construct_from_zk_path(5, (1, 2, 3, 4), FinitePath((0, 1, 2, 3, 4)))

    def test_non_hamilton_q(self):
        with pytest.raises(LengthMultisetMismatch):
            construct_from_zk_path(3, (1, 5), FinitePath((0, 1, 4)))  # 4 = 1 mod 3

    def test_opposite_parity_residues(self):
        rng = random.Random(0)
        for k in (3, 5, 7, 9, 11):
            cert = construct_walecki_family(k, helpers.walecki_magnitudes(k, rng))
            tables = helpers.reference_residue_tables(cert)
            for d, residues in tables.items():
                assert len(residues) == 2
                assert residues[0] % 2 != residues[1] % 2


class TestConsecutive:
    def test_k4_starter(self):
        cert = construct_consecutive(4)
        assert cert.starter.vertices == (0, -1, 1, 5, 2, 3, 6, 4, 8)
        assert cert.period == 8
        assert cert.offsets == (0, 2, 4, 6)

    def test_k1_trivial(self):
        cert = construct_consecutive(1)
        assert cert.starter.vertices == (0, 1)
        assert cert.period == 1
        assert cert.offsets == (0,)

    def test_not_admissible(self):
        for k in (2, 3, 6, 7, 10, 11):
            with pytest.raises(NotAdmissible):
                construct_consecutive(k)

    @pytest.mark.parametrize("k, digest", [
        (997, "43e91d81338a1eed3533b0f1dc10ff24f1749b0fa6fc5d440e054dd18c06f585"),
        (1001, "b8bd8f24af3d7e43414a190bbe5ca104a8f84affb206bf86fec82d8ceb6cae85"),
        (1101, "73c5af6397d593efbb94d0adbdecdc2533ec8a1e2c96df8b21ccd6349d416b83"),
    ])
    def test_large_lift_documents(self, k, digest):
        # k = 1 mod 4 goes through the Z_k lift with k - 1 magnitudes; these
        # sizes exceed the default recursion limit, and the digests pin the
        # certificate documents byte for byte.
        cert = construct_consecutive(k)
        doc = to_json(cert, provenance=f"consecutive(S+={cert.connection_set})")
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    @pytest.mark.parametrize("k", [8, 12, 16, 20])
    def test_edge_listing_for_k_divisible_by_4(self, k):
        # Independent reconstruction of the starter's edge set from the
        # per-length positions: one edge of length d at x = u - floor(d/2)
        # and one at x = v - floor(d/2) - 1 for middle lengths, plus the
        # special positions for lengths 1, 2, k-1 and k.
        u, v = k // 2, 3 * k // 2
        expected = set()
        for x in (-1, u):
            expected.add((x, x + 1))
        for x in (-1, v - 2):
            expected.add((x, x + 2))
        for d in range(3, k - 1):
            for x in (u - d // 2, v - d // 2 - 1):
                expected.add((x, x + d))
        for x in (u, u + 1):
            expected.add((x, x + k - 1))
        for x in (u - 1, k):
            expected.add((x, x + k))
        cert = construct_consecutive(k)
        assert set(cert.starter.edges()) == expected
        assert cert.starter.edge_count == 2 * k


class TestSkipK:
    def test_k3_starter(self):
        cert = construct_skip_k(3)
        assert cert.starter.vertices == (0, 1, -1, 3)
        assert cert.period == 3
        assert cert.offsets == (0, 1, 2)

    def test_k6_starter(self):
        cert = construct_skip_k(6)
        assert cert.starter.vertices == (0, 2, -3, -2, -5, -1, 6)

    def test_k2_delegates_to_4valent(self):
        assert construct_skip_k(2) == construct_4valent(1, 3)

    def test_not_admissible(self):
        for k in (4, 5, 8, 9):
            with pytest.raises(NotAdmissible):
                construct_skip_k(k)

    @pytest.mark.parametrize("k", [7, 11, 15, 19])
    def test_residue_listing_for_k_3_mod_4(self, k):
        # The starter's vertices, mod k, follow the zigzag listing
        # 0, 1, k-2, 3, k-4, ..., then (k+1)/2, (k-3)/2, (k+5)/2, ...,
        # ending k-1, 0.
        listing = [0]
        lo, hi = 1, k - 2
        while lo < hi:
            listing += [lo, hi]
            lo, hi = lo + 2, hi - 2
        if lo == hi:
            listing.append(lo)
        listing.append((k + 1) // 2)
        a, b = (k - 3) // 2, (k + 5) // 2
        while a >= 2:
            listing += [a, b]
            a, b = a - 2, b + 2
        listing.append(0)
        cert = construct_skip_k(k)
        assert [x % k for x in cert.starter.vertices] == listing
        assert cert.starter.last == k

    @pytest.mark.parametrize("k", [k for k in range(3, 25) if k % 4 in (2, 3)])
    def test_one_edge_per_length(self, k):
        cert = construct_skip_k(k)
        assert edge_length_multiset(cert.starter) == {d: 1 for d in cert.connection_set.s_plus}
        assert len(cert.offsets) == cert.period == k


class TestEvenRun:
    @pytest.mark.parametrize("t,expected", [
        (4, (0, 1, 3, 7, -1, 5)),
        (6, (0, 1, 5, 3, -3, 9, -1, 7)),
        (8, (0, 1, 7, 3, 5, 13, -3, 11, -1, 9)),
        (10, (0, 1, 9, 3, 7, 5, -5, 15, -3, 13, -1, 11)),
    ])
    def test_golden_starters(self, t, expected):
        cert = construct_even_run(t)
        assert cert.starter.vertices == expected
        assert cert.period == t + 1
        assert cert.offsets == tuple(range(t + 1))

    def test_t2_delegates(self):
        assert construct_even_run(2) == construct_skip_k(3)

    def test_odd_t_not_admissible(self):
        for t in (1, 3, 5, 7):
            with pytest.raises(NotAdmissible):
                construct_even_run(t)

    @pytest.mark.parametrize("t", list(range(4, 31, 2)))
    def test_one_edge_per_length(self, t):
        cert = construct_even_run(t)
        assert edge_length_multiset(cert.starter) == {d: 1 for d in cert.connection_set.s_plus}
        assert len(cert.offsets) == cert.period == t + 1


class TestOneTwoC:
    def test_t4_starter(self):
        cert = construct_one_two_c(8)
        assert cert.starter.vertices == (0, 1, 9, 11, 3, 5, 6, 7, 8, 10, 2, 4, 12)

    def test_t3_starter(self):
        cert = construct_one_two_c(6)
        assert cert.starter.vertices == (0, 1, 7, 8, 2, 4, 6, 5, 3, 9)

    def test_odd_c_not_admissible(self):
        with pytest.raises(NotAdmissible):
            construct_one_two_c(7)

    def test_c4_delegates(self):
        assert construct_one_two_c(4) == construct_skip_k(3)

    @pytest.mark.parametrize("t", list(range(3, 31)))
    def test_t_edges_of_each_length(self, t):
        cert = construct_one_two_c(2 * t)
        assert edge_length_multiset(cert.starter) == {1: t, 2: t, 2 * t: t}
        assert cert.period == 3 * t
        assert cert.offsets == (0, t, 2 * t)

    @pytest.mark.parametrize("t", [3, 5, 7, 9, 11])
    def test_case1_edge_listing(self, t):
        cert = construct_one_two_c(2 * t)
        expected = {(x, x + 1) for x in range(0, t - 2, 2)}
        expected |= {(x, x + 1) for x in range(2 * t - 1, 3 * t - 1, 2)}
        expected |= {(x, x + 2) for x in range(t - 1, 2 * t - 1)}
        expected |= {(x, x + 2 * t) for x in range(1, t + 1)}
        assert set(cert.starter.edges()) == expected

    @pytest.mark.parametrize("t", [8, 12, 16, 20])
    def test_case2_edge_listing(self, t):
        cert = construct_one_two_c(2 * t)
        expected = {(x, x + 1) for x in (0, 2, 4, t + 1, t + 3)}
        expected |= {(x, x + 1) for x in range(t + 5, 2 * t)}
        expected |= {(x, x + 2) for x in range(6, t + 4) if x % 4 in (2, 3)}
        expected |= {(x, x + 2) for x in range(2 * t, 3 * t - 2) if x % 4 in (0, 1)}
        expected |= {(x, x + 2 * t) for x in range(1, t + 1)}
        assert set(cert.starter.edges()) == expected

    @pytest.mark.parametrize("t", [6, 10, 14, 18])
    def test_case3_edge_listing(self, t):
        cert = construct_one_two_c(2 * t)
        expected = {(x, x + 1) for x in (0, 2, t + 1, t + 3, 2 * t + 4)}
        expected |= {(x, x + 1) for x in range(t + 5, 2 * t)}
        expected |= {(x, x + 2) for x in (2 * t, 2 * t + 1)}
        expected |= {(x, x + 2) for x in range(4, t + 4) if x % 4 in (0, 1)}
        expected |= {(x, x + 2) for x in range(2 * t + 6, 3 * t - 2) if x % 4 in (2, 3)}
        expected |= {(x, x + 2 * t) for x in range(1, t + 1)}
        assert set(cert.starter.edges()) == expected


class TestDispatcher:
    def test_family_selection(self):
        assert construct_with_family(ConnectionSet([1, 5]))[0] == "four-valent"
        assert construct_with_family(ConnectionSet([1, 2, 3, 4, 5]))[0] == "consecutive"
        assert construct_with_family(ConnectionSet([1, 2, 4]))[0] == "skip-k"
        assert construct_with_family(ConnectionSet([1, 2, 4, 6, 8]))[0] == "even-run"
        assert construct_with_family(ConnectionSet([1, 2, 10]))[0] == "one-two-c"
        assert construct_with_family(ConnectionSet([3, 5, 7]))[0] == "cyclic-lift"

    def test_not_admissible_first(self):
        with pytest.raises(NotAdmissible):
            construct(ConnectionSet([1, 2]))

    def test_unsupported_lists_families(self):
        with pytest.raises(Unsupported) as exc:
            construct(ConnectionSet([4, 6, 9]))
        assert "consecutive" in exc.value.tried
        assert "cyclic-lift" in exc.value.tried

    def test_deterministic(self):
        s = ConnectionSet([3, 5, 7])
        assert construct(s) == construct(s)

    def test_cyclic_lift_1001(self):
        # Every a = 1 + 1001 i has cyclic length 1 in Z_1001, so the search
        # needs the path 0, 1, ..., 1000: deeper than the recursion limit.
        s = ConnectionSet([1 + 1001 * i for i in range(1000)] + [1001])
        family, cert = construct_with_family(s)
        assert family == "cyclic-lift"
        assert cert.period == 2002
        assert verify_certificate(cert).accepted

    def test_every_output_verifies(self):
        for s in ([1, 5], [1, 2, 3, 4], [1, 2, 4], [1, 2, 4, 6, 8], [1, 2, 12], [3, 5, 7],
                  [5, 7, 9, 11, 27]):
            assert verify_certificate(construct(ConnectionSet(s))).accepted

    def test_every_admissible_pair_decomposes(self):
        # The paper's k = 2 theorem: every connected 4-valent circulant that
        # passes the necessary conditions decomposes into two Hamilton paths.
        # Each admissible {a, b} with b <= 100 is built and both checks accept
        # it; each other pair is refused as not admissible, and nothing else
        # is raised.
        families = collections.Counter()
        for b in range(2, 101):
            for a in range(1, b):
                s = ConnectionSet([a, b])
                if not analyze(s).admissible:
                    with pytest.raises(NotAdmissible):
                        construct_with_family(s)
                    continue
                family, cert = construct_with_family(s)
                assert verify_certificate(cert).accepted and window_oracle(cert, 3).accepted, s
                families[family] += 1
        assert families == {"four-valent": 1002, "skip-k": 1}


class TestShortRefusals:
    """A refusal names its set in under 200 characters, however many generators it has."""

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible) as exc:
            construct(ConnectionSet(range(1, 10**6 + 3)))
        assert str(exc.value) == ("S+={1, 2, 3, ..., 1000000, 1000001, 1000002} (1000002 values) "
                                  "is not admissible: generator-sum parity violated")

    def test_unsupported(self):
        with pytest.raises(Unsupported) as exc:
            construct(ConnectionSet([*range(2, 10**6 + 1), 10**6 + 1]))
        assert str(exc.value).startswith(
            "no known construction for S+={2, 3, 4, ..., 999999, 1000000, 1000001} "
            "(1000000 values); families tried: consecutive, ")
        assert len(str(exc.value)) < 200

    def test_period_too_large(self):
        # The cyclic lift of k = 500001 needs period 1000002.
        k = 500001
        with pytest.raises(PeriodTooLarge) as exc:
            construct(ConnectionSet([k, *range(k + 1, 2 * k)]))
        assert str(exc.value) == (
            "S+={500001, 500002, 500003, ..., 999999, 1000000, 1000001} (500001 values) needs "
            "a cyclic-lift certificate of period 1000002, more than the cap of 1000000")

    def test_period_check_formats_only_refusals(self, monkeypatch):
        # Each constructor that names its set by ``format_ints`` checks its
        # period on every call; only a refusal may pay for the text.
        def refuse(*args):
            raise AssertionError("format_ints called without a refusal")

        monkeypatch.setattr(constructions, "format_ints", refuse)
        certs = [construct_4valent(1, 3), construct_consecutive(5), construct_one_two_c(6),
                 construct_with_family(ConnectionSet([1, 3, 5]))[1]]
        assert all(verify_certificate(cert).accepted for cert in certs)

    def test_lift_with_a_repeated_magnitude(self):
        a_list = [*range(1, 10**6), 1]
        with pytest.raises(ValueError) as exc:
            construct_from_zk_path(10**6 + 1, a_list, FinitePath(range(10**6 + 1)))
        assert str(exc.value) == ("need 1000000 distinct magnitudes, "
                                  "got (1, 2, 3, ..., 999998, 999999, 1) (1000000 values)")


class TestChainRun:
    """``_Chain.run`` adds the same steps as one ``block`` per start, or raises the same error."""

    @staticmethod
    def added(start, starts, steps, *, per_block):
        chain = constructions._Chain(start)
        try:
            if per_block:
                for v in starts:
                    chain.block(v, steps)
            else:
                chain.run(starts, steps)
        except ConstructionError:
            return ConstructionError
        return chain.steps, chain.cursor

    def check(self, start, starts, steps):
        expected = self.added(start, starts, steps, per_block=True)
        assert self.added(start, starts, steps, per_block=False) == expected
        return expected

    def test_empty_range_adds_nothing(self):
        assert self.check(3, range(3, 3, 2), (1, 1)) == ([], 3)
        assert self.check(0, range(5, 9, -1), (7,)) == ([], 0)

    def test_matching_run(self):
        assert self.check(4, range(4, 13, 4), (8, -2, -8, 6)) == ([8, -2, -8, 6] * 3, 16)
        assert self.check(9, range(9, 0, -3), (1, -4)) == ([1, -4] * 3, 0)

    def test_mismatched_start(self):
        assert self.check(0, range(1, 9, 2), (1, 1)) is ConstructionError

    def test_wrong_displacement(self):
        assert self.check(0, range(0, 9, 2), (1, 2)) is ConstructionError
        # A single start has no displacement to check.
        assert self.check(0, range(0, 1, 2), (1, 2)) == ([1, 2], 3)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_block_loop(self, data):
        first = data.draw(st.integers(-6, 6))
        step = data.draw(st.integers(-4, 4).filter(bool))
        starts = range(first, data.draw(st.integers(-12, 12)), step)
        steps = data.draw(st.lists(st.integers(-6, 6).filter(bool), max_size=4))
        if data.draw(st.booleans()) and step != sum(steps):
            steps.append(step - sum(steps))
        start = first if data.draw(st.booleans()) else data.draw(st.integers(-6, 6))
        self.check(start, starts, tuple(steps))


def document_bytes(cert) -> str:
    return to_json(cert, provenance="p")


def four_valent_matches_reference(a, b):
    ref = DecompositionCertificate(ConnectionSet((a, b)), 2 * b,
                                   helpers.reference_4valent_starter(a, b), (0, b))
    assert document_bytes(construct_4valent(a, b)) == document_bytes(ref)


def one_two_c_matches_reference(c):
    t = c // 2
    ref = DecompositionCertificate(ConnectionSet((1, 2, c)), 3 * t,
                                   helpers.reference_one_two_c_starter(c), (0, t, 2 * t))
    assert document_bytes(construct_one_two_c(c)) == document_bytes(ref)


class TestMatchesPerBlockReference:
    """Runs of blocks build the same documents as one block at a time."""

    def test_four_valent_up_to_61(self):
        for b in range(3, 62, 2):
            for a in range(1, b, 2):
                if math.gcd(a, b) == 1:
                    four_valent_matches_reference(a, b)

    # Runs of one block (a = 1) up to runs of b / 2 blocks (t = b - a = 2).
    @pytest.mark.parametrize("a, b", [(1, 1001), (997, 999), (499, 1001), (601, 1003),
                                      (12343, 47325)])
    def test_four_valent_large(self, a, b):
        four_valent_matches_reference(a, b)

    def test_one_two_c_up_to_400(self):
        for c in range(6, 402, 2):
            one_two_c_matches_reference(c)

    # t = c / 2 = 1000, 1001, 1002, 1003 (0, 1, 2, 3 mod 4) and the benchmark's
    # 31801; t = 4 is in the small range.
    @pytest.mark.parametrize("c", [2000, 2002, 2004, 2006, 63602])
    def test_one_two_c_large(self, c):
        one_two_c_matches_reference(c)


class TestPeriodCap:
    # One set per family, with its period in closed form.
    CASES = [([1, 2, 3, 4], "consecutive", 8), ([1], "consecutive", 1),
             ([1, 2, 3, 4, 5, 7], "skip-k", 6), ([1, 3], "skip-k", 6),
             ([1, 2, 4, 6, 8], "even-run", 5), ([1, 2, 10], "one-two-c", 15),
             ([1, 5], "four-valent", 10), ([3, 5, 7], "cyclic-lift", 6)]

    @pytest.mark.parametrize("s, family, period", CASES)
    def test_boundary(self, monkeypatch, s, family, period):
        monkeypatch.setattr(constructions, "MAX_PERIOD", period)
        assert construct_with_family(ConnectionSet(s))[0] == family
        assert construct(ConnectionSet(s)).period == period
        monkeypatch.setattr(constructions, "MAX_PERIOD", period - 1)
        with pytest.raises(PeriodTooLarge, match=f"{family} certificate of period {period},"):
            construct_with_family(ConnectionSet(s))

    def test_huge_sets_refused_before_building(self):
        for s, period in (([1, 99999999], 199999998), ([1, 2**63 - 1], 2**64 - 2),
                          ([1, 2, 10**12], 3 * 10**12 // 2)):
            with pytest.raises(PeriodTooLarge, match=f"period {period},"):
                construct_with_family(ConnectionSet(s))

    def test_not_admissible_and_unsupported_come_first(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_PERIOD", 1)
        with pytest.raises(NotAdmissible):
            construct(ConnectionSet([1, 2]))
        with pytest.raises(Unsupported):
            construct(ConnectionSet([4, 6, 9]))


class TestConstructorPeriodCap:
    # Each public constructor refuses on its own, before it builds or
    # delegates; the first three delegate to other families.
    CASES = {"skip_k(2)": (lambda: construct_skip_k(2), "skip-k", 6),
             "even_run(2)": (lambda: construct_even_run(2), "even-run", 3),
             "one_two_c(4)": (lambda: construct_one_two_c(4), "one-two-c", 3),
             "consecutive(1)": (lambda: construct_consecutive(1), "consecutive", 1),
             "consecutive(4)": (lambda: construct_consecutive(4), "consecutive", 8),
             "consecutive(5)": (lambda: construct_consecutive(5), "consecutive", 10),
             "skip_k(6)": (lambda: construct_skip_k(6), "skip-k", 6),
             "even_run(4)": (lambda: construct_even_run(4), "even-run", 5),
             "one_two_c(10)": (lambda: construct_one_two_c(10), "one-two-c", 15),
             "4valent(1,5)": (lambda: construct_4valent(1, 5), "four-valent", 10),
             "walecki_family(5)": (lambda: construct_walecki_family(5, (6, 2, 8, 4)),
                                   "cyclic-lift", 10),
             "from_zk_path(3)": (lambda: construct_from_zk_path(3, (7, 11), FinitePath((0, 1, 2))),
                                 "cyclic-lift", 6)}

    @pytest.mark.parametrize("call, family, period", CASES.values(), ids=CASES)
    def test_boundary(self, monkeypatch, call, family, period):
        monkeypatch.setattr(constructions, "MAX_PERIOD", period)
        assert call().period == period
        monkeypatch.setattr(constructions, "MAX_PERIOD", period - 1)
        with pytest.raises(PeriodTooLarge, match=f"{family} certificate of period {period},"):
            call()

    def test_walecki_path_boundary(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_PERIOD", 10)
        assert walecki_path(5).vertices == (0, 1, 4, 2, 3)
        monkeypatch.setattr(constructions, "MAX_PERIOD", 9)
        with pytest.raises(PeriodTooLarge,
                           match="Z_5 lifts to a cyclic-lift certificate of period 10,"):
            walecki_path(5)

    def test_real_cap_refuses_at_once(self):
        started = time.perf_counter()
        with pytest.raises(PeriodTooLarge, match="four-valent certificate of period 3000002,"):
            construct_4valent(1, 1_500_001)
        with pytest.raises(PeriodTooLarge, match="period 1000002,"):
            walecki_path(500_001)
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize("build, family, period", [
        (construct_consecutive, "consecutive", 4_000_000),
        (construct_skip_k, "skip-k", 2_000_000),
        (construct_even_run, "even-run", 2_000_001)])
    def test_run_families_refuse_before_building_the_set(self, build, family, period):
        # S+ would hold two million generators; the refusal builds none of them.
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(PeriodTooLarge,
                               match=f"{family} certificate of period {period},") as info:
                build(2_000_000)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20 and len(str(info.value)) < 200

    def test_run_families_check_the_period_before_admissibility(self, monkeypatch):
        # A direct call checks the period first; the dispatcher checks
        # admissibility first, as before.
        monkeypatch.setattr(constructions, "MAX_PERIOD", 1)
        for build, n in ((construct_consecutive, 6), (construct_skip_k, 4), (construct_even_run, 3)):
            with pytest.raises(PeriodTooLarge):
                build(n)
        with pytest.raises(NotAdmissible):
            construct_with_family(ConnectionSet(range(1, 7)))
