import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import hamdec
from hamdec import (
    BadMultisetSize,
    NotPrime,
    find_path,
    sweep,
)
from hamdec import buratti
from hamdec.buratti import enumerate_multisets, multiset_count, unrank_multiset


class TestFindPath:
    def test_walecki_instance(self):
        outcome = find_path(5, [1, 1, 2, 2])
        assert outcome.witness == (0, 1, 4, 2, 3)

    def test_smallest(self):
        assert find_path(3, [1, 1]).witness == (0, 1, 2)

    @pytest.mark.parametrize("lengths", [
        (3, 3, 3, 3, 3, 3, 3, 3),
        (1, 3, 3, 3, 3, 3, 3, 3),
        (2, 3, 3, 3, 3, 3, 3, 3),
        (3, 3, 3, 3, 3, 3, 3, 4),
    ])
    def test_k9_nonexistence(self, lengths):
        outcome = find_path(9, lengths)
        assert not outcome.found
        assert outcome.witness is None

    def test_size_mismatch(self):
        with pytest.raises(BadMultisetSize):
            find_path(5, [1, 1])
        with pytest.raises(BadMultisetSize):
            find_path(5, [1, 1, 2, 3])

    def test_accepts_count_mapping(self):
        # A zero count takes no part, whatever its length.
        for lengths in ({1: 2, 2: 2}, {2: 2, 1: 2, 7: 0}, [2, 1, 2, 1]):
            outcome = find_path(5, lengths)
            assert (outcome.witness, outcome.nodes_expanded) == ((0, 1, 4, 2, 3), 5)
        assert find_path(9, {3: 8}).witness is None

    def test_refusals(self):
        # The message names the offending entry; the checks run in order.
        for k, lengths, error, message in [
            (1, [], ValueError, "modulus must be an integer >= 2, got 1"),
            (5.0, [1, 1, 2, 2], ValueError, "modulus must be an integer >= 2, got 5.0"),
            (True, [], ValueError, "modulus must be an integer >= 2, got True"),
            (5, [1, 1, 2], BadMultisetSize, "multiset has 3 lengths, expected exactly 4"),
            (5, [1, 1, 2, 3], BadMultisetSize, "length 3 outside 1..2 for modulus 5"),
            (5, [0, 1, 2, 2], BadMultisetSize, "length 0 outside 1..2 for modulus 5"),
            (5, ["a", 1, 2, 2], BadMultisetSize, "length 'a' outside 1..2 for modulus 5"),
            (5, {1: -1, 2: 5}, BadMultisetSize, "negative multiplicity for length 1"),
            # Counts are checked before lengths, lengths before the total.
            (5, {7: 1, 1: -1}, BadMultisetSize, "negative multiplicity for length 1"),
            (5, {7: 1, 1: 9}, BadMultisetSize, "length 7 outside 1..2 for modulus 5"),
            (1_000_001, {1: 1_000_001}, BadMultisetSize,
             "multiset has 1000001 lengths, expected exactly 1000000"),
            # A count or length that is not an int never reaches the search.
            (5, {1: 1.5, 2: 2.5}, BadMultisetSize,
             "multiplicity 1.5 for length 1 is not an integer"),
            (5, {1: 2, 2: 2.0}, BadMultisetSize,
             "multiplicity 2.0 for length 2 is not an integer"),
            (5, {1: 2, 2: True}, BadMultisetSize,
             "multiplicity True for length 2 is not an integer"),
            (3, [True, True], BadMultisetSize, "length True outside 1..1 for modulus 3"),
            (5, [1, True, 2, 2], BadMultisetSize, "length True outside 1..2 for modulus 5"),
            (5, [1, 1, 2, 2.0], BadMultisetSize, "length 2.0 outside 1..2 for modulus 5"),
        ]:
            with pytest.raises(error) as info:
                find_path(k, lengths)
            assert type(info.value) is error and str(info.value) == message

    def test_soundness_over_all_small_multisets(self):
        for k in range(3, 10):
            for lengths in combinations_with_replacement(range(1, k // 2 + 1), k - 1):
                outcome = find_path(k, lengths)
                if outcome.found:
                    assert helpers.is_hamilton_with_lengths(outcome.witness, k, lengths)

    def test_matches_fixed_start_oracle(self):
        for k in range(2, 7):
            for lengths in combinations_with_replacement(range(1, k // 2 + 1), k - 1):
                assert find_path(k, lengths).found == helpers.naive_find(k, lengths)

    def test_matches_oracle_at_k9(self):
        for lengths in combinations_with_replacement((1, 2, 3, 4), 8):
            assert find_path(9, lengths).found == helpers.naive_find(9, lengths)

    def test_symmetry_reductions_do_not_change_status(self):
        # The oracle here enumerates every vertex sequence with no symmetry
        # reduction at all.
        for k in range(2, 7):
            for lengths in combinations_with_replacement(range(1, k // 2 + 1), k - 1):
                assert find_path(k, lengths).found == helpers.naive_find_unreduced(k, lengths)

    def test_matches_reference_search(self):
        # Same witness and same node count on every multiset: the iterative
        # search explores exactly the recursive search's tree, in its order.
        cases = 0
        for k in range(2, 12):
            for lengths in combinations_with_replacement(range(1, k // 2 + 1), k - 1):
                got = find_path(k, lengths)
                want = helpers.reference_find_path(k, lengths)
                assert (got.witness, got.nodes_expanded) == (want.witness, want.nodes_expanded)
                cases += 1
        assert cases == 2061

    def test_matches_reference_search_beyond_k11(self):
        # The exhaustive check above stops at k = 11 and the pinned sweeps
        # are all prime: 200 seeded multisets with k in 12..24, 91 of them
        # with an even k that uses the length k/2, whose two moves coincide.
        rng = random.Random(18)
        cases = []
        for _ in range(200):
            k = rng.randint(12, 24)
            cases.append((k, [rng.randint(1, k // 2) for _ in range(k - 1)]))
        assert sum(k % 2 == 0 and k // 2 in lengths for k, lengths in cases) == 91
        nodes = 0
        for k, lengths in cases:
            got = find_path(k, lengths)
            want = helpers.reference_find_path(k, lengths)
            assert (got.witness, got.nodes_expanded) == (want.witness, want.nodes_expanded)
            nodes += got.nodes_expanded
        assert nodes == 102990

    @pytest.mark.parametrize("k, lengths, nodes", [
        (25, {5: 21, 1: 3}, 9109),
        (35, {7: 30, 1: 4}, 84858),
        (24, {3: 21, 12: 1, 1: 1}, 1469),  # k even, with the length k/2
    ])
    def test_matches_reference_on_deep_exhausted_searches(self, k, lengths, nodes):
        # Return-heavy searches, far deeper than any exhausted one at k <= 11.
        got = find_path(k, lengths)
        want = helpers.reference_find_path(k, lengths)
        assert (got.witness, got.nodes_expanded) == (want.witness, want.nodes_expanded)
        assert (got.witness, got.nodes_expanded) == (None, nodes)

    def test_long_path_needs_no_recursion(self):
        outcome = find_path(1001, [1] * 1000)
        assert outcome.witness == tuple(range(1001))
        assert outcome.nodes_expanded == 1000

    def test_deterministic(self):
        a = find_path(9, [1, 2, 3, 4, 4, 4, 4, 4])
        b = find_path(9, [1, 2, 3, 4, 4, 4, 4, 4])
        assert a.witness == b.witness and a.nodes_expanded == b.nodes_expanded


@given(st.integers(2, 9), st.data())
@settings(max_examples=80, deadline=None)
def test_found_witness_is_always_sound(k, data):
    lengths = data.draw(st.lists(st.integers(1, k // 2), min_size=k - 1, max_size=k - 1))
    outcome = find_path(k, lengths)
    if outcome.found:
        assert helpers.is_hamilton_with_lengths(outcome.witness, k, lengths)


class TestSweep:
    def test_p5(self):
        report = sweep(5)
        assert len(report.entries) == report.total == 5
        assert report.clean

    def test_p7(self):
        report = sweep(7)
        assert len(report.entries) == 28
        assert not report.failures

    def test_not_prime(self):
        for p in (1, 2, 4, 9, 15):
            with pytest.raises(NotPrime):
                sweep(p)

    def test_counts_match_stars_and_bars(self):
        for p in (3, 5, 7, 11):
            assert multiset_count(p) == sum(1 for _ in enumerate_multisets(p))

    def test_unrank_matches_enumeration(self):
        for p in (3, 5, 7, 11, 13):
            assert [unrank_multiset(p, i) for i in range(multiset_count(p))] == \
                   list(enumerate_multisets(p))
        assert unrank_multiset(31, 0) == (1,) * 30
        assert unrank_multiset(31, multiset_count(31) - 1) == (15,) * 30

    def test_sampling_is_seeded_and_stable(self):
        a = sweep(11, sample=50, seed=4)
        b = sweep(11, sample=50, seed=4)
        assert a.sampled and len(a.entries) == 50
        assert [m for m, _ in a.entries] == [m for m, _ in b.entries]
        assert [o.witness for _, o in a.entries] == [o.witness for _, o in b.entries]

    def test_sample_larger_than_space_runs_everything(self):
        report = sweep(5, sample=100)
        assert not report.sampled and len(report.entries) == 5

    def test_sweep_13_pinned(self):
        # Digest of the recursive search's report: multisets, witnesses and
        # node counts must stay byte-identical.
        report = sweep(13)
        rows = [(m, o.witness, o.nodes_expanded) for m, o in report.entries]
        assert len(rows) == 6188 and report.clean
        assert sum(n for *_, n in rows) == 291677
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
            "25ac22a26e4bd4392f23d49568fa5fc67982090f5de39b5808e24c5164e16e39"

    @pytest.mark.parametrize("p, sample, jobs, size, nodes, digest", [
        (17, 1000, 2, 1000, 199037,
         "afae137fe5ea145eba1951532c8362b01f5e85fbc1f0818a2564e0e425ac9b8d"),
        (19, 50, 1, 50, 15015,
         "6bd79acd46cc3e9986b84ecd04e3aa5a6d5cb8c8f489e81205176d2c61cba97e"),
    ])
    def test_sampled_sweeps_pinned(self, p, sample, jobs, size, nodes, digest):
        # The p = 17 sample runs on the process pool, the p = 19 one in process.
        report = sweep(p, sample=sample, seed=0, jobs=jobs)
        rows = [(m, o.witness, o.nodes_expanded) for m, o in report.entries]
        assert len(rows) == size and report.sampled
        assert sum(n for *_, n in rows) == nodes
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    def test_parallel_results_identical(self):
        solo = sweep(7, jobs=1)
        multi = sweep(7, jobs=2)
        assert [(m, o.witness) for m, o in solo.entries] == \
               [(m, o.witness) for m, o in multi.entries]


class TestLimits:
    def test_k_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(buratti, "MAX_K", 1001)
        assert find_path(1001, {1: 1000}).witness == tuple(range(1001))
        with pytest.raises(BadMultisetSize, match="above the search cap of 1001"):
            find_path(1003, {1: 1002})

    def test_k_above_real_cap_refused_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(BadMultisetSize):
            find_path(buratti.MAX_K + 1, {1: buratti.MAX_K})
        assert time.perf_counter() - start < 0.5

    def test_search_runs_in_128_mib(self):
        # Twelve lengths at k = 100,001.  A stack holding every untried
        # sibling of every level peaked at 133 MB here; one cursor per depth
        # keeps the search's state O(k + m) for m distinct lengths.
        code = ("from hamdec import find_path; "
                "o = find_path(100001, {1: 99978, **{d: 2 for d in range(2, 13)}}); "
                "print(o.status, o.nodes_expanded)")
        env = {**os.environ, "PYTHONPATH": str(Path(hamdec.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              preexec_fn=helpers.limit_address_space_128_mib,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "found 100601\n", "")

    @pytest.mark.parametrize("sample", [0, -1])
    def test_sample_below_1_refused_before_drawing(self, monkeypatch, sample):
        monkeypatch.setattr(buratti, "unrank_multiset", None)
        monkeypatch.setattr(buratti, "enumerate_multisets", None)
        with pytest.raises(ValueError, match=f"sample must be at least 1, got {sample}$"):
            sweep(7, sample=sample)

    @pytest.mark.parametrize("p, options, message", [
        (7.0, {}, "p must be an integer, got 7.0"),
        (True, {}, "p must be an integer, got True"),
        (7, {"sample": 2.5}, "sample must be an integer, got 2.5"),
        (7, {"jobs": None}, "jobs must be an integer, got None"),
        (7, {"seed": None}, "seed must be an integer, got None"),
        (7, {"seed": [1]}, "seed must be an integer, got [1]"),
        (7, {"seed": True}, "seed must be an integer, got True"),
        (7, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_non_int_arguments_refused_before_drawing(self, monkeypatch, p, options, message):
        monkeypatch.setattr(buratti, "unrank_multiset", None)
        monkeypatch.setattr(buratti, "enumerate_multisets", None)
        with pytest.raises(ValueError) as info:
            sweep(p, **options)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_prime_cap_boundary(self):
        report = sweep(buratti.MAX_SWEEP_PRIME, sample=1, seed=0)
        assert report.sampled and len(report.entries) == 1
        for p in (53, 10**18 + 3):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="above the sweep cap of 47"):
                sweep(p, sample=1)
            assert time.perf_counter() - start < 0.5

    def test_search_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(buratti, "MAX_SWEEP_SEARCHES", 28)
        assert len(sweep(7).entries) == 28
        assert len(sweep(11, sample=28).entries) == 28
        assert len(sweep(7, sample=10**9).entries) == 28  # counted as the whole space
        monkeypatch.setattr(buratti, "MAX_SWEEP_SEARCHES", 27)
        with pytest.raises(ValueError, match="more than the cap of 27 searches"):
            sweep(7)
        with pytest.raises(ValueError, match="more than the cap of 27 searches"):
            sweep(11, sample=28)

    def test_real_search_cap_admits_p19_refuses_p23(self):
        assert multiset_count(19) <= buratti.MAX_SWEEP_SEARCHES < multiset_count(23)
        start = time.perf_counter()
        with pytest.raises(ValueError):
            sweep(23)
        with pytest.raises(ValueError):
            sweep(31, sample=buratti.MAX_SWEEP_SEARCHES + 1)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("cpus, jobs, workers", [(4, 100000, 4), (64, 100000, 5),
                                                     (4, 3, 3), (1, 100000, None),
                                                     (None, 8, None)])
    def test_worker_count_is_capped(self, monkeypatch, cpus, jobs, workers):
        started = []

        class FakeExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(buratti.os, "cpu_count", lambda: cpus)
        report = sweep(5, jobs=jobs)  # 5 multisets
        assert started == ([] if workers is None else [workers])
        rows = [(m, o.witness, o.nodes_expanded) for m, o in report.entries]
        assert rows == [(m, o.witness, o.nodes_expanded) for m, o in sweep(5, jobs=1).entries]
