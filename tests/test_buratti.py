import concurrent.futures
import hashlib
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from hamdec import (
    BadMultisetSize,
    LengthMultiset,
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
        with pytest.raises(BadMultisetSize):
            find_path(5, LengthMultiset(7, [1, 1, 2, 2, 3, 3]))

    def test_accepts_multiset_type(self):
        assert find_path(5, LengthMultiset(5, {1: 2, 2: 2})).found

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

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(buratti.os, "cpu_count", lambda: cpus)
        report = sweep(5, jobs=jobs)  # 5 multisets
        assert started == ([] if workers is None else [workers])
        rows = [(m, o.witness, o.nodes_expanded) for m, o in report.entries]
        assert rows == [(m, o.witness, o.nodes_expanded) for m, o in sweep(5, jobs=1).entries]
