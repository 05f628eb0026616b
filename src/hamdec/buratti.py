"""Search for Hamilton paths in the complete graph on Z_k with prescribed edge lengths.

The search is a depth-first extension of a partial path anchored at 0.  Two
symmetry reductions are applied, neither of which can change the
found/exhausted status: translation (any witness can be shifted to start at
0) and reflection through 0 (which maps witnesses to witnesses and swaps the
second vertex w with k - w, so only w <= k - w needs exploring).  At each
step the next edge length is chosen by largest remaining multiplicity first,
smaller length on ties, and the step in the negative direction is tried
before the positive one; the first complete path under this order is the
canonical witness, so results are deterministic.

The search is a loop, so it has no recursion-depth limit.  The lengths with
uses left are kept in ``order``, sorted by the int key
``d - remaining[d] * k``: taking a use moves its length further on with
``bisect.insort`` when its larger key passes the next one, and undoing the
use puts it back at its old index, so a node always finds the order as it
left it.  Move 2i of a node steps down by ``order[i]`` and move 2i + 1 steps
up by it, and one scan over the move indices picks every move: a new vertex
scans from move 0, the root only its up moves.  ``cursor`` holds, for each
vertex of the path, the move that led on from it; a return to the vertex
reads the undone length off the last edge of the path and resumes the scan
after that move.  The state is ``path`` and ``cursor``, one entry per
depth, the order and a key per length, so its memory is O(k + m) for m
distinct lengths.
"""
from __future__ import annotations

import bisect
import math
import os
import random
import time
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations_with_replacement, repeat

from .errors import BadMultisetSize, NotPrime
from .model import Value

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"

# The largest k ``find_path`` searches; its state grows linearly in k, and a
# cyclic-lift search has k <= MAX_PERIOD / 2 = 500,000.  At the cap the
# search peaks at 73 MB with 1, 2 or 5 distinct lengths (1x999999,
# 1x999997,2x2 and 1x999991,2x2,3x2,4x2,5x2; Python 3.11, 2-core host).
MAX_K = 1_000_000
# The largest prime ``sweep`` takes: from p = 53 on the multiset count
# exceeds sys.maxsize, which ``random.sample`` cannot draw from.
MAX_SWEEP_PRIME = 47
# The most searches one sweep runs; the full p = 19 sweep runs 1,562,275, the
# full p = 23 sweep would run 64.5M.
MAX_SWEEP_SEARCHES = 2_000_000


class SearchOutcome(Value):
    witness: tuple[int, ...] | None
    nodes_expanded: int
    elapsed: float

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def status(self) -> str:
        return STATUS_FOUND if self.found else STATUS_EXHAUSTED


def find_path(k: int, lengths: Mapping[int, int] | Iterable[int]) -> SearchOutcome:
    """Complete search for a Hamilton path on Z_k realizing the k - 1 given lengths.

    ``lengths`` is an iterable of lengths or a length -> count mapping.  The
    checks run in this order: k must be an int >= 2 (ValueError); then, as
    BadMultisetSize, each count of a mapping must be an int >= 0, each
    length an int (not a bool) in 1..k//2, the lengths must total k - 1, and
    k must not exceed ``MAX_K``, which is refused before the search
    allocates anything.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {k!r}")
    if isinstance(lengths, Mapping):
        for length, count in lengths.items():
            if not isinstance(count, int) or isinstance(count, bool):
                raise BadMultisetSize(f"multiplicity {count!r} for length {length!r} "
                                      f"is not an integer")
            if count < 0:
                raise BadMultisetSize(f"negative multiplicity for length {length}")
        entries = counts = {d: c for d, c in lengths.items() if c}
    else:
        entries = tuple(lengths)
        counts = Counter(entries)
    # Each entry, not just each key: a bool or a float equal to an earlier int
    # length would merge into its count.
    for length in entries:
        if not isinstance(length, int) or isinstance(length, bool) or not 1 <= length <= k // 2:
            raise BadMultisetSize(f"length {length!r} outside 1..{k // 2} for modulus {k}")
    total = sum(counts.values())
    if total != k - 1:
        raise BadMultisetSize(f"multiset has {total} lengths, expected exactly {k - 1}")
    if k > MAX_K:
        raise BadMultisetSize(f"k={k} is above the search cap of {MAX_K}")
    key = [0] * (k // 2 + 1)  # key[d] = d - remaining[d] * k: sorts by (-remaining, d)
    for d, c in counts.items():
        key[d] = d - c * k
    by_key = key.__getitem__
    order = sorted(counts, key=by_key)  # the lengths with uses left, in search order
    visited = bytearray(k)
    visited[0] = 1
    path = [0]
    cursor: list[int] = []  # cursor[i] is the move of path[i] that led to path[i + 1]
    nodes = 0
    started = time.perf_counter()

    # The root scans only the up moves, the odd ones: a down move lands
    # above k/2.
    w = 0
    mv = 1
    stride = 2
    while True:
        # Scan w's moves from mv on: move 2i steps down by order[i], move
        # 2i + 1 steps up by it.
        end = 2 * len(order)
        while mv < end:
            d = order[mv >> 1]
            x = (w + d if mv & 1 else w - d) % k
            if not visited[x]:
                break
            mv += stride
        else:
            # No move left: back to the parent.  The undone length goes
            # back to index mv >> 1, so the parent's order is as it was and
            # its scan resumes after the move just undone.
            if len(path) == 1:
                return SearchOutcome(None, nodes, time.perf_counter() - started)
            x = path.pop()
            visited[x] = 0
            w = path[-1]
            mv = cursor.pop()
            d = (x - w) % k if mv & 1 else (w - x) % k
            i = mv >> 1
            kd = key[d]
            key[d] = kd - k
            if kd >= 0:
                order.insert(i, d)
            elif order[i] != d:
                order.remove(d)
                order.insert(i, d)
            stride = 2 if len(path) == 1 else 1
            mv += stride
            continue
        # Take the move: d leaves the order, or with uses left moves on to
        # its larger key, unless it still sorts before the next length.
        # When 2d = k both moves reach x: record the up one, so a return
        # skips it.
        if 2 * d == k:
            mv |= 1
        nodes += 1
        visited[x] = 1
        path.append(x)
        cursor.append(mv)
        i = mv >> 1
        kd = key[d] = key[d] + k
        if kd >= 0:
            del order[i]
        elif i + 1 < len(order) and key[order[i + 1]] < kd:
            del order[i]
            bisect.insort(order, d, i, key=by_key)
        if len(path) == k:
            return SearchOutcome(tuple(path), nodes, time.perf_counter() - started)
        w = x
        mv = 0
        stride = 1


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % q for q in range(3, math.isqrt(p) + 1, 2))


def multiset_count(p: int) -> int:
    """Number of (p-1)-element multisets over {1..(p-1)/2}, by stars and bars."""
    size = p - 1
    values = (p - 1) // 2
    return math.comb(size + values - 1, values - 1)


def enumerate_multisets(p: int) -> Iterator[tuple[int, ...]]:
    """All candidate length multisets for the modulus p, in lexicographic order."""
    return combinations_with_replacement(range(1, (p - 1) // 2 + 1), p - 1)


def unrank_multiset(p: int, index: int) -> tuple[int, ...]:
    """The multiset at position ``index`` of ``enumerate_multisets(p)``, without enumerating.

    Each slot takes the smallest value whose block of continuations still
    contains the index; a block is counted by stars and bars.
    """
    values = (p - 1) // 2
    out: list[int] = []
    value = 1
    for left in range(p - 2, -1, -1):  # slots still to fill after this one
        while True:
            block = math.comb(left + values - value, left)
            if index < block:
                break
            index -= block
            value += 1
        out.append(value)
    return tuple(out)


def _search(k: int, lengths: tuple[int, ...]) -> SearchOutcome:
    # What a pool worker runs.  Pickled by name, it looks ``find_path`` up at
    # call time: a wrapper rebound over ``find_path``, as ``bench/spans.py``
    # installs, is a closure that pickle refuses.
    return find_path(k, lengths)


class SweepReport(Value):
    p: int
    total: int                   # size of the full multiset space
    sampled: bool
    entries: tuple[tuple[tuple[int, ...], SearchOutcome], ...]
    elapsed: float

    @property
    def failures(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lengths for lengths, outcome in self.entries if not outcome.found)

    @property
    def clean(self) -> bool:
        return not self.failures


def sweep(p: int, *, sample: int | None = None, seed: int = 0, jobs: int = 1) -> SweepReport:
    """Run find_path over every multiset for an odd prime p (or a seeded sample).

    Multisets are enumerated lexicographically; with several workers the
    searches are distributed in chunks of ``searches // (workers * 8)``
    multisets (at least one) and the results are merged back in enumeration
    order, so the report is identical for any job count.  At most
    ``min(jobs, os.cpu_count(), searches)`` worker processes start.  A p,
    sample or jobs that is not an int (or is a bool), a sample below 1, a p
    above ``MAX_SWEEP_PRIME``, or more than ``MAX_SWEEP_SEARCHES`` searches
    raises ValueError before anything is enumerated or drawn.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {p!r}")
    if sample is not None and (not isinstance(sample, int) or isinstance(sample, bool)):
        raise ValueError(f"sample must be an integer, got {sample!r}")
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    if p > MAX_SWEEP_PRIME:
        raise ValueError(f"p={p} is above the sweep cap of {MAX_SWEEP_PRIME}")
    if not is_odd_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
    total = multiset_count(p)
    searches = total if sample is None else min(sample, total)
    if searches > MAX_SWEEP_SEARCHES:
        raise ValueError(f"a sweep of {searches} multisets at p={p} is more than the cap of "
                         f"{MAX_SWEEP_SEARCHES} searches")
    started = time.perf_counter()

    if sample is not None and sample < total:
        rng = random.Random(seed)
        multisets = [unrank_multiset(p, i) for i in sorted(rng.sample(range(total), sample))]
        sampled = True
    else:
        multisets = list(enumerate_multisets(p))
        sampled = False

    workers = min(jobs, os.cpu_count() or 1, len(multisets))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported late: costs every CLI start
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_search, repeat(p), multisets,
                                     chunksize=max(1, len(multisets) // (workers * 8))))
    else:
        outcomes = map(find_path, repeat(p), multisets)

    return SweepReport(p=p, total=total, sampled=sampled, entries=tuple(zip(multisets, outcomes)),
                       elapsed=time.perf_counter() - started)
