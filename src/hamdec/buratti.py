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

The search is a loop over one stack of untried moves ``(depth, length,
vertex)``, so it has no recursion-depth limit.  Expanding a node pushes its
moves in reverse order, so that they pop in the order above; a popped move
first unwinds the path to its depth.  The length order is a sort by the int
key ``d - remaining[d] * k``, updated by ``k`` at every step.
"""
from __future__ import annotations

import math
import os
import random
import time
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations_with_replacement, starmap

from .errors import BadMultisetSize, NotPrime
from .model import LengthMultiset, Value

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"

# The largest k ``find_path`` searches; its state grows linearly in k (the
# 1x999999 search at the cap peaks near 130 MB), and a cyclic-lift search
# has k <= MAX_PERIOD / 2 = 500,000.
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


def _coerce_multiset(k: int, lengths) -> LengthMultiset:
    if isinstance(lengths, LengthMultiset):
        if lengths.modulus != k:
            raise BadMultisetSize(
                f"multiset has modulus {lengths.modulus}, search asked for {k}")
        return lengths
    return LengthMultiset(k, lengths)


def find_path(k: int, lengths: LengthMultiset | Mapping[int, int] | Iterable[int]) -> SearchOutcome:
    """Complete search for a Hamilton path on Z_k realizing the length multiset.

    A k above ``MAX_K`` raises BadMultisetSize before the search allocates anything.
    """
    multiset = _coerce_multiset(k, lengths)
    if k > MAX_K:
        raise BadMultisetSize(f"k={k} is above the search cap of {MAX_K}")
    present = [d for d, _ in multiset.counts]
    key = [0] * (k // 2 + 1)  # key[d] = d - remaining[d] * k: sorts by (-remaining, d)
    for d, c in multiset.counts:
        key[d] = d - c * k
    visited = bytearray(k)
    visited[0] = 1
    path = [0]
    steps: list[int] = []  # steps[i] is the length of the edge path[i] -> path[i + 1]
    nodes = 0
    witness = None
    started = time.perf_counter()

    # The root keeps only w = d (2w <= k): the negative step lands above k/2.
    stack = [(1, d, d) for d in sorted(present, key=key.__getitem__, reverse=True)]
    while stack:
        depth, d, w = stack.pop()
        while len(path) > depth:
            visited[path.pop()] = 0
            key[steps.pop()] -= k
        nodes += 1
        visited[w] = 1
        path.append(w)
        steps.append(d)
        key[d] += k
        depth += 1
        if depth == k:
            witness = tuple(path)
            break
        # Pushed in reverse so that they pop in search order.  Exhausted
        # lengths sort last, so they come first here.
        for d in sorted(present, key=key.__getitem__, reverse=True):
            if key[d] > 0:
                continue
            up = (w + d) % k
            down = (w - d) % k
            if up != down and not visited[up]:
                stack.append((depth, d, up))
            if not visited[down]:
                stack.append((depth, d, down))

    return SearchOutcome(witness, nodes, time.perf_counter() - started)


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


def _search_task(task: tuple[int, tuple[int, ...]]) -> tuple[tuple[int, ...] | None, int, float]:
    # A worker sends back a tuple: an unpickled value carries a materialised
    # ``__dict__`` (225 B against 136 B) and pickles to twice the bytes.
    k, lengths = task
    outcome = find_path(k, lengths)
    return outcome.witness, outcome.nodes_expanded, outcome.elapsed


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
    searches are distributed one multiset per task and the results are merged
    back in enumeration order, so the report is identical for any job count.
    At most ``min(jobs, os.cpu_count(), searches)`` worker processes start.
    A p above ``MAX_SWEEP_PRIME``, or more than ``MAX_SWEEP_SEARCHES``
    searches, raises ValueError before anything is enumerated or drawn.
    """
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

    tasks = [(p, m) for m in multisets]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported late: costs every CLI start
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_search_task, tasks, chunksize=max(1, len(tasks) // (workers * 8))))
    else:
        raw = [_search_task(t) for t in tasks]

    # Built by position: the sweep builds one outcome per search, and
    # ``Value.__init__`` binds keywords about 1.5 times slower.
    entries = tuple(zip(multisets, starmap(SearchOutcome, raw)))
    return SweepReport(p=p, total=total, sampled=sampled, entries=entries,
                       elapsed=time.perf_counter() - started)
