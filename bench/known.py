"""Known answers and work counts computed without the package under test.

Everything here follows the definitions in the README (admissibility, the
family table, the certificate shape) or published results on the Z_k path
problem. Nothing imports ``hamdec``, so a defect in the package cannot make
its own output look right.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations_with_replacement

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSUPPORTED = 3

# The four length multisets for which K_9 has no Hamilton path (Horak and
# Rosa, "On a problem of Marco Buratti", EJC 16, 2009).  For every prime
# p <= 23 every multiset is realisable, which is the Buratti-conjecture range
# verified in the literature; other odd moduli up to 13 are prime except 9.
K9_EXHAUSTED = frozenset({
    (1, 3, 3, 3, 3, 3, 3, 3),
    (2, 3, 3, 3, 3, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3, 4),
})


def admissible(s_plus) -> bool:
    """Connected (gcd 1) and sum(S+) = |S+| (mod 2)."""
    return math.gcd(*s_plus) == 1 and sum(s_plus) % 2 == len(s_plus) % 2


def circular_length(a: int, k: int) -> int:
    r = a % k
    return min(r, k - r)


def cyclic_lift_lengths(s_plus) -> tuple[int, ...] | None:
    """Z_k length multiset for a cyclic-lift set ``{a_1..a_{k-1}, k}``, else None."""
    k = len(s_plus)
    if k < 3 or k % 2 == 0 or k not in s_plus:
        return None
    rest = [a for a in s_plus if a != k]
    if any(a % k == 0 for a in rest):
        return None
    return tuple(sorted(circular_length(a, k) for a in rest))


def family(s_plus) -> str | None:
    """The README family of an admissible sorted S+, tried in dispatch order."""
    k = len(s_plus)
    if s_plus == tuple(range(1, k + 1)):
        return "consecutive"
    if s_plus[:-1] == tuple(range(1, k)) and s_plus[-1] == k + 1:
        return "skip-k"
    if k >= 3 and s_plus == (1, *range(2, 2 * k - 1, 2)):
        return "even-run"
    if k == 3 and s_plus[:2] == (1, 2):
        return "one-two-c"
    if k == 2:
        return "four-valent"
    if cyclic_lift_lengths(s_plus) is not None:
        return "cyclic-lift"
    return None


def expected_construct_exit(s_plus) -> int:
    """Exit code of ``hamdec construct`` from the README rules alone."""
    s_plus = tuple(sorted(set(s_plus)))
    if not admissible(s_plus):
        return EXIT_FAIL
    fam = family(s_plus)
    if fam is None:
        return EXIT_UNSUPPORTED
    if fam == "cyclic-lift":
        k = len(s_plus)
        if k == 9:
            return EXIT_UNSUPPORTED if cyclic_lift_lengths(s_plus) in K9_EXHAUSTED else EXIT_OK
        if not (_is_prime(k) and k <= 23):
            raise ValueError(f"no known answer for the Z_{k} path search")
    return EXIT_OK


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def certificate_valid(s_plus, n, vertices, offsets) -> bool:
    """The README certificate shape, checked from its definition.

    The starter has n edges between x and x + n with x on class 0 mod n,
    hits every residue once apart from the doubled endpoint class, uses only
    lengths in S+, and for each length its edge residues shifted by the
    distinct offsets tile Z_n exactly once.
    """
    if n < 1 or not offsets or len(vertices) != n + 1:
        return False
    if len(set(vertices)) != len(vertices):
        return False
    first, last = vertices[0], vertices[-1]
    if abs(last - first) != n or min(first, last) % n:
        return False
    residues = Counter(v % n for v in vertices)
    if len(residues) != n or residues[first % n] != 2:
        return False
    if len(set(offsets)) != len(offsets) or any(not 0 <= o < n for o in offsets):
        return False
    by_length: dict[int, list[int]] = {d: [] for d in s_plus}
    for u, v in zip(vertices, vertices[1:]):
        d = abs(v - u)
        if d not in by_length:
            return False
        by_length[d].append(min(u, v) % n)
    for rs in by_length.values():
        if len(rs) * len(offsets) != n:
            return False
        if len({(r + o) % n for r in rs for o in offsets}) != n:
            return False
    return True


def residue_checks(s_plus, vertices, offsets) -> int:
    """Sum over d in S+ of |A_d| * |offsets|, A_d the starter's length-d edges."""
    lengths = set(s_plus)
    used = sum(1 for u, v in zip(vertices, vertices[1:]) if abs(v - u) in lengths)
    return used * len(offsets)


def window_edges(n, vertices, offsets, periods) -> int:
    """Edges of all translates with both ends in the slab [-periods*n, periods*n]."""
    hi = periods * n
    lo = -hi
    total = 0
    for u, v in zip(vertices, vertices[1:]):
        u, v = min(u, v), max(u, v)
        for o in offsets:
            i_min = -((u + o - lo) // n)
            i_max = (hi - v - o) // n
            total += max(0, i_max - i_min + 1)
    return total


def is_hamilton_witness(p: int, lengths, witness) -> bool:
    """A Hamilton path on Z_p whose circular edge lengths are exactly ``lengths``."""
    if witness is None or len(witness) != p or sorted(witness) != list(range(p)):
        return False
    got = Counter(circular_length(v - u, p) for u, v in zip(witness, witness[1:]))
    return got == Counter(lengths)


def multiset_count(p: int) -> int:
    """(p-1)-element multisets over {1..(p-1)/2}: C(3(p-1)/2 - 1, (p-3)/2)."""
    return math.comb(3 * (p - 1) // 2 - 1, (p - 3) // 2)


def unrank_multiset(p: int, index: int) -> tuple[int, ...]:
    """The multiset at ``index`` in lexicographic order over {1..(p-1)/2}."""
    top = (p - 1) // 2
    size = p - 1
    out = []
    low = 1
    for pos in range(size):
        left = size - pos - 1
        for v in range(low, top + 1):
            count = math.comb(left + top - v, left)
            if index < count:
                out.append(v)
                low = v
                break
            index -= count
    return tuple(out)


def expected_sweep_multisets(p: int, sample: int | None, seed: int) -> list[tuple[int, ...]]:
    """The multisets a sweep must decide, in lexicographic order.

    A sampled sweep keeps the indices ``random.Random(seed).sample(range(total),
    sample)`` of the lexicographic enumeration, as its docstring promises.
    """
    total = multiset_count(p)
    if sample is None or sample >= total:
        return list(combinations_with_replacement(range(1, (p - 1) // 2 + 1), p - 1))
    picked = sorted(random.Random(seed).sample(range(total), sample))
    return [unrank_multiset(p, i) for i in picked]
