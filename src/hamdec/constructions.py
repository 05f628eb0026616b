"""Constructors producing decomposition certificates for every supported family.

Each constructor builds a starter path as a chain of short walk blocks, wraps
it into a certificate, and self-verifies the result through the exact
verifier before returning: a construction bug raises instead of leaking a
wrong certificate.  Block chains are assembled with an explicit check that
every block starts where the previous one ended, so a misread chain fails
immediately rather than producing a broken path; a run of equal blocks is
checked at its first start and by its displacement, which fixes the rest.
"""
from __future__ import annotations

from itertools import accumulate

from .admissibility import analyze
from .buratti import find_path
from .errors import (
    CongruenceViolation,
    ConstructionError,
    LengthMultisetMismatch,
    NotAdmissible,
    PeriodTooLarge,
    Unsupported,
    format_ints,
)
from .model import (
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    circular_length,
)
from .verifier import verify_certificate

# The largest period any constructor builds.  The starter has period + 1
# vertices, and building, self-verifying and writing it peaks at a few hundred
# bytes per vertex, so a larger request is refused with PeriodTooLarge before
# anything is built.  Ten times the largest period the benchmark draws
# (100,000).
MAX_PERIOD = 1_000_000


def _check_period(s_plus: str | tuple[int, ...], family: str, period: int) -> None:
    """Refuse a ``family`` certificate whose period is above the cap.

    Every constructor calls this with the period of the certificate it
    returns, before it builds the starter or delegates to another family.
    The families whose S+ is a run of integers call it before they build
    the set as well, and name the set by a short text such as ``{1..k}``;
    the others pass S+ itself, which only a refusal formats, by
    ``format_ints``.
    """
    if period > MAX_PERIOD:
        text = s_plus if isinstance(s_plus, str) else format_ints(s_plus)
        raise PeriodTooLarge(
            f"S+={text} needs a {family} certificate of period {period}, "
            f"more than the cap of {MAX_PERIOD}")


def _admissible(s_plus) -> ConnectionSet:
    cs = ConnectionSet(s_plus)
    report = analyze(cs)
    if not report.admissible:
        raise NotAdmissible(cs, report)
    return cs


def _certified(cs: ConnectionSet, period: int, starter) -> DecompositionCertificate:
    """The certificate of ``starter``, once the exact verifier accepts it.

    Every family's k Hamilton paths are the translates of one path by the
    multiples of n/k, so the offsets are ``range(0, n, n // k)`` for period n
    and k = |S+|.  A certificate that fails verification is a construction
    bug and raises ConstructionError instead of being returned.
    """
    cert = DecompositionCertificate(connection_set=cs, period=period, starter=starter,
                                    offsets=range(0, period, period // len(cs.s_plus)))
    report = verify_certificate(cert)
    if not report.accepted:
        raise ConstructionError(
            f"internal error: constructed certificate fails verification: {report.failures}")
    return cert


class _Chain:
    """Walk blocks concatenated end to start into one path."""

    def __init__(self, start: int):
        self.start = start
        self.cursor = start
        self.steps: list[int] = []

    def block(self, expected_start: int, steps) -> None:
        if self.cursor != expected_start:
            raise ConstructionError(
                f"block expected to start at {expected_start} but chain is at {self.cursor}")
        self.steps += steps
        self.cursor += sum(steps)

    def run(self, starts: range, steps) -> None:
        """One block of ``steps`` at each start in ``starts``, added as a single block.

        The steps must carry each block to the next start, so only the first
        start is checked against the cursor; an empty range adds nothing.
        """
        if len(starts) > 1 and sum(steps) != starts.step:
            raise ConstructionError(
                f"blocks of displacement {sum(steps)} cannot start {starts.step} apart")
        if starts:
            self.block(starts[0], tuple(steps) * len(starts))

    def path(self) -> FinitePath:
        return FinitePath(accumulate(self.steps, initial=self.start))


def _alternating(magnitudes, *, first_positive: bool) -> list[int]:
    sign = 1 if first_positive else -1
    out = []
    for m in magnitudes:
        out.append(sign * m)
        sign = -sign
    return out


def construct_4valent(a: int, b: int) -> DecompositionCertificate:
    """Certificate for S+ = {a, b} with a < b odd and coprime.

    The starter alternates steps of +a with steps of +-b: a forward block
    [v, v+a, v+a+b] jumps ahead, then a run of backward blocks [v, v+a, v-b]
    walks back down in steps of t = b - a until the next forward block's
    start is reached.  The forward blocks start at i*a mod t for even i < t,
    and the last one at t.  The resulting path has 2b edges, b of each
    length, endpoints 0 and 2b, and one vertex per residue class mod 2b.
    The second Hamilton path is the b-shift of the first.
    """
    if not (1 <= a < b):
        raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
    cs = _admissible((a, b))
    _check_period(cs.s_plus, "four-valent", 2 * b)

    t = b - a
    starts = [i * a % t for i in range(0, t, 2)] + [t]
    forward, backward = (a, b), (a, -b)
    chain = _Chain(0)
    for start, nxt in zip(starts, starts[1:]):
        chain.block(start, forward)
        # It lands on t + nxt: start + 2a - nxt is a multiple of t above -t.
        chain.run(range(start + a + b, nxt, -t), backward)
    chain.block(t, forward)

    return _certified(cs, 2 * b, chain.path())


def _assign_signs(k: int, a_list, residue_steps) -> list[int]:
    """Pick signed magnitudes realizing the residue steps, one magnitude each.

    A magnitude realizes a step iff both have the same cyclic length mod k;
    its sign is + when it is congruent to the step and - otherwise (k is odd
    and steps are nonzero, so exactly one holds).  Each step takes the
    smallest unused magnitude of its length; the caller has checked that the
    two length multisets are equal, so no bucket runs dry.
    """
    by_length: dict[int, list[int]] = {}
    for mag in sorted(a_list, reverse=True):
        by_length.setdefault(circular_length(0, mag, k), []).append(mag)
    signed = []
    for step in residue_steps:
        mag = by_length[circular_length(0, step, k)].pop()
        signed.append(mag if mag % k == step else -mag)
    return signed


def construct_from_zk_path(k: int, a_list, q: FinitePath) -> DecompositionCertificate:
    """Lift a Hamilton path on Z_k to a certificate for S+ = {a_1..a_{k-1}, k}.

    q must be a Hamilton path on the residues mod k whose cyclic edge-length
    multiset matches the cyclic lengths of the a_i.  Its steps are realized
    by signed magnitudes b_i, giving a path P1 from 0 to its step sum s that
    hits every residue class mod k once.  The starter is four blocks: P1's
    steps from 0, a k-edge at s, P1's steps reversed and negated from s + k
    (the k-shift of P1 walked back), and a k-edge from k into 2k.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= 3, got {k}")
    a_list = tuple(a_list)
    if len(set(a_list)) != len(a_list) or len(a_list) != k - 1:
        raise ValueError(f"need {k - 1} distinct magnitudes, got {format_ints(a_list, '()')}")
    if any(a < 1 or a % k == 0 for a in a_list):
        raise ValueError(
            f"magnitudes must be positive and not divisible by {k}: {format_ints(a_list, '()')}")
    cs = _admissible((*a_list, k))
    _check_period(cs.s_plus, "cyclic-lift", 2 * k)

    if not isinstance(q, FinitePath):
        q = FinitePath(q)
    residues = [v % k for v in q.vertices]
    if len(residues) != k or len(set(residues)) != k:
        raise LengthMultisetMismatch(
            f"q is not a Hamilton path on Z_{k} (visits {format_ints(sorted(set(residues)), '[]')})")

    q_lengths = sorted(circular_length(u, v, k) for u, v in zip(residues, residues[1:]))
    target = sorted(circular_length(0, a, k) for a in a_list)
    if q_lengths != target:
        raise LengthMultisetMismatch(
            f"q has cyclic lengths {format_ints(q_lengths, '[]')}, "
            f"the magnitudes require {format_ints(target, '[]')}")

    steps = [(v - u) % k for u, v in zip(residues, residues[1:])]
    signed = _assign_signs(k, a_list, steps)
    sigma = sum(signed)
    chain = _Chain(0)
    chain.block(0, signed)
    chain.block(sigma, (k,))
    chain.block(sigma + k, [-z for z in reversed(signed)])
    chain.block(k, (k,))
    return _certified(cs, 2 * k, chain.path())


def walecki_path(k: int) -> FinitePath:
    """The zigzag Hamilton path [0, 1, k-1, 2, k-2, ...] on Z_k for odd k >= 3.

    Its cyclic edge lengths are 1, 1, 2, 2, ..., (k-1)/2, (k-1)/2.  Its lift
    has period 2k, so k above ``MAX_PERIOD // 2`` raises PeriodTooLarge.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= 3, got {k}")
    if k > MAX_PERIOD // 2:
        raise PeriodTooLarge(
            f"the Walecki path on Z_{k} lifts to a cyclic-lift certificate of period {2 * k}, "
            f"more than the cap of {MAX_PERIOD}")
    vertices = [0]
    for j in range(1, (k - 1) // 2 + 1):
        vertices.append(j)
        vertices.append(k - j)
    return FinitePath(vertices[:k])


def construct_walecki_family(k: int, a_list) -> DecompositionCertificate:
    """Certificate for S+ = {a_1..a_{k-1}, k} where a_i is congruent to i mod k."""
    a_list = tuple(a_list)
    if len(a_list) != k - 1:
        raise ValueError(f"need {k - 1} magnitudes, got {len(a_list)}")
    for i, a in enumerate(a_list, start=1):
        if a % k != i % k:
            raise CongruenceViolation(f"a_{i} = {a} is not congruent to {i} mod {k}")
    return construct_from_zk_path(k, a_list, walecki_path(k))


def construct_consecutive(k: int) -> DecompositionCertificate:
    """Certificate for S+ = {1, 2, ..., k}; admissible iff k = 0 or 1 mod 4."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    _check_period(f"{{1..{k}}}", "consecutive", 2 * k if k > 1 else 1)
    cs = _admissible(range(1, k + 1))

    if k == 1:
        return _certified(cs, 1, (0, 1))
    if k % 4 == 1:
        return construct_walecki_family(k, tuple(range(1, k)))
    u = k // 2
    v = 3 * k // 2
    chain = _Chain(0)
    chain.block(0, (-1, 2))
    chain.block(1, _alternating(range(k - 2, 2, -1), first_positive=True))
    chain.block(u - 1, (k, -(k - 1), 1, k - 1, -2))
    chain.block(v - 2, _alternating(range(3, k - 1), first_positive=True))
    chain.block(k, (k,))
    return _certified(cs, 2 * k, chain.path())


def construct_skip_k(k: int) -> DecompositionCertificate:
    """Certificate for S+ = {1, ..., k-1, k+1}; admissible iff k = 2 or 3 mod 4."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    _check_period(f"{{1..{k - 1}}} u {{{k + 1}}}", "skip-k", 6 if k == 2 else k)
    cs = _admissible((*range(1, k), k + 1))

    # k = 2 goes to the 4-valent family: the k = 2 mod 4 chain would step by 0.
    if k == 2:
        return construct_4valent(1, 3)
    chain = _Chain(0)
    if k % 4 == 2:
        u = k // 2  # odd since k = 2 mod 4
        chain.block(0, (u - 1, -(k - 1)))
        chain.block(-u, _alternating(range(2, u - 1), first_positive=False))
        chain.block(-(u + 3) // 2, (1,))
        chain.block(-(u + 1) // 2, _alternating(range(u, k - 1), first_positive=False))
    else:
        # k = 3 mod 4.  The ascent interleaves k-3, k-7, ... with 5, 9, ...
        # and the descent interleaves 2, 6, ... with k-4, k-8, ...
        v = (k + 1) * (k - 2) // 4
        ascent = [m for pair in zip(range(k - 3, 3, -4), range(5, k, 4)) for m in pair]
        descent = [-m for pair in zip(range(2, k, 4), range(k - 4, 2, -4)) for m in pair]
        chain.block(0, (1,))
        chain.block(1, ascent)
        chain.block(v, (-(k - 1),))
        chain.block(v - k + 1, descent)
    chain.block(-1, (k + 1,))
    return _certified(cs, k, chain.path())


def construct_even_run(t: int) -> DecompositionCertificate:
    """Certificate for S+ = {1, 2, 4, 6, ..., 2t}; admissible iff t is even."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    _check_period(f"{{1}} u 2*{{1..{t}}}", "even-run", t + 1)
    cs = _admissible((1, *range(2, 2 * t + 1, 2)))

    chain = _Chain(0)
    chain.block(0, (1,))
    if t % 4 == 0:
        chain.block(1, _alternating(range(t - 2, 3, -2), first_positive=True))
        chain.block((t - 2) // 2, (2, t))
        chain.block((3 * t + 2) // 2,
                    _alternating(range(2 * t, t + 1, -2), first_positive=False))
    else:
        chain.block(1, _alternating(range(t - 2, 1, -2), first_positive=True))
        chain.block(t // 2, (-t, 2 * t))
        chain.block(3 * t // 2,
                    _alternating(range(2 * t - 2, t + 1, -2), first_positive=False))
    return _certified(cs, t + 1, chain.path())


def construct_one_two_c(c: int) -> DecompositionCertificate:
    """Certificate for S+ = {1, 2, c} with c = 2t even; period 3t, offsets 0, t, 2t.

    The starter uses t edges of each length, stitched from three four-step
    blocks (step patterns +1 +2t +1 -2t, +2t -2 -2t -2, and +2t +2 -2t +2)
    plus short runs of unit and double steps; which blocks appear, and where,
    depends on t mod 4.
    """
    if c < 3:
        raise ValueError(f"c must be at least 3, got {c}")
    t = c // 2
    cs = _admissible((1, 2, c))
    _check_period(cs.s_plus, "one-two-c", 3 if t == 2 else 3 * t)
    # c = 4 goes to the skip-k family: the even-t chain does not close at t = 2.
    if t == 2:
        return construct_skip_k(3)

    c2 = 2 * t
    chain = _Chain(0)
    if t % 2 == 1:
        chain.run(range(0, t - 2, 2), (1, c2, 1, -c2))
        chain.block(t - 1, [2] * ((t + 1) // 2))
        chain.block(c2, [-1] + [-2] * ((t - 1) // 2))
        chain.block(t, (c2,))
    elif t == 4:
        chain.block(0, (1, 8, 2, -8, 2, 1, 1, 1, 2, -8, 2, 8))
    else:
        chain.block(0, (1, c2, 2, -c2, -1, c2, -2))
        chain.block(c2, [-1] * (t - 5))
        chain.block(t + 5, (-2, 1, -2, -1, -2))
        if t % 4 == 0:
            chain.run(range(t - 1, 10, -4), (c2, -2, -c2, -2))
            chain.block(7, (c2, -2, -c2, -1))
            chain.run(range(4, t - 3, 4), (c2, 2, -c2, 2))
        else:
            chain.run(range(t - 1, 8, -4), (c2, -2, -c2, -2))
            chain.block(5, (c2, -1, -c2, 2))
            chain.run(range(6, t - 3, 4), (c2, 2, -c2, 2))
        chain.block(t, (c2,))
    return _certified(cs, 3 * t, chain.path())


_FAMILIES = ("consecutive", "skip-k", "even-run", "one-two-c", "four-valent", "cyclic-lift")


def construct_with_family(s: ConnectionSet) -> tuple[str, DecompositionCertificate]:
    """Dispatch over the known families; returns the family name and certificate.

    Families are tried in a fixed priority order, closed-form constructions
    before the search-backed lift, so the result is deterministic across
    runs.  Raises NotAdmissible for sets failing the necessary conditions,
    PeriodTooLarge when the matching family's period exceeds ``MAX_PERIOD``
    (each constructor checks its own before it builds; the cyclic lift is
    checked here, before the search), and Unsupported (listing the families
    tried) for admissible sets outside every family.
    """
    if not isinstance(s, ConnectionSet):
        s = ConnectionSet(s)
    report = analyze(s)
    if not report.admissible:
        raise NotAdmissible(s, report)

    sp = s.s_plus
    k = len(sp)
    if sp == tuple(range(1, k + 1)):
        return "consecutive", construct_consecutive(k)
    if sp[:-1] == tuple(range(1, k)) and sp[-1] == k + 1:
        return "skip-k", construct_skip_k(k)
    if k >= 3 and sp == (1, *range(2, 2 * k - 1, 2)):
        return "even-run", construct_even_run(k - 1)
    if k == 3 and sp[:2] == (1, 2):
        return "one-two-c", construct_one_two_c(sp[2])
    if k == 2:
        return "four-valent", construct_4valent(*sp)

    tried = list(_FAMILIES[:-1])
    if k >= 3 and k % 2 == 1 and k in sp and all(a % k for a in sp if a != k):
        _check_period(sp, "cyclic-lift", 2 * k)
        a_list = tuple(a for a in sp if a != k)
        outcome = find_path(k, [circular_length(0, a, k) for a in a_list])
        if outcome.found:
            return "cyclic-lift", construct_from_zk_path(k, a_list, FinitePath(outcome.witness))
        tried.append("cyclic-lift (search exhausted)")
    else:
        tried.append("cyclic-lift")
    raise Unsupported(s, tried)


def construct(s: ConnectionSet) -> DecompositionCertificate:
    """Certificate for any connection set covered by a known family."""
    return construct_with_family(s)[1]
