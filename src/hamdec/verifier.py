"""Exact and brute-force checks that a certificate witnesses a Hamilton decomposition.

``verify_certificate`` reduces the infinite claim to finitely many exact
conditions on the starter path and the offsets.  ``window_oracle`` is the
independent cross-check: it materializes a finite slab of the infinite graph
and verifies directly that every edge used is an edge of the graph, then
degrees, acyclicity, connectivity and the edge partition.
"""
from __future__ import annotations

from collections import Counter
from itertools import filterfalse, islice

from .admissibility import analyze
from .model import DecompositionCertificate, Value, materialize_edges
from .errors import WindowTooSmall

PATH_BROKEN = "PathBroken"
ENDPOINT_MISMATCH = "EndpointMismatch"
RESIDUE_COVERAGE = "ResidueCoverage"
LENGTH_RESIDUE_OVERLAP = "LengthResidueOverlap"
LENGTH_RESIDUE_GAP = "LengthResidueGap"
FOREIGN_EDGE_LENGTH = "ForeignEdgeLength"
OFFSET_COLLISION = "OffsetCollision"


class VerificationReport(Value):
    """The verdict, and the failure kinds in the order the conditions are checked."""

    accepted: bool
    failures: tuple[str, ...]


def verify_certificate(cert: DecompositionCertificate) -> VerificationReport:
    """Decide, exactly, whether the certificate describes a Hamilton decomposition.

    Accepted iff all of:

    1. the starter is a path with exactly ``period`` edges whose ends are
       ``period`` apart, anywhere (the tool writes 0 and period);
    2. the starter hits each residue class mod period exactly once, except
       the endpoint class exactly twice, which makes the starter's
       period-translates chain into a single two-way-infinite Hamilton path.
       It is checked in one pass as: period + 1 vertices, all but the last
       on period distinct classes, and the last on the first one's class;
    3. every starter edge length lies in S+;
    4. for each length d in S+, the starter's length-d edge residues,
       translated by every offset, tile the residues mod period exactly,
       which makes the offset translates edge-disjoint and collectively
       exhaustive of all length-d edges.  The check runs mod g = period/m,
       where m is the largest common divisor of the period and the number
       of distinct offsets such that the offsets are a union of classes
       mod g: the residues tile Z_period iff they tile Z_g with the offsets
       taken mod g (g = period for offsets without such structure).  All
       lengths are checked at once, in one set of keys where the i-th
       length of S+ owns the block [i g, (i + 1) g).  For k offsets and a
       length with e edges, its cells number at most g, with equality iff
       they cover Z_g, and at most e k g / period, with equality iff the
       translates are disjoint and the offsets distinct.  Summed over S+,
       there is an overlap iff cells * period / g < edges * k, and a gap
       iff cells < |S+| * g;
    5. the offsets are distinct mod period.

    For certificates of this shape the five conditions are sound and
    complete, so acceptance is a proof, not a heuristic.
    """
    n = cert.period
    starter = cert.starter
    s_plus = cert.connection_set.s_plus
    failures: list[str] = []

    # (1) edge count and endpoints.  The implied decomposition is a union of
    # edge sets, so it is unchanged by reversing the starter.  The endpoints
    # are an unordered pair {x, x + period} for any x: the translates chain
    # end to end wherever the starter starts, and conditions 2-4 read its
    # actual residues.
    if starter.edge_count != n:
        failures.append(PATH_BROKEN)
    if abs(starter.last - starter.first) != n:
        failures.append(ENDPOINT_MISMATCH)

    # (2) residue coverage of the starter's vertices: all but the last hit
    # the n classes once each, one byte mark per class, and the last falls
    # on the first one's class.  The marks are made only once the vertex
    # count bounds n.
    vs = starter.vertices
    covered = len(vs) == n + 1 and vs[-1] % n == vs[0] % n
    if covered:
        marks = bytearray(n)
        for v in islice(vs, n):
            marks[v % n] = 1
        covered = 0 not in marks
    if not covered:
        failures.append(RESIDUE_COVERAGE)

    # The distinct offsets O are a union of classes mod g, where g = n/m for
    # the largest common divisor m of |O| and n that allows it, so the
    # residues A_d + O of a length d are the preimage in Z_n of the cells
    # A_d + (O mod g) of Z_g, |cells_d| * n/g of them.  The work is bounded
    # by the starter and the offsets, never by the period.
    distinct = set(cert.offsets)
    g = next(n // m for m in range(len(distinct), 0, -1)
             if len(distinct) % m == 0 and n % m == 0
             and len({o % (n // m) for o in distinct}) * m == len(distinct))
    classes = sorted({o % g for o in distinct})

    # (3) + (4) edge lengths and the residue tiling of every length at once.
    # An edge of length d = s_plus[i] with smaller endpoint u has the key
    # i * g + u mod g, so each length owns a block of g keys, and every key
    # stays below |S+| * g however long the lengths are.
    base = {d: i * g for i, d in enumerate(s_plus)}
    keys: list[int] = []
    foreign = False
    for u, v in zip(vs, vs[1:]):
        if u > v:
            u, v = v, u
        b = base.get(v - u)
        if b is None:
            foreign = True
        else:
            keys.append(b + u % g)
    if foreign:
        failures.append(FOREIGN_EDGE_LENGTH)

    # Shifting a length's cells A_d + (O mod g) by -min(classes) keeps their
    # count, so the cells are the keys shifted within their blocks by
    # c - min(classes), the first shift 0.  The two sums of the docstring
    # decide overlap and gap.
    cells = set(keys)
    for c in classes[1:]:
        s = c - classes[0]
        cells.update([k + s - g if k % g >= g - s else k + s for k in keys])
    if len(cells) * (n // g) < len(keys) * len(cert.offsets):
        failures.append(LENGTH_RESIDUE_OVERLAP)
    if len(cells) < len(s_plus) * g:
        failures.append(LENGTH_RESIDUE_GAP)

    # (5) offsets distinct (they are normalized into [0, period), so distinct
    # integers means distinct residues).
    if len(distinct) != len(cert.offsets):
        failures.append(OFFSET_COLLISION)

    accepted = not failures
    # Library bugs, never reports, so raised under ``python -O`` as well: the
    # first is forced by condition (4), and the second would disprove a
    # necessary condition.
    if accepted and len(keys) * len(cert.offsets) != len(s_plus) * n:
        raise AssertionError("accepted certificate whose length residues do not fill Z_period")
    if accepted and not analyze(cert.connection_set).admissible:
        raise AssertionError("accepted certificate for a non-admissible connection set")

    return VerificationReport(accepted=accepted, failures=tuple(failures))


class WindowCheck(Value):
    accepted: bool
    failure: str | None = None


def smallest_window_periods(cert: DecompositionCertificate) -> int:
    """The fewest periods ``window_oracle`` accepts for ``cert``.

    The window has at least 3 periods and must hold the longest edge
    (``periods * n >= 2 * max_s``).  Its core is then never empty: for
    P >= 3 periods, ``(P - 1) * n >= P * n / 2 >= max_s``, so the core
    ``|x| <= (P - 1) * n - max_s`` holds 0.
    """
    n, max_s = cert.period, cert.connection_set.s_plus[-1]
    return max(3, -(-2 * max_s // n))


def window_oracle(cert: DecompositionCertificate, periods: int) -> WindowCheck:
    """Brute-force check on the finite slab [-periods*n, periods*n].

    Materializes every Hamilton path restricted to the slab, as one progression
    of translates per starter edge and offset, and checks, in this order:
    that every edge used is an edge of the graph; inside a core sub-window
    where no boundary effect can bite, degree exactly 2 per path; that no
    path has a cycle and that the core lies on one piece of it; and over
    the whole slab, pairwise edge disjointness and that every graph edge is
    covered.  A length outside S+ is refused first, from each progression's
    start, so it is named even when the slab cannot hold it, and no later
    check sees an edge longer than ``max_s = max(S+)``.

    Degrees, disjointness and coverage take one step per progression, read
    from its start and its length, however many edges it has.  This is
    exact.  A progression ``(r, d)`` is every slab edge ``(u, u + d)`` with
    ``u`` in one class mod n: its start lies in ``[w_lo, w_lo + n)``, and
    its stop, ``w_hi - d + 1``, is fixed by d.  As d <= max_s,
    ``core_lo >= w_lo + d`` and ``core_hi <= w_hi - d``, so its lower ends
    and its upper ends alike cover their whole class across the core.  A
    core vertex's slab degree is therefore the number of progression
    endpoints ``r.start`` and ``r.start + d`` in its class mod n.  And as
    the start and d fix the range, two progressions of one length share an
    edge exactly when they have the same start, and the edge at that start
    is the first they share.

    Acyclicity and connectivity are exact from the starter's ends.  Each
    path ``H`` is the union of the translates ``T_i = starter + i n + o``,
    i in Z.

    * Every vertex has degree 2.  The degree check has passed, and every
      core vertex keeps all its true neighbours inside the slab, so its
      true degree is 2.  The core is at least n + 1 wide, as
      ``core_hi >= n/2`` for P >= 3, so by periodicity every vertex of
      ``H`` has degree 2, counted with multiplicity.
    * Translates meet only end to end.  ``T_i`` is a simple path whose
      inner vertices have degree 2 inside ``T_i``, so it meets another
      translate only at its ends, and only at that translate's ends.
    * So there is no cycle.  The first end of ``T_i`` is then the last end
      of some ``T_k``, k != i, which forces ``last - first = m n`` with
      m != 0, and ``T_i`` ends where ``T_{i+m}`` starts.  ``H`` is |m|
      infinite chains, one per class of i mod |m|, with no finite cycle.
    * Connectivity.  The chains are infinite paths of degree-2 vertices, so
      each vertex lies on exactly one, and if ``x`` lies on ``T_i`` then
      ``x + n`` lies on ``T_{i+1}``, on the next chain.  The core holds
      such a pair, as it is at least n + 1 wide, so the core is on one
      piece iff |m| = 1, at every window and however long the starter.

    Coverage is exact at every window the oracle accepts.  Every used edge
    with both ends in the slab is materialized, so a graph edge of the slab
    is covered there if and only if its class (d, u mod n) is used by some
    path.  And ``periods * n >= 2 * max_s`` gives 2Pn - d >= 3Pn/2 >= n - 1
    for every d in S+, so ``range(w_lo, w_hi - d + 1)`` meets every class
    mod n: the slab holds a translate of every graph edge.  A length is
    then covered iff its progressions have n distinct starts, and else its
    first uncovered edge starts at the first ``u`` of ``[w_lo, w_lo + n)``
    that is no start.
    """
    if periods < 3:
        raise ValueError("periods must be at least 3")
    n = cert.period
    s_plus = cert.connection_set.s_plus
    max_s = s_plus[-1]
    if periods < smallest_window_periods(cert):
        raise WindowTooSmall(
            f"window of {periods} periods ({periods * n}) cannot hold edges of length {max_s}")

    w_hi = periods * n
    w_lo = -w_hi
    core_hi = (periods - 1) * n - max_s  # >= 0, as smallest_window_periods shows
    core_lo = -core_hi

    paths = materialize_edges(cert, w_lo, w_hi)

    # Every used length is in S+: the smallest edge (u, u + d) with d outside
    # S+ is named, u the lowest lower endpoint >= w_lo of d's progressions.
    # A progression's start is that endpoint even when the slab cannot hold
    # d, so a length is refused however long it is.  ``used`` holds, per
    # length in S+, the progression starts seen so far (below).
    used: dict[int, set[int]] = {d: set() for d in s_plus}
    foreign = [(r.start, d) for progs in paths for r, d in progs if d not in used]
    if foreign:
        u, d = min(foreign)
        return WindowCheck(False, f"edge {(u, u + d)} is not an edge of the graph")

    # Degree 2 at every core vertex, per path.  Core vertices keep all their
    # true neighbours inside the slab, so slab degree equals true degree: the
    # count of the progression endpoints in the vertex's class mod n.  The
    # first core vertex of another degree lies among the first
    # (progressions + 1) core vertices, however large the period: degree 2 at
    # all of them would take more than the path's 2 * progressions endpoints,
    # unless they number more than n and so hold every class.  Only those are
    # searched, and only once some class is not at 2.
    width = core_hi - core_lo + 1
    for progs in paths:
        count = Counter([r.start % n for r, _ in progs] + [(r.start + d) % n for r, d in progs])
        if len(count) < n or set(count.values()) != {2}:
            x = next(x for x in range(core_lo, core_lo + min(width, len(progs) + 1))
                     if count[x % n] != 2)
            return WindowCheck(False, f"vertex {x} has degree {count[x % n]}")

    # Acyclic, and the core vertices lie on one connected piece.  The
    # translates chain end to end (see the docstring): there is no cycle, and
    # each path is |m| disjoint chains, all of which meet the core.
    vs = cert.starter.vertices
    m, rest = divmod(abs(vs[-1] - vs[0]), n)
    if rest:
        raise AssertionError(
            "degree 2 everywhere, yet the starter's ends are no multiple of the period apart")
    if m > 1:
        return WindowCheck(False, "path is disconnected inside the window")

    # Pairwise edge-disjoint, and every graph edge inside the slab is used
    # exactly once.  ``used[d]`` holds the starts of the length-d
    # progressions seen so far, so a start already there names the first
    # edge its progression shares with an earlier one (see the docstring).  A length is covered iff it holds n starts; only a length
    # short of them is scanned for its first uncovered edge, and of these the
    # smallest edge comes first.
    for progs in paths:
        for r, d in progs:
            starts = used[d]
            if r.start in starts:
                return WindowCheck(False, f"edge {(r.start, r.start + d)} used by two paths")
            starts.add(r.start)
    missing = [(next(filterfalse(used[d].__contains__, range(w_lo, w_lo + n))), d)
               for d in s_plus if len(used[d]) < n]
    if missing:
        u, d = min(missing)
        return WindowCheck(False, f"edge {(u, u + d)} not covered")

    return WindowCheck(True)
