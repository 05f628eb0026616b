"""Exact and brute-force checks that a certificate witnesses a Hamilton decomposition.

``verify_certificate`` reduces the infinite claim to finitely many exact
conditions on the starter path and the offsets.  ``window_oracle`` is the
independent cross-check: it materializes a finite slab of the infinite graph
and verifies directly that every edge used is an edge of the graph, then
degrees, acyclicity, connectivity and the edge partition.  They are meant to
agree, but do not always: the oracle checks connectivity only where a whole
starter translate fits in the slab, so on a long starter it can accept
paths that fall apart, which the exact verifier refuses.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import filterfalse, islice

from .admissibility import analyze
from .model import DecompositionCertificate, Value, materialize_edges
from .errors import WindowTooSmall

# Adds 1 to each byte, saturating at 255: ``bytes.translate`` counts a
# vertex along a whole progression at C speed.
_INC = bytes(range(1, 256)) + b"\xff"

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
    check sees an edge longer than ``max_s = max(S+)``.  Degrees are counted
    one byte per vertex on the first (edges + 1) vertices of the core, each
    progression's endpoints as one extended slice of step n.  The last two
    checks keep, per length ``d`` in S+, the set of lower endpoints ``u`` of
    the edges ``(u, u + d)`` used so far, walking each progression once.

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
    * Connectivity.  A translate that touches ``[-conn_hi, conn_hi]`` lies
      wholly inside the slab, as ``conn_hi <= w_hi - span``, and the
      translates wholly inside the slab form an interval of i.  So the core
      is on one piece iff the indices of the translates touching it share
      one class mod |m|, which always holds for |m| = 1.

    Coverage is exact at every window the oracle accepts.  Every used edge
    with both ends in the slab is materialized, so a graph edge of the slab
    is covered there if and only if its class (d, u mod n) is used by some
    path.  And ``periods * n >= 2 * max_s`` gives 2Pn - d >= 3Pn/2 >= n - 1
    for every d in S+, so ``range(w_lo, w_hi - d + 1)`` meets every class
    mod n: the slab holds a translate of every graph edge.
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
    # length in S+, the lower endpoints seen so far (below).
    used: dict[int, set[int]] = {d: set() for d in s_plus}
    foreign = [(r.start, d) for progs in paths for r, d in progs if d not in used]
    if foreign:
        u, d = min(foreign)
        return WindowCheck(False, f"edge {(u, u + d)} is not an edge of the graph")

    # Degree 2 at every core vertex, per path.  Core vertices keep all their
    # true neighbours inside the slab, so slab degree equals true degree.  The
    # first core vertex of another degree lies among the first (edges + 1)
    # core vertices, however large the period: degree 2 at all of them would
    # take more than the path's 2 * edges endpoints.  So the counts cover only
    # those, one byte each from ``core_lo``.  A progression's lower endpoints,
    # then its upper ones, are an extended slice of step n: a start left of
    # the array moves to its first index inside, and the stop, at least
    # w_hi - max_s + 1, is never left of it.  A byte saturates at 255, so
    # such a vertex is recounted over the progressions.
    width = core_hi - core_lo + 1
    for progs in paths:
        deg = bytearray(min(width, sum([len(r) for r, _ in progs]) + 1))
        for r, d in progs:
            for shift in (-core_lo, d - core_lo):
                a, b = r.start + shift, r.stop + shift
                i = a % n if a < 0 else a
                deg[i:b:n] = deg[i:b:n].translate(_INC)
        i = len(deg) - len(deg.lstrip(b"\x02"))
        if i < len(deg):
            x = core_lo + i
            degree = deg[i] if deg[i] < 255 else sum((x in r) + (x - d in r) for r, d in progs)
            return WindowCheck(False, f"vertex {x} has degree {degree}")

    # Acyclic inside the slab, and the core vertices lie on one connected
    # piece.  Any translate touching the connectivity core must fit in the
    # slab entirely, so the core shrinks with the starter's span; a starter
    # spanning more than the slab leaves nothing to check and the condition
    # holds vacuously.  The translates chain end to end (see the docstring):
    # there is no cycle, and the core is on one piece iff the translates
    # touching it share one class of i mod |m|.  T_i touches it iff a starter
    # vertex lies in [-conn_hi, conn_hi] - i n - o, which one bisect of the
    # sorted vertices decides.
    vs = cert.starter.vertices
    span = max(vs) - min(vs)
    conn_hi = min(core_hi, w_hi - span)
    m, rest = divmod(abs(vs[-1] - vs[0]), n)
    if rest:
        raise AssertionError(
            "degree 2 everywhere, yet the starter's ends are no multiple of the period apart")
    if m > 1 and conn_hi >= 0:
        ordered = sorted(vs)
        for o in cert.offsets:
            classes = set()
            for i in range(-((conn_hi + o + ordered[-1]) // n),
                           (conn_hi - o - ordered[0]) // n + 1):
                j = bisect_left(ordered, -conn_hi - i * n - o)
                if j < len(ordered) and ordered[j] <= conn_hi - i * n - o:
                    classes.add(i % m)
            if len(classes) > 1:
                return WindowCheck(False, "path is disconnected inside the window")

    # Pairwise edge-disjoint, and every graph edge inside the slab is used
    # exactly once.  ``used[d]`` holds the lower endpoints of the length-d
    # edges seen so far, and a progression is itself the set of its edges'
    # lower endpoints, so a progression that does not grow ``used[d]`` by its
    # length shares an edge.  Each path is a forest and repeats no edge of its
    # own, so that edge is one of an earlier path's, named only then.  The
    # slab has w_hi - w_lo - d + 1 edges of length d, and ``used[d]`` holds
    # only those, so a length is covered iff it holds that many; only a
    # length short of it is scanned for its first uncovered edge, and of
    # these the smallest edge comes first.
    for k, progs in enumerate(paths):
        for r, d in progs:
            lower = used[d]
            before = len(lower)
            lower.update(r)
            if len(lower) != before + len(r):
                earlier = {u for other in paths[:k] for q, e in other if e == d for u in q}
                u = next(filter(earlier.__contains__, r))
                return WindowCheck(False, f"edge {(u, u + d)} used by two paths")
    missing = [(u, d) for d in s_plus if len(used[d]) <= w_hi - w_lo - d
               for u in islice(filterfalse(used[d].__contains__, range(w_lo, w_hi - d + 1)), 1)]
    if missing:
        u, d = min(missing)
        return WindowCheck(False, f"edge {(u, u + d)} not covered")

    return WindowCheck(True)
