"""Exact and brute-force checks that a certificate witnesses a Hamilton decomposition.

``verify_certificate`` reduces the infinite claim to finitely many exact
conditions on the starter path and the offsets.  ``window_oracle`` is the
independent cross-check: it reads every Hamilton path as one progression of
translates per starter edge and offset, a whole class of edges of the
infinite graph, and verifies that every edge used is an edge of the graph,
then degrees, acyclicity, connectivity and the edge partition, class by
class mod the period.
"""
from __future__ import annotations

from itertools import islice

from .admissibility import analyze
from .errors import WindowTooLarge
from .model import DecompositionCertificate, Value

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


# The most progressions, offsets or lengths of S+ times starter edges, that
# ``window_oracle`` reads, counted before anything is built.  It keeps three
# words per starter edge and a byte per length and class.  ``verify`` runs
# it on 4-valent (1, 499999), 1,999,996 progressions, in 0.7 s, on one-two-c
# 666666, 2,999,997, in 0.8 s, neither above the exact check's 162 MB peak,
# and on consecutive 2236, 9,999,392, in 1.1 s (Python 3.11, Linux).
MAX_PROGRESSIONS = 10_000_000


def window_oracle(cert: DecompositionCertificate, periods: int) -> WindowCheck:
    """Check ``cert`` class by class, from the starter's own classes.

    The translates of the starter edge ``(u, v)``, u < v, in the path of
    offset ``o`` are the edges ``(x, x + d)`` with ``d = v - u`` and ``x ≡ c
    (mod n)``, ``c = (u + o) mod n``: the progression ``(c, d)`` is a whole
    class of edges of the infinite graph.  Checks, in this order: that every
    length used is in S+; degree exactly 2 at every vertex, per path; that
    no path has a cycle and that each is connected; that no edge is used by
    two paths; and that every graph edge is covered.  Each failure is named
    by a residue class mod n.  ``periods``, at least 3, is the window that
    ``hamdec verify`` reports; it changes neither the outcome nor the work.
    Over ``MAX_PROGRESSIONS`` progressions, WindowTooLarge is raised at once.

    Every check is exact:

    * degrees are read from the starter.  A vertex x of the path of offset
      o ends one edge per starter edge end w of class ``x - o``, in the one
      translate with ``w + i n + o = x``, so the path's degree at class c is
      the starter's at ``c - o``.  Every path has degree 2 everywhere iff the
      first does, which names the smallest class of another degree: one of
      the first ``edges + 2``, of which ``edges + 1`` vertices miss one;
    * two progressions of one length share an edge iff their classes are
      equal, and then they share the whole class;
    * the class ``(d, c)``, d in S+, is covered iff some length-d
      progression has class c.  Degree 2 at all n classes takes n starter
      edges, so the marks, one ``bytearray(n)`` per length, are made after.

    Acyclicity and connectivity are exact from the starter's ends.  Each
    path ``H`` is the union of its translates ``T_i = starter + i n + o``.

    * Every vertex has degree 2, counted with multiplicity, once the degree
      check has passed.
    * Translates meet only end to end.  ``T_i`` is a simple path whose
      inner vertices have degree 2 inside ``T_i``, so it meets another
      translate only at its ends, and only at that translate's ends.
    * So there is no cycle.  The first end of ``T_i`` is then the last end
      of some ``T_k``, k != i, which forces ``last - first = m n`` with
      m != 0, and ``T_i`` ends where ``T_{i+m}`` starts.  ``H`` is |m|
      infinite chains, one per class of i mod |m|, with no finite cycle.
    * Connectivity.  The chains are infinite paths of degree-2 vertices, so
      each vertex lies on exactly one, and if ``x`` lies on ``T_i`` then
      ``x + n`` lies on ``T_{i+1}``, on the next chain.  So ``H`` is
      connected iff |m| = 1, however long the starter.
    """
    if periods < 3:
        raise ValueError("periods must be at least 3")
    edges, s_plus, n = cert.starter.edge_count, cert.connection_set.s_plus, cert.period
    progressions = max(len(cert.offsets), len(s_plus)) * edges
    if progressions > MAX_PROGRESSIONS:
        raise WindowTooLarge(
            f"{progressions} progressions, more than the cap of {MAX_PROGRESSIONS}")

    # One pass: the starter's lengths outside S+, the first path's degrees.
    marks: dict[int, bytearray | None] = dict.fromkeys(s_plus)
    o, span = cert.offsets[0], min(n, edges + 2)
    degree, foreign = [0] * span, []
    for u, v in cert.starter.edges():
        if v - u not in marks:
            foreign.append(v - u)
        c = (u + o) % n
        if c < span:
            degree[c] += 1
        c = (v + o) % n
        if c < span:
            degree[c] += 1
    if foreign:
        d = min(foreign)
        c = min((u + o) % n for u, v in cert.starter.edges() if v - u == d for o in cert.offsets)
        return WindowCheck(False, f"length {d}, residue {c} mod {n} is not an edge of the graph")
    if span < n or degree.count(2) < n:
        c = next(c for c, k in enumerate(degree) if k != 2)
        return WindowCheck(False, f"vertex class {c} mod {n} has degree {degree[c]}")

    # Acyclic and connected: each path is |m| chains (see the docstring).
    vs = cert.starter.vertices
    m, rest = divmod(abs(vs[-1] - vs[0]), n)
    if rest:
        raise AssertionError(
            "degree 2 everywhere, yet the starter's ends are no multiple of the period apart")
    if m > 1:
        return WindowCheck(False, "path is disconnected")

    # Edge-disjoint and covering: a class marked twice, in path then starter
    # order, is used by two paths; the smallest unmarked class of the first
    # length with one is not covered.  ``starts`` holds int64s without ``array``.
    rows, starts = [], memoryview(bytearray(8 * edges)).cast("q")
    for j, (u, v) in enumerate(cert.starter.edges()):
        row = marks[v - u]
        if row is None:
            row = marks[v - u] = bytearray(n)
        rows.append(row)
        starts[j] = u % n
    for o in cert.offsets:
        for row, s in zip(rows, starts):
            c = (s + o) % n
            if row[c]:
                d = next(d for d, marked in marks.items() if marked is row)
                return WindowCheck(False, f"length {d}, residue {c} mod {n} used by two paths")
            row[c] = 1
    for d, row in marks.items():
        c = 0 if row is None else row.find(0)
        if c >= 0:
            return WindowCheck(False, f"length {d}, residue {c} mod {n} not covered")
    return WindowCheck(True)
