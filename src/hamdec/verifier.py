"""Exact and brute-force checks that a certificate witnesses a Hamilton decomposition.

``verify_certificate`` reduces the infinite claim to finitely many exact
conditions on the starter path and the offsets.  ``window_oracle`` is the
independent cross-check: it materializes a finite slab of the infinite graph
and verifies degrees, acyclicity, connectivity and the edge partition
directly.  The two must always agree.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, filterfalse, islice, repeat

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

    1. the starter is a path with exactly ``period`` edges running between
       some multiple of the period and that value plus the period
       (canonically 0 and period);
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
       taken mod g (g = period for offsets without such structure);
    5. the offsets are distinct mod period.

    For certificates of this shape the five conditions are sound and
    complete, so acceptance is a proof, not a heuristic.
    """
    n = cert.period
    starter = cert.starter
    s_plus = cert.connection_set.s_plus
    failures: list[str] = []

    # (1) edge count and endpoints.  The implied decomposition is a union of
    # edge sets, so it is unchanged by reversing the starter or translating
    # it by a multiple of the period; endpoints are an unordered pair
    # {x, x + period} with x on the period's zero class.
    if starter.edge_count != n:
        failures.append(PATH_BROKEN)
    lo, hi = min(starter.first, starter.last), max(starter.first, starter.last)
    if hi - lo != n or lo % n != 0:
        failures.append(ENDPOINT_MISMATCH)

    # (2) residue coverage of the starter's vertices: all but the last hit
    # the n classes once each, and the last falls on the first one's class.
    vs = starter.vertices
    if not (len(vs) == n + 1 and vs[-1] % n == vs[0] % n
            and len({v % n for v in vs[:-1]}) == n):
        failures.append(RESIDUE_COVERAGE)

    # (3) + (4) edge lengths and per-length residue tiling; an edge's residue
    # is that of its smaller endpoint.
    tables: dict[int, list[int]] = {d: [] for d in s_plus}
    foreign = False
    for u, v in zip(vs, vs[1:]):
        if u > v:
            u, v = v, u
        table = tables.get(v - u)
        if table is None:
            foreign = True
        else:
            table.append(u % n)
    if foreign:
        failures.append(FOREIGN_EDGE_LENGTH)

    # The distinct offsets O are a union of classes mod g, where g = n/m for
    # the largest common divisor m of |O| and n that allows it, so A + O is
    # the preimage in Z_n of the cells A + (O mod g) of Z_g and has
    # |cells| * n/g residues.  The work is bounded by the starter and the
    # offsets, never by the period.
    distinct = set(cert.offsets)
    g = next(n // m for m in range(len(distinct), 0, -1)
             if len(distinct) % m == 0 and n % m == 0
             and len({o % (n // m) for o in distinct}) * m == len(distinct))
    classes = {o % g for o in distinct}
    overlap = gap = False
    for d in s_plus:
        cells = {(r + o) % g for o in classes for r in tables[d]}
        if len(tables[d]) * len(cert.offsets) > len(cells) * (n // g):
            overlap = True
        if len(cells) < g:
            gap = True
    if overlap:
        failures.append(LENGTH_RESIDUE_OVERLAP)
    if gap:
        failures.append(LENGTH_RESIDUE_GAP)

    # (5) offsets distinct (they are normalized into [0, period), so distinct
    # integers means distinct residues).
    if len(set(cert.offsets)) != len(cert.offsets):
        failures.append(OFFSET_COLLISION)

    accepted = not failures
    if accepted:
        # Forced by condition (4); a violation here is a library bug.
        assert all(len(tables[d]) * len(cert.offsets) == n for d in s_plus)
        # An accepted certificate of a non-admissible set would disprove a
        # necessary condition; that is a bug, never a report.
        assert analyze(cert.connection_set).admissible, \
            "accepted certificate for a non-admissible connection set"

    return VerificationReport(accepted=accepted, failures=tuple(failures))


class WindowCheck(Value):
    accepted: bool
    failure: str | None = None


def smallest_window_periods(cert: DecompositionCertificate) -> int:
    """The fewest periods ``window_oracle`` accepts for ``cert``.

    The window must hold the longest edge (``periods * n >= 2 * max_s``) and
    leave a non-empty core (``(periods - 1) * n >= max_s``), and has at least
    3 periods.
    """
    n, max_s = cert.period, cert.connection_set.s_plus[-1]
    return max(3, -(-2 * max_s // n), -(-max_s // n) + 1)


def window_oracle(cert: DecompositionCertificate, periods: int) -> WindowCheck:
    """Brute-force check on the finite slab [-periods*n, periods*n].

    Materializes every Hamilton path restricted to the slab and checks, inside
    a core sub-window where no boundary effect can bite: degree exactly 2 per
    path, no cycles, a single connected piece per path, pairwise edge
    disjointness, and that every graph edge is covered exactly once.
    """
    if periods < 3:
        raise ValueError("periods must be at least 3")
    n = cert.period
    s_plus = cert.connection_set.s_plus
    max_s = s_plus[-1]
    if periods * n < 2 * max_s:
        raise WindowTooSmall(
            f"window of {periods} periods ({periods * n}) cannot hold edges of length {max_s}")

    w_hi = periods * n
    w_lo = -w_hi
    core_hi = (periods - 1) * n - max_s
    core_lo = -core_hi
    if core_hi < core_lo:
        raise WindowTooSmall("core sub-window is empty; increase periods")

    paths = materialize_edges(cert, w_lo, w_hi)

    # Degree 2 at every core vertex, per path.  Core vertices keep all their
    # true neighbours inside the slab, so slab degree equals true degree.  A
    # core of more vertices than the path has edges fails: only scan it then.
    core = range(core_lo, core_hi + 1)
    for edges in paths:
        degree = Counter(chain.from_iterable(edges))
        if (core_hi - core_lo >= len(edges)
                or list(map(degree.get, core, repeat(0))).count(2) != len(core)):
            x = next(x for x in core if degree.get(x, 0) != 2)
            return WindowCheck(False, f"vertex {x} has degree {degree.get(x, 0)}")

    # Acyclic inside the slab, and the core vertices lie on one connected
    # piece.  Any translate touching the connectivity core must fit in the
    # slab entirely, so the core shrinks with the starter's span; a starter
    # spanning more than the slab leaves nothing to check and the condition
    # holds vacuously.  Union-find with path halving, over x - w_lo.
    span = max(cert.starter.vertices) - min(cert.starter.vertices)
    conn_hi = min(core_hi, w_hi - span)
    for edges in paths:
        parent = list(range(w_hi - w_lo + 1))
        for u, v in edges:
            u, v = u - w_lo, v - w_lo
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return WindowCheck(False, "cycle inside the window")
            parent[u] = v
        roots = set()
        for x in range(-conn_hi - w_lo, conn_hi - w_lo + 1):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            roots.add(x)
        if len(roots) > 1:
            return WindowCheck(False, "path is disconnected inside the window")

    # Pairwise edge-disjoint (each path is a forest, so repeats no edge of its
    # own), and every graph edge inside the core is used exactly once; of the
    # first uncovered edge of each length, the smallest comes first x-major.
    seen: set[tuple[int, int]] = set()
    for edges in paths:
        if not seen.isdisjoint(edges):
            e = next(e for e in edges if e in seen)
            return WindowCheck(False, f"edge {e} used by two paths")
        seen.update(edges)
    missing = [e for d in s_plus for e in islice(
        filterfalse(seen.__contains__, zip(core, range(core_lo + d, core_hi + 1))), 1)]
    if missing:
        return WindowCheck(False, f"edge {min(missing)} not covered")

    return WindowCheck(True)
