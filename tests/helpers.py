"""Shared test machinery: brute-force oracles, fuzz mutations, certificate corpora."""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import resource
import time
from collections import Counter
from functools import partial
from itertools import permutations
from pathlib import Path

from hypothesis import strategies as st

from hamdec import (
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    HamdecError,
    SearchOutcome,
    VertexOverflow,
    WindowCheck,
    WindowTooLarge,
    circular_length,
    construct_4valent,
    construct_consecutive,
    construct_even_run,
    construct_one_two_c,
    construct_skip_k,
    construct_walecki_family,
    verify_certificate,
    window_oracle,
)
from hamdec.cli import main
from hamdec.document import to_json
from hamdec.figures import MAX_WINDOW_EDGES
from hamdec.model import INT64_MAX, INT64_MIN


def naive_find(k: int, lengths) -> bool:
    """Permutation-enumeration oracle: does any Hamilton path on Z_k realize L?

    Enumerates the (k-1)!/2 candidate vertex sequences with first vertex 0
    and second vertex in the lower half (reflection through 0 maps witnesses
    to witnesses, so this halving is exact).
    """
    target = Counter(lengths)
    assert sum(target.values()) == k - 1
    for tail in permutations(range(1, k)):
        if 2 * tail[0] > k:
            continue
        seq = (0,) + tail
        if Counter(circular_length(u, v, k) for u, v in zip(seq, seq[1:])) == target:
            return True
    return False


def naive_find_unreduced(k: int, lengths) -> bool:
    """Fully unreduced oracle over all k! vertex sequences (tiny k only)."""
    target = Counter(lengths)
    for seq in permutations(range(k)):
        if Counter(circular_length(u, v, k) for u, v in zip(seq, seq[1:])) == target:
            return True
    return False


def is_hamilton_with_lengths(witness, k: int, lengths) -> bool:
    """Independent re-check of a claimed witness."""
    if witness is None or len(witness) != k or set(witness) != set(range(k)):
        return False
    found = Counter(circular_length(u, v, k) for u, v in zip(witness, witness[1:]))
    return found == Counter(lengths)


def reference_find_path(k: int, lengths) -> SearchOutcome:
    """The recursive search that ``buratti.find_path`` replaced, verbatim apart
    from the multiset coercion: one call per vertex, so it needs a recursion
    limit above k.  The iterative search must match its witness and node count.
    """
    remaining = Counter(lengths)
    visited = bytearray(k)
    visited[0] = 1
    path = [0]
    nodes = 0
    started = time.perf_counter()

    def extend() -> bool:
        nonlocal nodes
        if len(path) == k:
            return True
        v = path[-1]
        depth = len(path)
        order = sorted((d for d, c in remaining.items() if c),
                       key=lambda d: (-remaining[d], d))
        for d in order:
            down = (v - d) % k
            up = (v + d) % k
            for w in (down,) if down == up else (down, up):
                if visited[w]:
                    continue
                if depth == 1 and 2 * w > k:
                    continue
                nodes += 1
                visited[w] = 1
                path.append(w)
                remaining[d] -= 1
                if extend():
                    return True
                remaining[d] += 1
                path.pop()
                visited[w] = 0
        return False

    witness = tuple(path) if extend() else None
    return SearchOutcome(witness=witness, nodes_expanded=nodes,
                         elapsed=time.perf_counter() - started)


def limit_address_space_128_mib() -> None:
    """A ``preexec_fn`` for a child that must run in 128 MiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))


def reference_realize(start: int, steps) -> tuple[int, ...]:
    """The vertices of a walk, each partial sum checked as it is formed.

    A partial sum outside the signed 64-bit range raises VertexOverflow at
    once, before any repeat is looked for; then the path is built.
    """
    vertices = [start]
    for z in steps:
        v = vertices[-1] + z
        if not INT64_MIN <= v <= INT64_MAX:
            raise VertexOverflow(f"vertex {v} outside the signed 64-bit range")
        vertices.append(v)
    return FinitePath(vertices).vertices


class BlockChain:
    """Walk blocks appended one at a time, each checked to start at the cursor."""

    def __init__(self, start: int = 0):
        self.start = self.cursor = start
        self.steps: list[int] = []

    def block(self, expected_start: int, steps) -> None:
        assert self.cursor == expected_start, (self.cursor, expected_start)
        self.steps += steps
        self.cursor += sum(steps)

    def vertices(self) -> tuple[int, ...]:
        return reference_realize(self.start, self.steps)


def reference_4valent_starter(a: int, b: int) -> tuple[int, ...]:
    """The 4-valent starter built one backward block at a time."""
    t = b - a
    alpha = {i: (i * (a % t)) % t for i in range(0, t, 2)}
    alpha[t] = t
    chain = BlockChain()
    for i in range(0, t, 2):
        chain.block(alpha[i], (a, b))
        v = 2 * a + alpha[i] + t
        while v >= t + alpha[i + 2]:
            chain.block(v, (a, -b))
            v -= t
    chain.block(t, (a, b))
    return chain.vertices()


def reference_one_two_c_starter(c: int) -> tuple[int, ...]:
    """The one-two-c starter for even c >= 6, built one four-step block at a time."""
    t = c // 2
    chain = BlockChain()
    if t % 2 == 1:
        for v in range(0, t - 2, 2):
            chain.block(v, (1, c, 1, -c))
        chain.block(t - 1, [2] * ((t + 1) // 2))
        chain.block(c, [-1] + [-2] * ((t - 1) // 2))
    elif t == 4:
        chain.block(0, (1, 8, 2, -8, 2, 1, 1, 1, 2, -8, 2, 8))
        return chain.vertices()
    else:
        chain.block(0, (1, c, 2, -c, -1, c, -2))
        chain.block(c, [-1] * (t - 5))
        chain.block(t + 5, (-2, 1, -2, -1, -2))
        if t % 4 == 0:
            for v in range(t - 1, 10, -4):
                chain.block(v, (c, -2, -c, -2))
            chain.block(7, (c, -2, -c, -1))
            for v in range(4, t - 3, 4):
                chain.block(v, (c, 2, -c, 2))
        else:
            for v in range(t - 1, 8, -4):
                chain.block(v, (c, -2, -c, -2))
            chain.block(5, (c, -1, -c, 2))
            for v in range(6, t - 3, 4):
                chain.block(v, (c, 2, -c, 2))
    chain.block(t, (c,))
    return chain.vertices()


def translate(path: FinitePath, t: int) -> FinitePath:
    """Shift every vertex by t; the edge-length multiset is unchanged."""
    return FinitePath(v + t for v in path.vertices)


def edge_length_multiset(path: FinitePath) -> dict[int, int]:
    """Count |v - u| over the path's edges."""
    return dict(Counter(v - u for u, v in path.edges()))


def canonical(path: FinitePath) -> tuple[int, ...]:
    """The path's vertices, oriented so that the first is <= the last."""
    vs = path.vertices
    return vs if vs[0] <= vs[-1] else vs[::-1]


def component_set(s: ConnectionSet) -> ConnectionSet:
    """The connection set of one connected component: every generator over gcd(S)."""
    d = math.gcd(*s.s_plus)
    return ConnectionSet(a // d for a in s.s_plus)


def reference_residue_tables(cert: DecompositionCertificate) -> dict[int, tuple[int, ...]]:
    """Length d in S+ -> the sorted residues mod period of the starter's length-d edges."""
    tables = {d: [] for d in cert.connection_set.s_plus}
    for u, v in cert.starter.edges():
        if v - u in tables:
            tables[v - u].append(u % cert.period)
    return {d: tuple(sorted(rs)) for d, rs in tables.items()}


def reference_failures(cert: DecompositionCertificate) -> tuple[str, ...]:
    """The exact verifier's failure kinds, recomputed the direct way.

    Condition (4) counts every translate ``(r + o) mod period`` of every
    length-d residue r by every offset o, with no reduction mod a divisor.
    """
    n, vs = cert.period, cert.starter.vertices
    failures = []
    if len(vs) - 1 != n:
        failures.append("PathBroken")
    lo, hi = sorted((vs[0], vs[-1]))
    if hi - lo != n:
        failures.append("EndpointMismatch")
    counts = Counter(v % n for v in vs)
    end = vs[0] % n
    if not (counts[end] == 2 and vs[-1] % n == end and len(counts) == n
            and all(c == 1 for r, c in counts.items() if r != end)):
        failures.append("ResidueCoverage")
    tables = {d: [] for d in cert.connection_set.s_plus}
    for u, v in cert.starter.edges():
        tables.setdefault(v - u, []).append(u % n)
    if set(tables) != set(cert.connection_set.s_plus):
        failures.append("ForeignEdgeLength")
    combined = [Counter((r + o) % n for r in tables[d] for o in cert.offsets)
                for d in cert.connection_set.s_plus]
    if any(c > 1 for counter in combined for c in counter.values()):
        failures.append("LengthResidueOverlap")
    if any(len(counter) < n for counter in combined):
        failures.append("LengthResidueGap")
    if len(set(cert.offsets)) != len(cert.offsets):
        failures.append("OffsetCollision")
    return tuple(failures)


def reference_materialize_edges(cert: DecompositionCertificate, offset: int,
                                lo: int, hi: int) -> list[tuple[int, int]]:
    """All edges of the Hamilton path ``H + offset`` with both endpoints in [lo, hi].

    ``H`` is the union of the starter's period-translates; edges come starter
    edge by starter edge, each in increasing translate order.
    """
    n = cert.period
    edges = []
    for u, v in cert.starter.edges():
        i_min = -((u + offset - lo) // n)  # ceil((lo - u - offset) / n)
        i_max = (hi - v - offset) // n
        for i in range(i_min, i_max + 1):
            edges.append((u + n * i + offset, v + n * i + offset))
    return edges


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the classes of x and y; False if they were already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def reference_window_oracle(cert: DecompositionCertificate, periods: int) -> WindowCheck:
    """The window oracle written edge by edge, as a reference for ``window_oracle``.

    Names each failure by a residue class mod n, as ``window_oracle`` does,
    and answers the same at every window of at least 3 periods: it walks
    every edge of slabs of its own, not of the window.

    First checks, from the starter's edges, that every edge used is an edge
    of the graph, so that a length of any size is refused.  Then
    materializes every Hamilton path on the slab [-max_s, n - 1 + max_s],
    where every vertex of [0, n), one per class, keeps all its neighbours
    and every class (d, r) of length d <= max_s has its edge (r, r + d), and
    checks there degree exactly 2 per path.  Then, on a slab sized from the
    starter's span, that no path has a cycle and that its connectivity core,
    [-n, n], lies on one piece.  Last, on the first slab, pairwise edge
    disjointness and that every graph edge is covered.  Failures come in
    that order, the order of ``window_oracle``.
    """
    if periods < 3:
        raise ValueError("periods must be at least 3")
    n = cert.period
    s_plus = cert.connection_set.s_plus
    max_s = s_plus[-1]

    # Every used length is in S+.  Per offset and starter edge (u, u + d)
    # with d outside S+, its translates' class (d, (u + o) mod n) is a
    # candidate, whether or not any slab holds the edge; the smallest is
    # named.
    foreign = [(v - u, (u + o) % n) for o in cert.offsets for u, v in cert.starter.edges()
               if v - u not in s_plus]
    if foreign:
        d, r = min(foreign)
        return WindowCheck(False, f"length {d}, residue {r} mod {n} is not an edge of the graph")

    paths = [reference_materialize_edges(cert, o, -max_s, n - 1 + max_s) for o in cert.offsets]

    # Degree 2 at the vertices 0..n-1, per path: they keep all their true
    # neighbours inside the slab, and every vertex shares the degree of the
    # one of its class.
    for edges in paths:
        degree = Counter()
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        for c in range(n):
            if degree[c] != 2:
                return WindowCheck(False, f"vertex class {c} mod {n} has degree {degree[c]}")

    # Acyclic, and the connectivity core lies on one connected piece, on a
    # slab wide enough that every translate touching the core fits in it
    # whole.  The core is 2n + 1 wide, so it holds a vertex v with v + n,
    # which lie on different chains of a path of several: such a path cannot
    # pass for one however long its starter.
    span = max(cert.starter.vertices) - min(cert.starter.vertices)
    for o in cert.offsets:
        uf = _UnionFind()
        for u, v in reference_materialize_edges(cert, o, -n - span, n + span):
            if not uf.union(u, v):
                return WindowCheck(False, "cycle inside the window")
        if len({uf.find(x) for x in range(-n, n + 1)}) > 1:
            return WindowCheck(False, "path is disconnected")

    # Pairwise edge-disjoint, and every graph edge is used exactly once.  The
    # edges of one class come together, and the slab holds one of each, so
    # the first edge seen twice lies in the first class used twice.
    seen: set[tuple[int, int]] = set()
    for edges in paths:
        for u, v in edges:
            if (u, v) in seen:
                return WindowCheck(False, f"length {v - u}, residue {u % n} mod {n} used by two paths")
            seen.add((u, v))
    for d in s_plus:
        for r in range(n):
            if (r, r + d) not in seen:
                return WindowCheck(False, f"length {d}, residue {r} mod {n} not covered")

    return WindowCheck(True)


# ------------------------------------------------------ reference figures
# The tuple-based renderers that ``hamdec.figures`` replaced, kept verbatim
# apart from their names and the tuple materialiser they call: the figures
# must render the same bytes.

def reference_path_edges_in_range(cert: DecompositionCertificate, lo: int, hi: int
                                  ) -> list[list[tuple[int, int]]]:
    """Edges of each Hamilton path with both endpoints in [lo, hi], sorted.

    The figures draw one vertex per integer of the range, so a range of more
    than ``MAX_WINDOW_EDGES`` integers raises WindowTooLarge first.
    """
    if hi - lo + 1 > MAX_WINDOW_EDGES:
        raise WindowTooLarge(
            f"range {lo}..{hi} has {hi - lo + 1} vertices, more than the cap of {MAX_WINDOW_EDGES}")
    return [sorted(reference_materialize_edges(cert, o, lo, hi)) for o in cert.offsets]


def reference_stroke_color(j: int, total: int) -> str:
    hue = (j * 360) // max(total, 1)
    return f"hsl({hue},65%,38%)"


def reference_render_figure(cert: DecompositionCertificate, lo: int, hi: int, fmt: str) -> str:
    """``render_figure`` over the reference renderers."""
    per_path = reference_path_edges_in_range(cert, lo, hi)
    if fmt == "dot":
        return reference_dot(lo, hi, per_path)
    return reference_svg(cert.period, lo, hi, per_path)


def reference_svg(period: int, lo: int, hi: int, per_path: list[list[tuple[int, int]]]) -> str:
    total = len(per_path)

    unit = 24
    margin = 40
    max_len = max((v - u for edges in per_path for u, v in edges), default=1)
    arc_height = max_len * unit // 2
    width = (hi - lo) * unit + 2 * margin
    baseline = arc_height + margin
    height = baseline + margin

    def x(v: int) -> int:
        return margin + (v - lo) * unit

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>",
        "path { fill: none; stroke-width: 1.6; }",
        "text { font-family: monospace; font-size: 10px; text-anchor: middle; }",
    ]
    for j in range(total):
        lines.append(f".h{j} {{ stroke: {reference_stroke_color(j, total)}; }}")
    lines.append("</style>")
    lines.append(f'<line x1="{x(lo)}" y1="{baseline}" x2="{x(hi)}" y2="{baseline}" '
                 'stroke="#999" stroke-width="1"/>')

    label_step = 1 if hi - lo <= 60 else period
    for v in range(lo, hi + 1):
        lines.append(f'<circle cx="{x(v)}" cy="{baseline}" r="2" fill="#333"/>')
        if (v - lo) % label_step == 0:
            lines.append(f'<text x="{x(v)}" y="{baseline + 14}">{v}</text>')

    for j, edges in enumerate(per_path):
        for u, v in edges:
            r = (v - u) * unit / 2
            lines.append(
                f'<path class="h{j}" d="M {x(u)} {baseline} '
                f'A {r:.1f} {r:.1f} 0 0 1 {x(v)} {baseline}"/>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_dot(lo: int, hi: int, per_path: list[list[tuple[int, int]]]) -> str:
    total = len(per_path)

    lines = [
        "graph decomposition {",
        "  layout=neato;",
        "  splines=curved;",
        '  node [shape=point, width=0.06, xlabel="\\N"];',
    ]
    for v in range(lo, hi + 1):
        lines.append(f'  "{v}" [pos="{v - lo},0!"];')
    for j, edges in enumerate(per_path):
        color = reference_stroke_color(j, total)
        for u, v in edges:
            lines.append(f'  "{u}" -- "{v}" [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def mutate(cert: DecompositionCertificate, rng: random.Random) -> list[DecompositionCertificate]:
    """One mutant per mutation kind: vertex swap, offset change, vertex splice."""
    mutants = []
    vs = list(cert.starter.vertices)

    i, j = rng.sample(range(len(vs)), 2)
    swapped = list(vs)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    mutants.append(DecompositionCertificate(
        cert.connection_set, cert.period, FinitePath(swapped), cert.offsets))

    offs = list(cert.offsets)
    pos = rng.randrange(len(offs))
    offs[pos] = rng.randrange(cert.period)
    mutants.append(DecompositionCertificate(
        cert.connection_set, cert.period, cert.starter, offs))

    if len(vs) > 2:
        spliced = list(vs)
        del spliced[rng.randrange(1, len(vs) - 1)]
        mutants.append(DecompositionCertificate(
            cert.connection_set, cert.period, FinitePath(spliced), cert.offsets))

    return mutants


def walecki_magnitudes(k: int, rng: random.Random, spread: int = 2) -> tuple[int, ...]:
    """Random admissible magnitudes a_i = i + k*m_i with the parity fixed up."""
    m = [rng.randrange(0, spread) for _ in range(k - 1)]
    if sum(m) % 2 != ((k - 1) // 2) % 2:
        m[0] += 1
    return tuple(i + k * m[i - 1] for i in range(1, k))


def family_corpus(*, four_valent_max_b: int = 45, consecutive_max_k: int = 17,
                  skip_max_k: int = 19, even_run_max_t: int = 12,
                  one_two_c_max: int = 40, walecki_ks=(3, 5, 7, 9),
                  seed: int = 7) -> list[DecompositionCertificate]:
    """A mixed corpus of valid certificates across every family."""
    rng = random.Random(seed)
    corpus = []
    for b in range(3, four_valent_max_b + 1, 2):
        for a in range(1, b, 2):
            if math.gcd(a, b) == 1:
                corpus.append(construct_4valent(a, b))
    for k in range(1, consecutive_max_k + 1):
        if k % 4 in (0, 1):
            corpus.append(construct_consecutive(k))
    for k in range(2, skip_max_k + 1):
        if k % 4 in (2, 3):
            corpus.append(construct_skip_k(k))
    for t in range(2, even_run_max_t + 1, 2):
        corpus.append(construct_even_run(t))
    for c in range(4, one_two_c_max + 1, 2):
        corpus.append(construct_one_two_c(c))
    for k in walecki_ks:
        corpus.append(construct_walecki_family(k, walecki_magnitudes(k, rng)))
    return corpus


def non_admissible_sets(count: int, seed: int = 3) -> list[ConnectionSet]:
    """Assorted connection sets violating at least one necessary condition."""
    from hamdec import analyze

    rng = random.Random(seed)
    out = [ConnectionSet([1, 2]), ConnectionSet([2, 4]), ConnectionSet([1, 2, 3]),
           ConnectionSet([5]), ConnectionSet([3, 9]), ConnectionSet([2, 6, 10])]
    while len(out) < count:
        size = rng.randrange(1, 6)
        s = ConnectionSet(rng.sample(range(1, 40), size))
        if not analyze(s).admissible:
            out.append(s)
    return out[:count]


GOLDEN_CONSTRUCTIONS = Path(__file__).parent / "golden" / "constructions.txt"


def golden_construction_cases():
    """(case id, call) of the golden construction corpus, in file order.

    Every size 1..399 of the four one-parameter families, then every
    4-valent pair a < b < 80; sizes outside a family are refusals, and
    refusals are cases too.
    """
    for family, build in (("consecutive", construct_consecutive), ("skip-k", construct_skip_k),
                          ("even-run", construct_even_run), ("one-two-c", construct_one_two_c)):
        for n in range(1, 400):
            yield f"{family}:{n}", partial(build, n)
    for b in range(2, 80):
        for a in range(1, b):
            yield f"four-valent:{a},{b}", partial(construct_4valent, a, b)


def golden_digest(call) -> str:
    """sha256 of the certificate's document and exact report, or of the refusal's type and message."""
    try:
        cert = call()
    except (ValueError, HamdecError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    else:
        text = to_json(cert) + repr(verify_certificate(cert))
    return hashlib.sha256(text.encode()).hexdigest()


def window_reproducers() -> dict[str, DecompositionCertificate]:
    """Damaged certificates that the window oracle once accepted while the exact check refused them.

    One per gap: a used length outside S+, paths that fall apart beyond a
    long starter's reach, a length whose edges the core was too narrow to
    check, and a length outside S+ too long for the slab to hold.
    """
    return {name: DecompositionCertificate(ConnectionSet(s_plus), period, FinitePath(starter),
                                           offsets)
            for name, (s_plus, period, starter, offsets) in (
                ("foreign-edge", ((1,), 2, (0, -1, 2), (0, 1))),
                ("disconnected", ((1, 5), 4, (0, -1, -2, -7, -12), (0, 2))),
                ("uncovered-length", ((1, 3), 2, (0, 1, 2), (1,))),
                ("long-edge", ((1,), 1, (0, 1, 100), (0,))))}


def walk_certificates(count: int, seed: int) -> list[DecompositionCertificate]:
    """Small certificates whose starters visit each residue once, with lengths outside S+.

    Each starter steps from 0 through the other residues mod n in a random
    order and back to the class of 0, each step of length at most 2n - 1, so
    a starter may span several periods.  S+ is a random part of the lengths
    it uses, sometimes with one more.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        vs = [0]
        for r in [*rng.sample(range(1, n), n - 1), 0]:
            step = (r - vs[-1]) % n + n * rng.choice((-1, 0, 0, 1))
            if step == 0 or vs[-1] + step in vs:
                break
            vs.append(vs[-1] + step)
        else:
            used = sorted({abs(v - u) for u, v in zip(vs, vs[1:])})
            s_plus = rng.sample(used, rng.randint(1, len(used))) + \
                rng.sample(range(1, 7), rng.randint(0, 1))
            offsets = rng.sample(range(n), rng.randint(1, n))
            out.append(DecompositionCertificate(ConnectionSet(s_plus), n, FinitePath(vs), offsets))
    return out


def random_certificates(count: int, seed: int) -> list[DecompositionCertificate]:
    """Small certificates with arbitrary starters, nearly all of them damaged.

    Period n <= 6, one to three lengths from 1..5 in S+, a starter of 2 to
    n + 4 distinct vertices from -3..n+3, and 1 to n distinct offsets.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        s_plus = rng.sample(range(1, 6), rng.randint(1, 3))
        vs = rng.sample(range(-3, n + 4), rng.randint(2, n + 4))
        offsets = rng.sample(range(n), rng.randint(1, n))
        out.append(DecompositionCertificate(ConnectionSet(s_plus), n, FinitePath(vs), offsets))
    return out


@st.composite
def small_certificates(draw) -> DecompositionCertificate:
    """Hypothesis strategy: small certificates, valid ones among them, for the two checks to agree on.

    Period n <= 8 and at most three lengths in S+.  The starter is a residue
    walk, as in ``walk_certificates``, or an arbitrary sequence of distinct
    vertices, shifted by up to a period either way.  S+ is drawn from the
    lengths it uses and a few others, so some of its steps may be foreign.
    The offsets are a union of cosets of a subgroup of Z_n, which is how
    valid certificates look, or any list, with repeats.
    """
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        vs = [0]
        for r in [*draw(st.permutations(range(1, n))), 0]:
            step = (r - vs[-1]) % n + n * draw(st.sampled_from((-1, 0, 0, 1)))
            while step == 0 or vs[-1] + step in vs:
                step += n
            vs.append(vs[-1] + step)
    else:
        vs = draw(st.lists(st.integers(-3, n + 3), min_size=2, max_size=n + 4, unique=True))
    shift = draw(st.integers(-n, n))
    used = sorted({abs(v - u) for u, v in zip(vs, vs[1:])})
    s_plus = draw(st.lists(st.sampled_from(used) | st.integers(1, 2 * n), min_size=1, max_size=3))
    if draw(st.booleans()):
        m = draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
        offsets = {(t + i * (n // m)) % n
                   for t in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
                   for i in range(m)}
    else:
        offsets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 2))
    return DecompositionCertificate(ConnectionSet(s_plus), n,
                                    FinitePath(v + shift for v in vs), offsets)


GOLDEN_ORACLE = Path(__file__).parent / "golden" / "oracle.txt"


def golden_oracle_cases():
    """(case id, certificate, periods) of the golden window-oracle corpus, in file order.

    Every fifth ``family_corpus()`` certificate (``corpus<i>``, i its index
    there) and its ``mutate`` mutants (seed 0), the ``window_reproducers``,
    300 ``walk_certificates`` (``walk<i>``) and 200 ``random_certificates``
    (``random<i>``), both of seed 11, each at 3, 5 and ``auto`` periods.
    """
    rng = random.Random(0)
    certs = {}
    for i, cert in enumerate(family_corpus()):
        if i % 5 == 0:
            certs[f"corpus{i}"] = cert
            for j, mutant in enumerate(mutate(cert, rng)):
                certs[f"corpus{i}-mutant{j}"] = mutant
    certs.update(window_reproducers())
    certs.update((f"walk{i}", cert) for i, cert in enumerate(walk_certificates(300, seed=11)))
    certs.update((f"random{i}", cert)
                 for i, cert in enumerate(random_certificates(200, seed=11)))
    for name, cert in certs.items():
        for periods in ("3", "5", "auto"):
            yield f"{name}:{periods}", cert, periods


def golden_oracle_digest(cert: DecompositionCertificate, periods: str) -> str:
    """sha256 of ``window_oracle``'s check and window, or of the refusal's type and message.

    ``auto`` is 3 periods, as in ``hamdec verify``.
    """
    try:
        p = 3 if periods == "auto" else int(periods)
        text = f"{p} periods: {window_oracle(cert, p)!r}"
    except (ValueError, HamdecError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli.txt"


def golden_cli_cases(root: Path):
    """(case id, argv) of the golden CLI corpus, in file order.

    Writes the certificate files that ``verify`` and ``figure`` read under
    ``root`` first, and names ``--out`` files under it.  The ``verify`` cases
    run at 3, 5 and ``auto`` periods on one certificate of each family, on
    its ``mutate`` mutants (seed 0) and on the ``window_reproducers``,
    damaged certificates that the window oracle accepted while the exact
    check refused them.
    """
    rng = random.Random(0)
    certs = {}
    for name, cert in (("consecutive-4", construct_consecutive(4)),
                       ("consecutive-5", construct_consecutive(5)),
                       ("skip-k-6", construct_skip_k(6)), ("skip-k-7", construct_skip_k(7)),
                       ("even-run-4", construct_even_run(4)),
                       ("one-two-c-10", construct_one_two_c(10)),
                       ("four-valent-3-7", construct_4valent(3, 7)),
                       ("cyclic-lift-5", construct_walecki_family(5, (1, 7, 3, 9)))):
        certs[name] = cert
        for i, mutant in enumerate(mutate(cert, rng)):
            certs[f"{name}-mutant{i}"] = mutant
    certs.update(window_reproducers())
    for name, cert in certs.items():
        (root / f"{name}.json").write_text(to_json(cert, provenance=name), encoding="utf-8")
    (root / "junk.json").write_text("{not json", encoding="utf-8")

    for name, s in (("admissible", "1,3"), ("not-admissible", "1,2"), ("zero", "0,3"),
                    ("garbage", "1,x")):
        yield f"check:{name}", ["check", "--set", s]
    for name, s in (("consecutive", "1,2,3,4"), ("skip-k", "1,2,4"), ("even-run", "1,2,4,6,8"),
                    ("one-two-c", "1,2,10"), ("four-valent", "3,5"), ("cyclic-lift", "1,3,5"),
                    ("not-admissible", "1,2"), ("not-admissible-gcd", "2,4"), ("empty", ""),
                    ("zero-one", "0,1"), ("garbage", "1,x"), ("unsupported", "4,6,9"),
                    ("lift-exhausted", "1,3,6,9,12,15,21,24,30"),
                    ("over-cap-4valent", "1,99999999"), ("over-cap-one-two-c", "1,2,1000000000000"),
                    ("over-cap-int64", "9223372036854775807,1")):
        yield f"construct:{name}", ["construct", "--set", s]
    yield "construct:out", ["construct", "--set", "1,2,3,4", "--out", str(root / "out.json")]
    yield "construct:out-unwritable", ["construct", "--set", "1,2,3,4",
                                       "--out", str(root / "missing" / "out.json")]
    for name in certs:
        for periods in ("3", "5", "auto"):
            yield (f"verify:{name}:{periods}",
                   ["verify", "--cert", str(root / f"{name}.json"), "--window-periods", periods])
    yield "verify:junk", ["verify", "--cert", str(root / "junk.json")]
    yield "verify:missing", ["verify", "--cert", str(root / "missing.json")]
    for name, args in (("found", ["--k", "5", "--lengths", "1,1,2,2"]),
                       ("exhausted", ["--k", "9", "--lengths", "3x8"]),
                       ("bad-multiset", ["--k", "5", "--lengths", "1,1"]),
                       ("k-without-lengths", ["--k", "5"]),
                       ("neither-flag", []),
                       ("both-flags", ["--k", "5", "--lengths", "1,1,2,2", "--sweep-prime", "5"]),
                       ("sweep-5", ["--sweep-prime", "5"]), ("sweep-7", ["--sweep-prime", "7"]),
                       ("sample", ["--sweep-prime", "11", "--sample", "3", "--seed", "2"]),
                       ("bad-modulus", ["--sweep-prime", "9"])):
        yield f"buratti:{name}", ["buratti", *args]
    cert = str(root / "consecutive-4.json")
    for name, args in (("svg", ["--range", "0..16"]), ("dot", ["--range", "0..16", "--format", "dot"]),
                       ("negative-range", ["--range", "-8..16"]),
                       ("negative-range-joined", ["--range=-8..16", "--format", "dot"]),
                       ("empty-range", ["--range", "5..1"]),
                       ("out", ["--range", "0..16", "--out", str(root / "out.svg")]),
                       ("out-unwritable", ["--range", "0..16",
                                           "--out", str(root / "missing" / "out.svg")])):
        yield f"figure:{name}", ["figure", "--cert", cert, *args]


def golden_cli_digest(argv, root: Path) -> str:
    """sha256 of ``main(argv)``'s exit code, stdout, stderr and ``--out`` file, run in-process.

    ``root`` reads as ``<tmp>`` everywhere and the sweep summary's seconds as
    ``<s>``.  An argparse usage error keeps its last stderr line alone: the
    usage lines above it wrap with the terminal width and the Python version.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            err = io.StringIO(err.getvalue().splitlines(keepends=True)[-1])
    written = ""
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        written = path.read_text(encoding="utf-8") if path.exists() else "<none>"
    text = (f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            f"--- out\n{written}")
    text = re.sub(r"(failures, )\d+\.\ds\n", r"\1<s>s\n", text.replace(str(root), "<tmp>"))
    return hashlib.sha256(text.encode()).hexdigest()
