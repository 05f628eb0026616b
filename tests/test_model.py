import enum
import time
import tracemalloc
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

import helpers
from hamdec import figures, model
from hamdec import (
    ConnectionSet,
    DecompositionCertificate,
    EmptyConnectionSet,
    FinitePath,
    RepeatedVertex,
    VertexOverflow,
    WindowTooLarge,
    circular_length,
)
from helpers import edge_length_multiset, translate


def realize(start, steps=()):
    """The path a walk traces: its start and every partial sum, as ``_Chain.path`` builds starters."""
    return FinitePath(accumulate(steps, initial=start))


def test_realize_forward_block():
    assert realize(0, (1, 3)).vertices == (0, 1, 4)


def test_realize_empty_walk_is_single_vertex():
    assert realize(5).vertices == (5,)


def test_realize_rejects_return_to_start():
    with pytest.raises(RepeatedVertex):
        realize(4, (3, -3))


def test_translate_simple():
    assert translate(FinitePath((0, 1, 4)), 3).vertices == (3, 4, 7)


def test_translate_consecutive_starter():
    p = FinitePath((0, -1, 1, 5, 2, 3, 6, 4, 8))
    assert translate(p, 2).vertices == (2, 1, 3, 7, 4, 5, 8, 6, 10)


def test_edge_length_multiset_examples():
    assert edge_length_multiset(FinitePath((0, 1, -1, 3))) == {1: 1, 2: 1, 4: 1}
    assert edge_length_multiset(FinitePath((5,))) == {}
    assert edge_length_multiset(FinitePath((0, 1, 4, 5, 2, 3, 6))) == {1: 3, 3: 3}


paths = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30, unique=True).map(FinitePath)
shifts = st.integers(-10**6, 10**6)


@given(paths, shifts)
def test_translate_roundtrip(p, t):
    assert translate(translate(p, t), -t) == p


@given(paths, shifts)
def test_edge_lengths_translation_invariant(p, t):
    assert edge_length_multiset(translate(p, t)) == edge_length_multiset(p)


@given(st.integers(-1000, 1000), st.lists(st.integers(-50, 50).filter(bool), max_size=12), shifts)
def test_realize_commutes_with_translation(start, steps, t):
    try:
        base = realize(start, steps)
    except RepeatedVertex:
        base = None
    if base is None:
        with pytest.raises(RepeatedVertex):
            realize(start + t, steps)
    else:
        assert realize(start + t, steps) == translate(base, t)


def test_canonicalize_orients_by_endpoints():
    p = FinitePath((6, 3, 2, 5, 4, 1, 0))
    assert helpers.canonical(p) == (0, 1, 4, 5, 2, 3, 6)
    assert helpers.canonical(FinitePath(helpers.canonical(p))) == helpers.canonical(p)
    assert helpers.canonical(FinitePath((0, 1))) == (0, 1)


def test_connection_set_normalizes_and_validates():
    s = ConnectionSet([3, 1, 3])
    assert s.s_plus == (1, 3)
    with pytest.raises(EmptyConnectionSet):
        ConnectionSet([])
    with pytest.raises(ValueError):
        ConnectionSet([0, 3])
    with pytest.raises(ValueError):
        ConnectionSet([-2])


@pytest.mark.parametrize("entries", [[1, True], [True, 1], [1, 1.0], [1.0, 1]])
def test_connection_set_refuses_non_ints_in_any_order(entries):
    # ``set`` merges True and 1.0 into 1, so each entry is checked before it.
    with pytest.raises(TypeError, match="vertex must be an int"):
        ConnectionSet(entries)


def test_vertex_overflow_fails_loudly():
    with pytest.raises(VertexOverflow):
        FinitePath((0, 2**63))
    with pytest.raises(VertexOverflow):
        realize(2**63 - 1, (1,))


def test_certificate_structural_validation():
    cert = DecompositionCertificate(ConnectionSet([1, 3]), 6,
                                    FinitePath((0, 1, 4, 5, 2, 3, 6)), (3, 0))
    assert cert.offsets == (0, 3)  # normalized ascending
    with pytest.raises(ValueError):
        DecompositionCertificate(ConnectionSet([1, 3]), 0, FinitePath((0, 1)), (0,))
    for period in (True, 1.0):
        # JSON would write a bool period as ``true``, which ``from_json`` refuses.
        with pytest.raises(ValueError) as info:
            DecompositionCertificate(ConnectionSet([1]), period, FinitePath((0, 1)), (0,))
        assert str(info.value) == f"period must be a positive integer, got {period!r}"
    with pytest.raises(ValueError):
        DecompositionCertificate(ConnectionSet([1, 3]), 6, FinitePath((0, 1)), (6,))
    with pytest.raises(ValueError):
        DecompositionCertificate(ConnectionSet([1, 3]), 6, FinitePath((0, 1)), ())


def test_circular_length():
    assert circular_length(0, 1, 9) == 1
    assert circular_length(0, 8, 9) == 1
    assert circular_length(2, 7, 9) == 4
    assert circular_length(0, 13, 9) == 4


def edges_in_range(cert, lo, hi):
    """``figures.path_edges_in_range`` with each key decoded to its edge ``(u, u + d)``."""
    m = hi - lo + 1
    return [[(lo + key // m, lo + key // m + key % m) for key in keys]
            for keys in figures.path_edges_in_range(cert, lo, hi)]


def test_path_edges_in_range_matches_reference():
    cert = DecompositionCertificate(
        ConnectionSet([1, 3]), 6, FinitePath((0, 1, 4, 5, 2, 3, 6)), (0, 3))
    # Every translate of every starter edge with both ends in the range, per
    # offset, sorted.
    assert edges_in_range(cert, -3, 8) == [
        [(-3, 0), (-2, -1), (0, 1), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (6, 7)],
        [(-3, -2), (-2, 1), (-1, 0), (-1, 2), (0, 3), (1, 2), (3, 4), (4, 7), (5, 6),
         (5, 8), (7, 8)],
    ]
    for cert in helpers.family_corpus(four_valent_max_b=9, consecutive_max_k=9,
                                      skip_max_k=11, even_run_max_t=6,
                                      one_two_c_max=10, walecki_ks=(3, 5)):
        n = cert.period
        for lo, hi in ((0, n), (-2 * n - 1, 3 * n + 2), (5, 4 * n + 1)):
            assert edges_in_range(cert, lo, hi) == [
                sorted(helpers.reference_materialize_edges(cert, o, lo, hi)) for o in cert.offsets]


def test_path_edges_in_range_edge_cap(monkeypatch):
    # 0..60 has 61 vertices, under both caps below, so only the edge bound
    # can refuse it.
    cert = DecompositionCertificate(
        ConnectionSet([1, 3]), 6, FinitePath((0, 1, 4, 5, 2, 3, 6)), (0, 3))
    bound = 2 * 6 * (60 // 6 + 1)  # offsets * starter edges * (range periods + 1)
    monkeypatch.setattr(figures, "MAX_WINDOW_EDGES", bound)
    edges = edges_in_range(cert, 0, 60)
    assert edges == [sorted(helpers.reference_materialize_edges(cert, o, 0, 60))
                     for o in cert.offsets]
    assert sum(map(len, edges)) <= bound
    monkeypatch.setattr(figures, "MAX_WINDOW_EDGES", bound - 1)
    with pytest.raises(WindowTooLarge, match=f"may hold {bound} edges"):
        figures.path_edges_in_range(cert, 0, 60)


def test_one_edge_over_the_real_cap_is_refused_before_allocating():
    # S+ = {1}, period 1.  With the starter (0, 1), [0, hi] has hi + 1
    # vertices and an edge bound of hi + 1 (it holds hi edges): hi = cap is
    # one over both caps.  Three starter edges triple the edge bound, so
    # [0, 41666] is one over the edge cap alone.  One vertex less runs.
    cap = figures.MAX_WINDOW_EDGES
    for starter, hi in (((0, 1), cap), ((0, 1, 2, 3), 41_666)):
        cert = DecompositionCertificate(ConnectionSet([1]), 1, FinitePath(starter), (0,))
        edges = len(starter) - 1
        assert sum(map(len, figures.path_edges_in_range(cert, 1, hi))) == edges * (hi - 1)
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(WindowTooLarge, match=f"{cap + 1} .*more than the cap of {cap}"):
            figures.path_edges_in_range(cert, 0, hi)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 64 * 1024


def test_figure_vertex_cap(monkeypatch):
    # The figures draw one vertex per integer: 0..60 has 61.  A damaged
    # certificate of period 100 and one edge bounds the range's edges by 1,
    # so only the vertex cap can refuse it.
    cert = DecompositionCertificate(ConnectionSet([1]), 100, FinitePath((0, 1)), (0,))
    monkeypatch.setattr(figures, "MAX_WINDOW_EDGES", 61)
    assert figures.path_edges_in_range(cert, 0, 60) == [[1]]
    monkeypatch.setattr(figures, "MAX_WINDOW_EDGES", 60)
    with pytest.raises(WindowTooLarge, match="has 61 vertices"):
        figures.path_edges_in_range(cert, 0, 60)


@pytest.mark.parametrize("fmt", figures.FORMATS)
def test_figures_match_reference_renderers(fmt):
    # One period, the benchmark's -n..2n, and a negative start.  Ranges of up
    # to 60 label every vertex, longer ones one vertex per period: both occur.
    label_branches = set()
    for cert in helpers.family_corpus():
        n = cert.period
        for lo, hi in ((0, n), (-n, 2 * n), (-2 * n - 3, n - 1)):
            m = hi - lo + 1
            assert [[(lo + key // m, lo + key // m + key % m) for key in keys]
                    for keys in figures.path_edges_in_range(cert, lo, hi)] == \
                helpers.reference_path_edges_in_range(cert, lo, hi)
            assert figures.render_figure(cert, lo, hi, fmt) == \
                helpers.reference_render_figure(cert, lo, hi, fmt)
            label_branches.add(hi - lo <= 60)
    assert label_branches == {True, False}


# ---------------------------------------------------------------- bulk checks

class Small(enum.IntEnum):
    TWO = 2
    MINUS_FIVE = -5


def per_vertex(values):
    """The vertex check one entry at a time, in order: the reference."""
    return tuple(model._check_vertex(v) for v in values)


def outcome(f, *args):
    """What a call gives: ('ok', value) or (exception type, message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


odd_entries = st.sampled_from([True, False, Small.TWO, Small.MINUS_FIVE, 1.0, -0.5,
                               model.INT64_MIN - 1, model.INT64_MAX + 1])
plain_ints = st.integers(model.INT64_MIN, model.INT64_MAX)


@st.composite
def mixed_sequences(draw):
    """Plain int64 values with a few odd entries (bool, IntEnum, float, out of range) anywhere."""
    values = draw(st.lists(plain_ints, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        values.insert(draw(st.integers(0, len(values))), draw(odd_entries | st.just(0)))
    return values


@given(mixed_sequences())
def test_bulk_vertex_check_matches_per_vertex(values):
    assert outcome(model._check_vertices, values) == outcome(per_vertex, values)
    assert outcome(model._check_vertices, iter(values)) == outcome(per_vertex, values)


def per_offset(offsets, period):
    """The certificate's offset check one entry at a time, in sorted order: the reference."""
    offs = tuple(sorted(offsets))
    if not offs:
        raise ValueError("at least one offset is required")
    for o in offs:
        model._check_vertex(o)
        if not 0 <= o < period:
            raise ValueError(f"offset {o} outside [0, {period})")
    return offs


def certificate_offsets(offsets, period):
    return DecompositionCertificate(ConnectionSet([1]), period, FinitePath((0, 1)), offsets).offsets


@pytest.mark.parametrize("offsets, period, expected", [
    ((5, 1, 3), 6, ("ok", (1, 3, 5))),
    ((Small.TWO, 0), 6, ("ok", (0, 2))),
    ((model.INT64_MAX,), 2**64, ("ok", (model.INT64_MAX,))),
    ((), 6, (ValueError, "at least one offset is required")),
    ((-1, 3), 6, (ValueError, "offset -1 outside [0, 6)")),
    ((0, 6), 6, (ValueError, "offset 6 outside [0, 6)")),
    ((2.0, 3), 6, (TypeError, "vertex must be an int, got float")),
    ((3, True), 6, (TypeError, "vertex must be an int, got bool")),
    ((2**70,), 2**71, (VertexOverflow, f"vertex {2**70} outside the signed 64-bit range")),
    ((3, 2**63), 2**64, (VertexOverflow, f"vertex {2**63} outside the signed 64-bit range")),
    ((-5, 2**70), 6, (ValueError, "offset -5 outside [0, 6)")),
    ((3, -2**70), 6, (VertexOverflow, f"vertex {-2**70} outside the signed 64-bit range")),
])
def test_offset_errors_match_per_offset_check(offsets, period, expected):
    assert outcome(certificate_offsets, offsets, period) == expected
    assert outcome(per_offset, offsets, period) == expected


@given(mixed_sequences(), st.sampled_from([1, 6, model.INT64_MAX, 2**64]))
def test_bulk_offset_check_matches_per_offset(values, period):
    assert outcome(certificate_offsets, values, period) == outcome(per_offset, values, period)


def reference_path(values):
    vs = per_vertex(values)
    if not vs:
        raise ValueError("a path needs at least one vertex")
    dup = next((v for v, c in Counter(vs).items() if c > 1), None)
    if dup is not None:
        raise RepeatedVertex(f"vertex {dup} occurs more than once")
    return vs


@given(mixed_sequences() | st.lists(st.integers(-3, 3), max_size=6))
def test_finite_path_matches_per_vertex(values):
    assert outcome(lambda vs: FinitePath(vs).vertices, values) == outcome(reference_path, values)


@given(st.integers(0, 20).map(lambda t: model.INT64_MAX - t),
       st.lists(st.integers(-6, 6).filter(bool), max_size=10),
       st.booleans())
def test_realize_matches_partial_sum_loop(start, steps, negate):
    if negate:
        start, steps = -start - 1, [-z for z in steps]
    assert (outcome(lambda: realize(start, steps).vertices)
            == outcome(helpers.reference_realize, start, steps))


def test_realize_overflow_wins_over_repeat():
    top = model.INT64_MAX
    # Repeats top - 1, then leaves the range: the overflow is reported.
    with pytest.raises(VertexOverflow, match=f"vertex {top + 1} "):
        realize(top - 1, (-1, 1, 1, 1))
    # Leaves the range, then comes back to repeat the start.
    with pytest.raises(VertexOverflow, match=f"vertex {top + 1} "):
        realize(top, (1, -1))
    with pytest.raises(VertexOverflow, match=f"vertex {model.INT64_MIN - 2} "):
        realize(model.INT64_MIN, (1, -1, -2, 1))
