"""Value types for connection sets, paths and decomposition certificates.

Everything in this module is an immutable value; instances can be shared
freely between threads or processes.  Vertices are plain Python integers but
are validated against the signed 64-bit range so that a construction which
would overflow a fixed-width integer fails loudly instead of silently
producing a huge certificate.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from .errors import (
    EmptyConnectionSet,
    RepeatedVertex,
    VertexOverflow,
    WindowTooLarge,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# The most edges ``materialize_edges`` may describe in one call, counted as an
# upper bound before any progression is built; the figures also draw at most
# this many vertices.  Measured peaks over a 15 MB interpreter (Python 3.11,
# 64-bit Linux): the window oracle reads one range per progression and never
# walks its edges, so the cap reaches it only through the progressions
# (S+ = {1} at 62,499 periods, one progression: 15.0 MB RSS; the default
# 5-period window of 4-valent (2837, 2839), 11,356 progressions: 19.2 MB),
# and it keeps the cap and its refusal for now; an SVG figure takes about
# 300 B per edge, 285 B per vertex and 180 B more per labelled vertex
# (period 1, every vertex labelled: 106 MB RSS at the cap).  Both run at the
# cap under a 128 MiB ``ulimit -v`` (the tests run the oracle's two cases
# so); the benchmark's windows stay under 40,000 edges.
MAX_WINDOW_EDGES = 125_000


def _check_vertex(v: int) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"vertex must be an int, got {type(v).__name__}")
    if not INT64_MIN <= v <= INT64_MAX:
        raise VertexOverflow(f"vertex {v} outside the signed 64-bit range")
    return v


def _check_vertices(values: Iterable[int]) -> tuple[int, ...]:
    """``_check_vertex`` over a whole sequence, as a tuple.

    A bulk test of C-level passes accepts the common case, plain ints in the
    signed 64-bit range; otherwise the per-entry check runs in order, so the
    first offender raises the same error it always did (and int subclasses
    other than ``bool`` are still accepted).
    """
    vs = tuple(values)
    if vs and not (set(map(type, vs)) == {int}
                   and INT64_MIN <= min(vs) and max(vs) <= INT64_MAX):
        for v in vs:
            _check_vertex(v)
    return vs


# Writes one field of a value, past the refusing ``__setattr__``.  It keeps
# the fields inline in the instance: touching ``self.__dict__`` instead, as
# pickle's default state restore does, would build a dict per instance, 279
# bytes for a SearchOutcome instead of 135, and a full p = 19 sweep keeps 1.56M
# of them.  So ``Value.__reduce__`` rebuilds through the constructor, which
# writes with this.
set_field = object.__setattr__


class Value:
    """Base of the package's immutable values: construction, equality, hash and repr by field.

    A subclass names its fields once, as class annotations, in order; a class
    attribute of the same name is the field's default.  ``Value.__init__``
    binds positional and keyword arguments to the fields as the signature
    ``(field, ..., field=default)`` would, TypeError included; a subclass that
    validates its input defines its own ``__init__`` and writes each field
    with ``set_field``.  Two values are equal iff they have the same class and
    equal field tuples, the hash is that of the field tuple, and the repr
    reads ``Name(field=repr, ...)``.  Pickle and copy rebuild a value by
    calling its class with the field tuple, so a validating constructor checks
    the copy too; assignment and deletion raise AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes {len(fields)} "
                            f"positional arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif hasattr(self.__class__, name):
                value = getattr(self.__class__, name)
            else:
                raise TypeError(f"{self.__class__.__qualname__}() missing argument {name!r}")
            set_field(self, name, value)
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{self.__class__.__qualname__}() got {problem} argument {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                f"{', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._astuple()))})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ConnectionSet(Value):
    """Finite inverse-closed generator set, stored by its positive half.

    ``s_plus`` holds the distinct positive generator magnitudes in strictly
    increasing order; the full connection set is the union with the negated
    magnitudes, and the graph it generates on the integers is 2*len(s_plus)
    valent.
    """

    s_plus: tuple[int, ...]

    def __init__(self, s_plus: Iterable[int]):
        # Every entry is checked before ``set`` merges equal ones, so that
        # ``[True, 1]`` and ``[1, True]`` are refused alike.
        entries = sorted(set(_check_vertices(s_plus)))
        if not entries:
            raise EmptyConnectionSet("connection set must contain at least one generator")
        if entries[0] < 1:
            raise ValueError(f"generator magnitudes must be positive, got {entries[0]}")
        set_field(self, "s_plus", tuple(entries))

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.s_plus)) + "}"


class FinitePath(Value):
    """A finite path given by its vertex sequence; all vertices distinct.

    The vertices are validated in bulk: one pass tests that all are plain ints
    in the signed 64-bit range, and only when it fails does a per-vertex scan
    raise TypeError or VertexOverflow for the first offender.  Then an empty
    sequence raises ValueError and a repeated vertex RepeatedVertex.
    """

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int]):
        vs = _check_vertices(vertices)
        if not vs:
            raise ValueError("a path needs at least one vertex")
        if len(set(vs)) != len(vs):
            dup = next(v for v, c in Counter(vs).items() if c > 1)
            raise RepeatedVertex(f"vertex {dup} occurs more than once")
        set_field(self, "vertices", vs)

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (smaller, larger) endpoint pairs."""
        for u, v in zip(self.vertices, self.vertices[1:]):
            yield (u, v) if u < v else (v, u)


def circular_length(u: int, v: int, modulus: int) -> int:
    """Distance between residues u and v on a cycle of the given modulus."""
    d = (u - v) % modulus
    return min(d, modulus - d)


class DecompositionCertificate(Value):
    """Finite witness of an infinite Hamilton decomposition.

    The implied decomposition consists of the Hamilton paths
    ``H_j = union over i of (starter + period*i) + offsets[j]``.  The
    constructor checks only cheap structural facts, and the starter must be
    a path: a repeated vertex raises RepeatedVertex.  Any other damage (a
    wrong period, length, endpoint or offset) stays representable, for
    :func:`hamdec.verifier.verify_certificate` to report.
    """

    connection_set: ConnectionSet
    period: int
    starter: FinitePath
    offsets: tuple[int, ...]

    def __init__(self, connection_set: ConnectionSet, period: int,
                 starter: FinitePath, offsets: Iterable[int]):
        if not isinstance(connection_set, ConnectionSet):
            connection_set = ConnectionSet(connection_set)
        if not isinstance(starter, FinitePath):
            starter = FinitePath(starter)
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise ValueError(f"period must be a positive integer, got {period!r}")
        offs = tuple(sorted(offsets))
        if not offs:
            raise ValueError("at least one offset is required")
        # As in ``_check_vertices``: a bulk test accepts plain ints in range,
        # and otherwise the first offender in sorted order raises.
        if not (set(map(type, offs)) == {int}
                and 0 <= offs[0] and offs[-1] < period and offs[-1] <= INT64_MAX):
            for o in offs:
                _check_vertex(o)
                if not 0 <= o < period:
                    raise ValueError(f"offset {o} outside [0, {period})")
        set_field(self, "connection_set", connection_set)
        set_field(self, "period", period)
        set_field(self, "starter", starter)
        set_field(self, "offsets", offs)


def materialize_edges(cert: DecompositionCertificate, lo: int, hi: int
                      ) -> list[list[tuple[range, int]]]:
    """Per offset, in ``cert.offsets`` order, the edges of ``H + offset`` inside [lo, hi].

    ``H`` is the union of the starter's period-translates, so the copies of
    one starter edge of length ``d`` in the window are the edges ``(u, u + d)``
    for ``u`` in an arithmetic progression of step ``period``.  Each path is a
    list of ``(range of lower endpoints, d)`` pairs, one per starter edge in
    starter order.  A window that may hold more than ``MAX_WINDOW_EDGES``
    edges raises WindowTooLarge before any progression is built.
    """
    n = cert.period
    bound = len(cert.offsets) * cert.starter.edge_count * ((hi - lo) // n + 1)
    if bound > MAX_WINDOW_EDGES:
        raise WindowTooLarge(
            f"window {lo}..{hi} may hold {bound} edges, more than the cap of {MAX_WINDOW_EDGES}")
    # The translates of the edge (u, v) + o in the window have lower endpoints
    # from lo + (u + o - lo) mod n, the first one >= lo, up to hi - (v - u).
    steps = [(u - lo, hi - v + u + 1, v - u) for u, v in cert.starter.edges()]
    return [[(range(lo + (a + o) % n, stop, n), d) for a, stop, d in steps]
            for o in cert.offsets]
