"""Exception hierarchy shared across the package, and how a message writes a set."""

# The most values ``format_ints`` writes in full: more than any set that the
# tests, the golden corpus or the benchmark name (1,201 at most).
MAX_LISTED = 2048


def format_ints(values, brackets: str = "{}") -> str:
    """A collection of ints as a message writes it: ``{1, 2, 3}`` for brackets ``"{}"``.

    Up to ``MAX_LISTED`` values are written in full.  A longer collection
    writes its first three values, ``...``, its last three and the count, as
    ``{1, 2, 3, ..., 2998, 2999, 3000} (3000 values)``, so a refusal stays
    short however large the set it names.
    """
    values = tuple(values)
    if len(values) <= MAX_LISTED:
        return brackets[0] + ", ".join(map(str, values)) + brackets[1]
    return (f"{brackets[0]}{', '.join(map(str, values[:3]))}, ..., "
            f"{', '.join(map(str, values[-3:]))}{brackets[1]} ({len(values)} values)")


class HamdecError(Exception):
    """Base class for all package-specific errors."""


class VertexOverflow(HamdecError):
    """A vertex fell outside the signed 64-bit range."""


class RepeatedVertex(HamdecError):
    """A vertex sequence that is supposed to be a path repeats a vertex."""


class EmptyConnectionSet(HamdecError):
    """A connection set with no generators was supplied."""


class BadMultisetSize(HamdecError):
    """A length multiset has the wrong total size or out-of-range lengths."""


class NotAdmissible(HamdecError):
    """The connection set fails a necessary condition for decomposability.

    Carries the admissibility report so callers can say which condition
    (connectivity or parity) was violated.
    """

    def __init__(self, connection_set, report):
        self.connection_set = connection_set
        self.report = report
        reasons = []
        if report.gcd != 1:
            reasons.append(f"gcd={report.gcd} (graph has {report.component_count} components)")
        if not report.parity_ok:
            reasons.append("generator-sum parity violated")
        super().__init__(f"S+={format_ints(connection_set.s_plus)} is not admissible: "
                         + "; ".join(reasons))


class Unsupported(HamdecError):
    """The set is admissible but matches no implemented construction family."""

    def __init__(self, connection_set, tried):
        self.connection_set = connection_set
        self.tried = tuple(tried)
        super().__init__(
            f"no known construction for S+={format_ints(connection_set.s_plus)}; "
            f"families tried: {', '.join(self.tried)}")


class LengthMultisetMismatch(HamdecError):
    """A cyclic path's edge-length multiset does not match the requirement."""


class CongruenceViolation(HamdecError):
    """Supplied generators do not satisfy the required residue pattern."""


class NotPrime(HamdecError):
    """A sweep was requested for a modulus that is not an odd prime."""


class WindowTooLarge(HamdecError):
    """A call over a size cap, refused before anything is built.

    The window oracle reads at most ``verifier.MAX_PROGRESSIONS``, 10M,
    progressions (offsets or lengths of S+, times starter edges, so also
    |S+| rows of n bytes, filled one at a time), about 1 s; a figure draws
    at most ``figures.MAX_WINDOW_EDGES`` vertices and edges.
    """


class PeriodTooLarge(HamdecError):
    """A construction's period exceeds the cap (``constructions.MAX_PERIOD``)."""


class ConstructionError(HamdecError):
    """Internal error: a constructor produced a certificate that fails verification."""


class CertificateFormatError(HamdecError):
    """A certificate document cannot be parsed or has an unknown schema."""
