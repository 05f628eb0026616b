"""Exception hierarchy shared across the package."""


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
        super().__init__(f"S+={{{', '.join(map(str, connection_set.s_plus))}}} is not admissible: "
                         + "; ".join(reasons))


class Unsupported(HamdecError):
    """The set is admissible but matches no implemented construction family."""

    def __init__(self, connection_set, tried):
        self.connection_set = connection_set
        self.tried = tuple(tried)
        super().__init__(
            f"no known construction for S+={{{', '.join(map(str, connection_set.s_plus))}}}; "
            f"families tried: {', '.join(self.tried)}")


class LengthMultisetMismatch(HamdecError):
    """A cyclic path's edge-length multiset does not match the requirement."""


class CongruenceViolation(HamdecError):
    """Supplied generators do not satisfy the required residue pattern."""


class NotPrime(HamdecError):
    """A sweep was requested for a modulus that is not an odd prime."""


class WindowTooSmall(HamdecError):
    """The requested window cannot hold enough structure to check anything."""


class WindowTooLarge(HamdecError):
    """The requested window would hold more edges or vertices than the package materializes."""


class PeriodTooLarge(HamdecError):
    """A construction's period exceeds the cap (``constructions.MAX_PERIOD``)."""


class ConstructionError(HamdecError):
    """Internal error: a constructor produced a certificate that fails verification."""


class CertificateFormatError(HamdecError):
    """A certificate document cannot be parsed or has an unknown schema."""
