"""Hamilton decompositions of infinite circulant graphs.

Construct explicit decomposition certificates for the known families, verify
them exactly by finite periodic checks, and search for edge-length
constrained Hamilton paths on cyclic groups.
"""

from .admissibility import AdmissibilityReport, analyze
from .buratti import SearchOutcome, SweepReport, find_path, sweep
from .constructions import (
    construct,
    construct_4valent,
    construct_consecutive,
    construct_even_run,
    construct_from_zk_path,
    construct_one_two_c,
    construct_skip_k,
    construct_walecki_family,
    construct_with_family,
    walecki_path,
)
from .errors import (
    BadMultisetSize,
    CertificateFormatError,
    CongruenceViolation,
    ConstructionError,
    EmptyConnectionSet,
    HamdecError,
    LengthMultisetMismatch,
    NotAdmissible,
    NotPrime,
    PeriodTooLarge,
    RepeatedVertex,
    Unsupported,
    VertexOverflow,
    WindowTooLarge,
)
from .figures import render_figure
from .model import (
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    circular_length,
)
from .verifier import (
    VerificationReport,
    WindowCheck,
    verify_certificate,
    window_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BadMultisetSize",
    "CertificateFormatError",
    "CongruenceViolation",
    "ConnectionSet",
    "ConstructionError",
    "DecompositionCertificate",
    "EmptyConnectionSet",
    "FinitePath",
    "HamdecError",
    "LengthMultisetMismatch",
    "NotAdmissible",
    "NotPrime",
    "PeriodTooLarge",
    "RepeatedVertex",
    "SearchOutcome",
    "SweepReport",
    "Unsupported",
    "VerificationReport",
    "VertexOverflow",
    "WindowCheck",
    "WindowTooLarge",
    "analyze",
    "circular_length",
    "construct",
    "construct_4valent",
    "construct_consecutive",
    "construct_even_run",
    "construct_from_zk_path",
    "construct_one_two_c",
    "construct_skip_k",
    "construct_walecki_family",
    "construct_with_family",
    "find_path",
    "render_figure",
    "sweep",
    "verify_certificate",
    "walecki_path",
    "window_oracle",
]
