"""Hamilton decompositions of infinite circulant graphs.

Construct explicit decomposition certificates for the known families, verify
them exactly by finite periodic checks, and search for edge-length
constrained Hamilton paths on cyclic groups.
"""

from .admissibility import AdmissibilityReport, analyze, component_set
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
from .document import CertificateDocument
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
    WindowTooSmall,
)
from .figures import render_dot, render_figure, render_svg
from .model import (
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    LengthMultiset,
    OmegaWalk,
    circular_length,
    edge_length_multiset,
    realize,
    translate,
)
from .verifier import (
    VerificationReport,
    WindowCheck,
    cross_validate,
    verify_certificate,
    window_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BadMultisetSize",
    "CertificateDocument",
    "CertificateFormatError",
    "CongruenceViolation",
    "ConnectionSet",
    "ConstructionError",
    "DecompositionCertificate",
    "EmptyConnectionSet",
    "FinitePath",
    "HamdecError",
    "LengthMultiset",
    "LengthMultisetMismatch",
    "NotAdmissible",
    "NotPrime",
    "OmegaWalk",
    "PeriodTooLarge",
    "RepeatedVertex",
    "SearchOutcome",
    "SweepReport",
    "Unsupported",
    "VerificationReport",
    "VertexOverflow",
    "WindowCheck",
    "WindowTooLarge",
    "WindowTooSmall",
    "analyze",
    "circular_length",
    "component_set",
    "construct",
    "construct_4valent",
    "construct_consecutive",
    "construct_even_run",
    "construct_from_zk_path",
    "construct_one_two_c",
    "construct_skip_k",
    "construct_walecki_family",
    "construct_with_family",
    "cross_validate",
    "edge_length_multiset",
    "find_path",
    "realize",
    "render_dot",
    "render_figure",
    "render_svg",
    "sweep",
    "translate",
    "verify_certificate",
    "walecki_path",
    "window_oracle",
]
