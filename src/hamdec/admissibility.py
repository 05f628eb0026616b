"""Necessary conditions for an infinite circulant graph to be Hamilton-decomposable.

The graph generated by S on the integers is connected iff gcd(S) = 1 (it has
gcd(S) many components otherwise, each isomorphic to the graph generated by
S/gcd), and a decomposition into |S+| Hamilton paths forces
sum(S+) = |S+| (mod 2): each path crosses the cut between 0 and 1 an odd
number of times, and the cut carries sum(S+) edges in total.
"""
from __future__ import annotations

import math

from .model import ConnectionSet, Value, set_field


class AdmissibilityReport(Value):
    gcd: int
    component_count: int
    parity_ok: bool
    admissible: bool

    def __init__(self, gcd: int, component_count: int, parity_ok: bool, admissible: bool):
        set_field(self, "gcd", gcd)
        set_field(self, "component_count", component_count)
        set_field(self, "parity_ok", parity_ok)
        set_field(self, "admissible", admissible)


def analyze(s: ConnectionSet) -> AdmissibilityReport:
    """Classify a connection set against both necessary conditions."""
    d = math.gcd(*s.s_plus)
    parity_ok = sum(s.s_plus) % 2 == len(s.s_plus) % 2
    return AdmissibilityReport(
        gcd=d,
        component_count=d,
        parity_ok=parity_ok,
        admissible=(d == 1 and parity_ok),
    )
