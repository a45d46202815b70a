"""Exact possibility degrees and the two primitive combinators.

A degree is a rational in [0, 1] stored as an integer numerator over the
fixed denominator 10**9.  The only operations the min-based calculus ever
needs are comparison, min, max, and complement (1 - d), all of which are
closed over this representation, so no rounding can occur after parsing.
Exact equality matters: encodings group conditional-table entries by
distinct degree, and two degrees that print the same must compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DegreeError

SCALE = 10**9
"""Fixed denominator: a Degree with numerator n has value n / SCALE."""

_DECIMAL_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")


@dataclass(frozen=True, order=True, slots=True)
class Degree:
    """An exact possibility or necessity value in [0, 1].

    Instances are immutable, totally ordered by value, and hashable, so
    they can key dictionaries (weight maps, distinct-degree grouping).
    """

    num: int

    def __post_init__(self) -> None:
        if not isinstance(self.num, int):
            raise DegreeError(f"degree numerator must be int, got {type(self.num).__name__}")
        if not 0 <= self.num <= SCALE:
            raise DegreeError(f"degree {self.num}/{SCALE} outside [0, 1]")

    def __str__(self) -> str:
        """Canonical decimal form with trailing zeros stripped."""
        whole, frac = divmod(self.num, SCALE)
        if frac == 0:
            return str(whole)
        digits = f"{frac:09d}".rstrip("0")
        return f"{whole}.{digits}"

    def __repr__(self) -> str:
        return f"Degree({self})"


ZERO = Degree(0)
ONE = Degree(SCALE)


def parse_degree(text: str) -> Degree:
    """Parse a decimal literal into an exact Degree.

    Accepts plain decimals with at most 9 fraction digits whose value lies
    in [0, 1] (e.g. ``0``, ``1``, ``0.7``, ``1.000``).  The canonical form
    produced by ``str`` round-trips through this parser; 0 and 1 come
    back as ``ZERO`` and ``ONE`` themselves.
    """
    m = _DECIMAL_RE.match(text.strip())
    if m is None:
        raise DegreeError(f"malformed degree literal: {text!r}")
    whole_s, frac_s = m.group(1), m.group(2) or ""
    if len(frac_s) > 9:
        raise DegreeError(f"degree literal {text!r} has more than 9 fraction digits")
    num = int(whole_s) * SCALE + int(frac_s.ljust(9, "0") or "0")
    if num > SCALE:
        raise DegreeError(f"degree literal {text!r} outside [0, 1]")
    return ONE if num == SCALE else ZERO if num == 0 else Degree(num)


def complement(d: Degree) -> Degree:
    """Return 1 - d exactly (the necessity/possibility duality)."""
    return Degree(SCALE - d.num)


def min_condition(pi_joint: Degree, pi_evidence: Degree) -> Degree:
    """Qualitative conditioning: pi_joint if strictly below pi_evidence, else 1.

    The caller guarantees the pair came from one distribution as
    (Pi(x and e), Pi(e)), so pi_joint > pi_evidence signals an upstream bug
    and raises rather than returning a wrong value.
    """
    if pi_joint > pi_evidence:
        raise DegreeError(
            f"min_condition: joint degree {pi_joint} exceeds evidence degree {pi_evidence}"
        )
    if pi_joint < pi_evidence:
        return pi_joint
    return ONE
