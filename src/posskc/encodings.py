"""Shared mapping from network values to instance propositions.

Binary variables collapse to a single proposition whose positive literal
is the first domain value and whose negation is the second.  Variables
with larger domains get one proposition per value plus hard exactly-one
clauses.
"""

from __future__ import annotations

from .cnf import CnfFormula, Instance
from .network import PossNetwork


class InstanceMap:
    """Registers instance propositions for a network into a formula.

    Registration order is deterministic (declaration order, domain
    order), so two maps built over the same network assign identical ids.
    """

    def __init__(self, net: PossNetwork, f: CnfFormula):
        self.net = net
        self._binary: dict[str, int] = {}
        self._valued: dict[tuple[str, str], int] = {}
        for v in net.variables:
            if len(v.domain) == 2:
                self._binary[v.name] = f.new_var(Instance(v.name, v.domain[0]))
            else:
                for val in v.domain:
                    self._valued[(v.name, val)] = f.new_var(Instance(v.name, val))

    def literal(self, var: str, value: str) -> int:
        """Signed literal asserting var = value."""
        vid = self._binary.get(var)
        if vid is not None:
            domain = self.net.domain_of(var)
            if value == domain[0]:
                return vid
            if value == domain[1]:
                return -vid
            raise KeyError(f"unknown value {value!r} for {var}")
        return self._valued[(var, value)]

    def exactly_one_clauses(self) -> list[list[int]]:
        """Hard clauses forcing one value per multi-valued variable."""
        out: list[list[int]] = []
        for v in self.net.variables:
            if len(v.domain) <= 2:
                continue
            fam = [self._valued[(v.name, val)] for val in v.domain]
            out.append(fam)
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    out.append([-fam[i], -fam[j]])
        return out

    def all_vars(self) -> frozenset:
        return frozenset(self._binary.values()) | frozenset(self._valued.values())

    def term_literals(self, term) -> list[int]:
        """Instance literals asserting an event term, sorted for stability."""
        return sorted(self.literal(var, val) for var, val in term.items())
