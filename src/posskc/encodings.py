"""Shared mapping from network values to instance propositions.

Binary variables collapse to a single proposition whose positive literal
is the first domain value and whose negation is the second.  Variables
with larger domains get one proposition per value plus hard exactly-one
clauses.  The knowledge-base CNF, which the logical method also
compiles, registers these propositions first, so their ids are the
map's.
"""

from __future__ import annotations

from .cnf import Instance, exactly_one
from .network import PossNetwork


class InstanceMap:
    """Instance proposition ids for a network.

    Ids run 1.. in declaration order, then domain order; ``roles`` lists
    the proposition roles in id order, for a formula to register first.
    """

    def __init__(self, net: PossNetwork):
        self.net = net
        self.roles: list[Instance] = []
        self._literal: dict[tuple[str, str], int] = {}
        for v in net.variables:
            if len(v.domain) == 2:
                self.roles.append(Instance(v.name, v.domain[0]))
                vid = len(self.roles)
                self._literal[(v.name, v.domain[0])] = vid
                self._literal[(v.name, v.domain[1])] = -vid
            else:
                for val in v.domain:
                    self.roles.append(Instance(v.name, val))
                    self._literal[(v.name, val)] = len(self.roles)

    def literal(self, var: str, value: str) -> int:
        """Signed literal asserting var = value; KeyError if unknown."""
        return self._literal[(var, value)]

    def exactly_one_clauses(self) -> list[list[int]]:
        """Hard clauses forcing one value per multi-valued variable."""
        out: list[list[int]] = []
        for v in self.net.variables:
            if len(v.domain) > 2:
                out += exactly_one([self._literal[(v.name, val)] for val in v.domain])
        return out

    def all_vars(self) -> frozenset:
        return frozenset(range(1, len(self.roles) + 1))

    def term_literals(self, term) -> list[int]:
        """Instance literals asserting an event term, sorted for stability."""
        return sorted(self.literal(var, val) for var, val in term.items())
