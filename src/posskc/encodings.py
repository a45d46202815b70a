"""Shared mapping from network values to instance propositions, and
``table_entries``, the one walk over the network's tables, one column
(parent configuration) at a time: the kb
CNF and the possibilistic base read it over the instance map's literals,
the pf CNF over its indicators.

Binary variables collapse to a single proposition whose positive literal
is the first domain value and whose negation is the second.  Variables
with larger domains get one proposition per value plus hard exactly-one
clauses.  The knowledge-base CNF, which the logical method also
compiles, registers these propositions first, so their ids are the
map's.  Each network builds its map once (``instance_map``).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .cnf import Instance, exactly_one
from .degrees import Degree
from .network import PossNetwork


class InstanceMap:
    """Instance proposition ids for a network.

    Ids run 1.. in declaration order, then domain order; ``roles`` lists
    the proposition roles in id order, for a formula to register first,
    and ``literals`` maps each (variable, value) to the signed literal
    asserting it.
    """

    def __init__(self, net: PossNetwork):
        self.net = net
        self.roles: list[Instance] = []
        self.literals: dict[tuple[str, str], int] = {}
        for v in net.variables:
            if len(v.domain) == 2:
                self.roles.append(Instance(v.name, v.domain[0]))
                vid = len(self.roles)
                self.literals[(v.name, v.domain[0])] = vid
                self.literals[(v.name, v.domain[1])] = -vid
            else:
                for val in v.domain:
                    self.roles.append(Instance(v.name, val))
                    self.literals[(v.name, val)] = len(self.roles)

    def exactly_one_clauses(self) -> list[list[int]]:
        """Hard clauses forcing one value per multi-valued variable."""
        out: list[list[int]] = []
        for v in self.net.variables:
            if len(v.domain) > 2:
                out += exactly_one([self.literals[(v.name, val)] for val in v.domain])
        return out

    def all_vars(self) -> frozenset:
        return frozenset(range(1, len(self.roles) + 1))

    def term_literals(self, term) -> list[int]:
        """Instance literals asserting an event term, sorted for stability."""
        return sorted(self.literals[item] for item in term.items())


def instance_map(net: PossNetwork) -> InstanceMap:
    """The network's instance map, built on first use and kept on the
    network, so the kb encoder and ``pkb.compile_base`` share one."""
    if net.instances is None:
        net.instances = InstanceMap(net)
    return net.instances


def table_entries(
    net: PossNetwork, literal: dict[tuple[str, str], int]
) -> Iterator[tuple[str, tuple[str, ...], list[int], Iterator[tuple[str, int, Degree]]]]:
    """Each column of each table, in table order (variables in declaration
    order, then parent configurations): its variable, its parent values,
    the negated literals of the parent values and an iterator over its
    entries, in value order, as (value, the value's negated literal,
    degree).  An entry's clause is that negated literal and the column's.
    ``literal`` maps (variable, value) to the literal asserting it.

    The tables are in table order (``PossNetwork``), so each column is
    the next run of entries, read without a key lookup."""
    negated = {v.name: {val: -literal[(v.name, val)] for val in v.domain} for v in net.variables}
    at = dict.__getitem__
    for v in net.variables:
        name, domain = v.name, v.domain
        parents = [negated[p] for p in net.parents[name]]
        own = negated[name].values()
        table = net.cpt[name]
        n = len(domain)
        degrees = iter(table.values())
        for (_, cfg), column in zip(islice(table, 0, None, n), zip(*[degrees] * n)):
            yield name, cfg, list(map(at, parents, cfg)), zip(domain, own, column)
