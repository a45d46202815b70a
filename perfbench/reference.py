"""Independent reference answers by max-min variable elimination.

Pi(e) is the max over worlds agreeing with e of the min of the selected
table entries.  Factors are the tables restricted to e; combining takes
the min, eliminating a variable takes the max over its values, and the
variable eliminated next is the one with the fewest neighbours (min
degree, ties by name).  Nothing here touches the package under test.
"""

from __future__ import annotations

import itertools

from inputs import SCALE, Net


def _factor(net: Net, var: str, e: dict):
    scope = (var, *net.parents[var])
    doms = [(e[v],) if v in e else net.domains[v] for v in scope]
    table = {}
    for vals in itertools.product(*doms):
        table[vals] = net.cpt[var][(vals[0], vals[1:])]
    return scope, table


def _combine_out(factors, var: str, domains: dict):
    """Min-combine the factors that mention var, then max out var."""
    scope = tuple(sorted({v for s, _ in factors for v in s if v != var}))
    table = {}
    for vals in itertools.product(*(domains[v] for v in scope)):
        assign = dict(zip(scope, vals))
        best = 0
        for x in domains[var]:
            assign[var] = x
            low = SCALE
            for s, t in factors:
                d = t[tuple(assign[v] for v in s)]
                if d < low:
                    low = d
                    if low <= best:
                        break
            if low > best:
                best = low
        table[vals] = best
    return scope, table


def possibility(net: Net, e: dict) -> int:
    """Pi(e) as a numerator over SCALE."""
    domains = {v: ((e[v],) if v in e else dom) for v, dom in net.domains.items()}
    factors = [_factor(net, v, e) for v in net.variables]
    remaining = set(net.variables)
    while remaining:
        neighbours = {v: set() for v in remaining}
        for s, _ in factors:
            for v in s:
                neighbours[v].update(s)
        var = min(remaining, key=lambda v: (len(neighbours[v]), v))
        remaining.discard(var)
        touching = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        factors.append(_combine_out(touching, var, domains))
    return min((t[()] for _, t in factors), default=SCALE)


def conditional(net: Net, x: dict, e: dict) -> int:
    """Pi(x | e) by min-conditioning: Pi(x, e) if below Pi(e), else 1."""
    if any(v in e and e[v] != val for v, val in x.items()):
        joint = 0
    else:
        joint = possibility(net, {**e, **x})
    evidence = possibility(net, e)
    return joint if joint < evidence else SCALE
