"""Seeded inputs for the benchmark: random networks, PNET text and query streams.

Everything here is owned by the benchmark, so the inputs of a seed stay
the same whatever happens to the package's own generators.  Randomness
comes from a splitmix64 stream.  A network is kept as plain data
(``Net``) that the reference reads directly; the package only ever sees
it as PNET text.

Degrees are integers over the fixed denominator ``SCALE`` (10**9), the
same exact representation the PNET decimals denote.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

SCALE = 10**9
MASK64 = (1 << 64) - 1
VALUES = ("a", "b", "c", "d")

FINE_POOL = tuple(k * SCALE // 10000 for k in range(1, 10000))
"""Degrees 0.0001 .. 0.9999: sub-1 degrees rarely repeat across rng."""

ORDINAL_POOL = tuple(k * SCALE // 10 for k in range(1, 10))
"""Degrees 0.1 .. 0.9: the nine-level scale an expert elicits."""


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform draw from lo..hi inclusive."""
        return lo + self.below(hi - lo + 1)

    def choice(self, xs):
        return xs[self.below(len(xs))]

    def sample(self, xs, k: int) -> list:
        """k distinct elements of xs, in draw order."""
        pool = list(xs)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.below(len(pool))))
        return out


@dataclass(frozen=True)
class Net:
    """A network as plain data, variables in a topological order.

    ``cpt[v]`` maps (own value, parent-value tuple) to a degree numerator.
    """

    name: str
    domains: dict
    parents: dict
    cpt: dict

    @property
    def variables(self) -> list:
        return list(self.domains)


def random_net(
    rng: SplitMix64,
    name: str,
    n: int,
    domain_sizes: tuple,
    pool: tuple,
    max_parents: int = 3,
) -> Net:
    """One network.  Each node draws its domain size and up to max_parents
    earlier nodes as parents (the smaller of two uniform draws, so most
    nodes have few).  Each table column forces one value to degree 1, so
    it is normalised, and draws the others from the pool."""
    domains: dict = {}
    parents: dict = {}
    cpt: dict = {}
    declared: list = []
    for i in range(n):
        var = f"V{i}"
        dom = VALUES[: rng.choice(domain_sizes)]
        cap = min(len(declared), max_parents) + 1
        k = min(rng.below(cap), rng.below(cap))
        ps = tuple(sorted(rng.sample(declared, k), key=declared.index))
        table = {}
        for cfg in itertools.product(*(domains[p] for p in ps)):
            forced = rng.below(len(dom))
            for j, val in enumerate(dom):
                table[(val, cfg)] = SCALE if j == forced else rng.choice(pool)
        domains[var] = dom
        parents[var] = ps
        cpt[var] = table
        declared.append(var)
    return Net(name, domains, parents, cpt)


def entry_count(net: Net) -> int:
    return sum(len(t) for t in net.cpt.values())


def world_count(net: Net) -> int:
    count = 1
    for dom in net.domains.values():
        count *= len(dom)
    return count


def degree_text(num: int) -> str:
    whole, frac = divmod(num, SCALE)
    return str(whole) if frac == 0 else f"{whole}.{frac:09d}".rstrip("0")


def to_pnet(net: Net) -> str:
    """PNET text: var lines, parents lines, then one cpt block per variable."""
    out = [f"network {net.name}"]
    out += [f"var {v} {' '.join(dom)}" for v, dom in net.domains.items()]
    out += [f"parents {v} {' '.join(ps)}" for v, ps in net.parents.items() if ps]
    for v, table in net.cpt.items():
        out.append(f"cpt {v}")
        for (val, cfg), d in table.items():
            lhs = f"{val} | {' '.join(cfg)}" if cfg else val
            out.append(f"{lhs} : {degree_text(d)}")
    return "\n".join(out) + "\n"


def random_term(rng: SplitMix64, net: Net, k: int, exclude=()) -> dict:
    """k distinct variables outside exclude, each with a random value."""
    free = [v for v in net.variables if v not in exclude]
    return {v: rng.choice(net.domains[v]) for v in rng.sample(free, k)}


@dataclass(frozen=True)
class Item:
    """One network of a workload, with the queries asked of it."""

    net: Net
    pnet: str
    queries: tuple  # of (x, e) event-term pairs


def make_item(net: Net, queries) -> Item:
    return Item(net, to_pnet(net), tuple(queries))


def inputs_digest(items) -> str:
    """sha256 over every PNET text and query, in order."""
    h = hashlib.sha256()
    for it in items:
        h.update(it.pnet.encode())
        for x, e in it.queries:
            h.update(repr((sorted(x.items()), sorted(e.items()))).encode())
    return h.hexdigest()
