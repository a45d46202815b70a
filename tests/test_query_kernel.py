"""The one-pass query kernel against the rebuilding references.

``LogicalPipeline.possibility`` and ``PkbPipeline.query_detail`` answer
by max-min passes over the compiled DAG and never build a new one.  Here
they are checked against the condition/forget/evaluate exploration and
the rebuilding stratum descent they replaced (degrees and iteration
counts), and against the brute-force oracle, on binary, multi-valued,
coarse-pool and degree-0 networks.
"""

import pytest

from posskc.bench import DEFAULT_POOL, GenConfig, SplitMix64, random_network
from posskc.degrees import ONE, SCALE, ZERO, Degree
from posskc.logical import LogicalPipeline
from posskc.network import PossNetwork, oracle_conditional, oracle_possibility
from posskc.pkb import PkbPipeline

from helpers import reference_explore, reference_query_detail

COARSE_POOL = frozenset(Degree(SCALE * (2 * k + 1) // 20) for k in range(10))
"""Ten degrees, 0.05 .. 0.95: levels span many clauses across families."""

ZEROED = frozenset(sorted(COARSE_POOL)[:2])
"""Coarse-pool degrees turned into 0, so the bases carry hard clauses."""

NETS_PER_FAMILY = 16


def with_zeros(net: PossNetwork) -> PossNetwork:
    cpt = {
        name: {key: ZERO if d in ZEROED else d for key, d in table.items()}
        for name, table in net.cpt.items()
    }
    return PossNetwork(net.name, net.variables, net.parents, cpt)


def family(kind: str) -> list[PossNetwork]:
    nets = []
    for i in range(NETS_PER_FAMILY):
        cfg = GenConfig(
            n_nodes=2 + i % (4 if kind == "multivalued" else 6),
            max_parents=2 if kind == "multivalued" else 3,
            seed=7001 + 31 * i,
            binary_only=kind in ("binary", "coarse", "zero"),
            degree_pool=COARSE_POOL if kind in ("coarse", "zero") else DEFAULT_POOL,
        )
        net = random_network(cfg)
        nets.append(with_zeros(net) if kind == "zero" else net)
    return nets


def random_term(rng: SplitMix64, net: PossNetwork, size: int) -> dict:
    term = {}
    for _ in range(size):
        v = rng.choice(net.variables)
        term[v.name] = rng.choice(v.domain)
    return term


def queries(net: PossNetwork, seed: int) -> list[tuple[dict, dict]]:
    """Random targets and evidence of 0-2 variables, one conflicting pair,
    and target = evidence."""
    rng = SplitMix64(seed)
    out = [
        (random_term(rng, net, 1 + rng.next_below(2)), random_term(rng, net, rng.next_below(3)))
        for _ in range(8)
    ]
    v = net.variables[0]
    out.append(({v.name: v.domain[0]}, {v.name: v.domain[1]}))
    out.append(({v.name: v.domain[-1]}, {v.name: v.domain[-1]}))
    return out


@pytest.mark.parametrize("kind", ["binary", "multivalued", "coarse", "zero"])
def test_one_pass_queries_match_references_and_oracle(kind):
    checked = impossible_evidence = 0
    nets = family(kind)
    for i, net in enumerate(nets):
        logical = LogicalPipeline(net)
        kb = PkbPipeline(net)
        for x, e in queries(net, seed=i):
            expected = oracle_conditional(net, x, e)
            detail = kb.query_detail(x, e)
            assert detail == reference_query_detail(kb, x, e)
            impossible_evidence += detail == (ONE, 0)
            assert detail[0] == expected
            assert logical.query(x, e) == expected
            for term in ({**e, **x}, e, x):
                got = logical.possibility(term)
                assert got == reference_explore(logical.dag, logical.encoding, term)
                assert got == oracle_possibility(net, term)
            checked += 1
    assert checked == NETS_PER_FAMILY * 10
    if kind == "zero":
        assert impossible_evidence > 0
    if kind == "multivalued":
        assert any(len(v.domain) > 2 for net in nets for v in net.variables)
