"""All three methods against an independent reference on networks past the
brute-force oracle's guard.

The benchmark's seeded generator (``perfbench/inputs.py``) draws binary
networks of 40-100 nodes and multi-valued ones of 20-30 nodes, on the
fine degree pool and on the nine-level scale, and its max-min variable
elimination (``perfbench/reference.py``) answers each Pi(x | e) without
the compiler.  Both are loaded by path, so no copy of them exists.
Degrees must match exactly.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from posskc.circuits import PfPipeline
from posskc.logical import LogicalPipeline
from posskc.network import parse_network
from posskc.pkb import PkbPipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
QUERIES_PER_NET = 6


def _load_perfbench():
    """(inputs, reference); reference imports ``inputs`` by that name, so it
    is in ``sys.modules`` only while the two load."""
    saved = {name: sys.modules.get(name) for name in ("inputs", "reference")}
    loaded = []
    try:
        for name in saved:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded.append(module)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return tuple(loaded)


inputs, reference = _load_perfbench()

SHAPES = [
    ("binary", n, (2,), pool)
    for pool in ("fine", "nine")
    for n in (40, 60, 80, 100)
] + [
    ("multivalued", n, (2, 3, 4), pool)
    for pool in ("fine", "nine")
    for n in (20, 25, 30)
]


@pytest.mark.parametrize(
    "kind, n, domain_sizes, pool", SHAPES, ids=[f"{k}-{p}-{n}" for k, n, _, p in SHAPES]
)
def test_every_method_matches_variable_elimination(kind, n, domain_sizes, pool):
    rng = inputs.SplitMix64(1000 * n + len(domain_sizes) + (pool == "nine"))
    degrees = inputs.FINE_POOL if pool == "fine" else inputs.ORDINAL_POOL
    drawn = inputs.random_net(rng, f"{kind}_{n}", n, domain_sizes, degrees)
    net = parse_network(inputs.to_pnet(drawn))
    pipelines = (PfPipeline(net), LogicalPipeline(net), PkbPipeline(net))
    for k in range(QUERIES_PER_NET):
        e = inputs.random_term(rng, drawn, k % 3)
        x = inputs.random_term(rng, drawn, 1, exclude=e)
        expected = reference.conditional(drawn, x, e)
        for pipeline in pipelines:
            got = pipeline.query(x, e)
            assert got.num == expected, (type(pipeline).__name__, x, e, got)
