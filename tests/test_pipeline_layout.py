"""A built pipeline, and the compiled-base memo on its network, keep only
what a query reads: no CNF or possibilistic base is reachable from
them.  ``cnf`` and pkb's ``base`` rebuild the
encoders' output on access.  pf keeps its circuit's max-min program,
not the circuit or its compiled DAG, and its ``circuit`` and ``dag``
compile the encoder's CNF again."""

import gc
import types

import pytest

from posskc.bench import GenConfig, even_pool, random_network
from posskc.circuits import PfPipeline, encode_pf
from posskc.cnf import CnfFormula, stratified_levels, to_dimacs
from posskc.compiler import compile_cnf
from posskc.logical import LogicalPipeline, encode_logical
from posskc.network import parse_network
from posskc.nnf import write_nnf
from posskc.pkb import (
    PkbPipeline,
    PossibilisticBase,
    encode_pkb,
    serialize_base,
    to_possibilistic_base,
)

DROPPED = (CnfFormula, PossibilisticBase)


def retained(root) -> list:
    """Every object of a DROPPED type reachable from root through
    ``gc.get_referents``, not walking into types or modules."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, DROPPED):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType)):
                seen.add(id(ref))
                stack.append(ref)
    return found


def _multivalued():
    net = random_network(
        GenConfig(n_nodes=8, degree_pool=even_pool(9), seed=5, binary_only=False)
    )
    assert any(len(v.domain) > 2 for v in net.variables)
    assert stratified_levels(encode_pkb(net))
    return net


@pytest.fixture(params=["alarm", "multivalued"])
def net(request, alarm_text):
    return parse_network(alarm_text) if request.param == "alarm" else _multivalued()


def test_pipelines_and_memo_hold_no_cnf_or_base(net):
    built = [
        PfPipeline(net),
        PfPipeline(net, local_structure=False),
        LogicalPipeline(net),
        PkbPipeline(net),
    ]
    # an answered query fills the evidence memo, so the walk covers it too
    built[0].query({net.variables[0].name: net.variables[0].domain[0]}, {})
    assert net.compiled_base is not None
    for root in (*built, net.compiled_base):
        assert retained(root) == []


def test_walk_finds_what_an_encoder_returns(net):
    # encode_pf returns the formula itself, so hold it where the walk must reach it
    assert retained([encode_pf(net)])
    assert retained(to_possibilistic_base(net))


@pytest.mark.parametrize("local", [True, False], ids=["local", "plain"])
def test_pf_cnf_is_the_encoders(net, local):
    pf = PfPipeline(net, local_structure=local)
    assert to_dimacs(pf.cnf) == to_dimacs(encode_pf(net, local))


@pytest.mark.parametrize("local", [True, False], ids=["local", "plain"])
def test_pf_dag_is_the_encoders_compile(net, local):
    pf = PfPipeline(net, local_structure=local)
    assert write_nnf(pf.dag) == write_nnf(compile_cnf(encode_pf(net, local)))


def test_logical_and_pkb_cnf_and_base_are_the_encoders(net):
    logical, kb = LogicalPipeline(net), PkbPipeline(net)
    base = to_possibilistic_base(net)
    assert to_dimacs(logical.cnf) == to_dimacs(encode_logical(net))
    assert to_dimacs(kb.cnf) == to_dimacs(encode_pkb(net))
    assert serialize_base(kb.base) == serialize_base(base)
