"""Pipeline 1: indicator/parameter encoding and possibilistic circuits."""

import itertools
from types import SimpleNamespace

import pytest

from posskc.bench import GenConfig, random_network
from posskc.circuits import PfPipeline, encode_pf
from posskc.cnf import CnfFormula, Indicator, Parameter, cnf_stats
from posskc.degrees import ONE, parse_degree
from posskc.errors import QueryError, SizeGuardError
from posskc.compiler import compile_cnf
from posskc.network import (
    ORACLE_WORLD_GUARD,
    chain_rule_joint,
    enumerate_worlds,
    oracle_conditional,
    oracle_possibility,
    parse_network,
)
from posskc.nnf import max_min_program, pi_evaluate, run_program

from helpers import baseline_counts, pf_weights

D = parse_degree


def small_nets(count, max_nodes, seed, binary_only=True):
    """Deterministic batch of oracle-sized random networks."""
    nets = []
    for i in range(count):
        n = 2 + (seed + 31 * i) % (max_nodes - 1)
        cfg = GenConfig(
            n_nodes=n, max_parents=3, seed=seed + i, binary_only=binary_only
        )
        nets.append(random_network(cfg))
    return nets


def every_term(net):
    """Every partial assignment: each variable absent or at one of its values."""
    for vals in itertools.product(*([None, *v.domain] for v in net.variables)):
        yield {v.name: x for v, x in zip(net.variables, vals) if x is not None}


class TestEvaluateFmin:
    """The possibilistic function the circuits compile is the oracle
    possibility: anchors on the fixture and the oracle's world guard."""

    def test_example_partial_term(self, alarm):
        assert oracle_possibility(alarm, {"D": "d1", "B": "b1"}) == D("0.7")

    def test_complete_world(self, alarm):
        assert oracle_possibility(alarm, {"F": "f2", "B": "b1", "D": "d2"}) == D("1")

    def test_empty_term_is_one_for_normalized_net(self, alarm):
        assert oracle_possibility(alarm, {}) == D("1")

    def test_rejects_unknown_value(self, alarm):
        with pytest.raises(QueryError):
            oracle_possibility(alarm, {"F": "nope"})

    def test_world_guard(self):
        lines = ["network wide"]
        for i in range(21):
            lines.append(f"var X{i} a b")
        for i in range(21):
            lines += [f"cpt X{i}", "a : 1", "b : 1"]
        net = parse_network("\n".join(lines))
        with pytest.raises(SizeGuardError):
            oracle_possibility(net, {})
        with pytest.raises(SizeGuardError):
            oracle_conditional(net, {"X0": "a"}, {"X1": "b"})
        assert 2**21 > ORACLE_WORLD_GUARD


class TestEncodePf:
    def test_example_local_counts(self, alarm):
        cnf = encode_pf(alarm, local_structure=True)
        assert cnf_stats(cnf) == {"vars": 12, "clauses": 12}

    def test_example_full_counts(self, alarm):
        cnf = encode_pf(alarm, local_structure=False)
        assert cnf_stats(cnf) == {"vars": 18, "clauses": 46}

    def test_indicator_per_value(self, alarm):
        pf = PfPipeline(alarm)
        assert set(pf.indicators) == {
            ("F", "f1"),
            ("F", "f2"),
            ("B", "b1"),
            ("B", "b2"),
            ("D", "d1"),
            ("D", "d2"),
        }
        roles = encode_pf(alarm).roles
        for (var, val), vid in pf.indicators.items():
            role = roles[vid - 1]
            assert isinstance(role, Indicator)
            assert (role.var, role.value) == (var, val)

    def test_local_parameters_shared_per_distinct_degree(self, alarm):
        cnf = encode_pf(alarm, local_structure=True)
        params = [r for r in cnf.roles if isinstance(r, Parameter)]
        assert len(params) == 6
        d_degrees = sorted(p.degree for p in params if p.owner == "D")
        assert d_degrees == [D("0.2"), D("0.4"), D("0.7"), D("0.8")]

    def test_full_mode_parameter_per_entry(self, alarm):
        cnf = encode_pf(alarm, local_structure=False)
        params = [r for r in cnf.roles if isinstance(r, Parameter)]
        assert len(params) == 12

    def test_weight_map_covers_parameters_only(self, alarm):
        for local in (True, False):
            pf = PfPipeline(alarm, local_structure=local)
            param_ids = {
                vid for vid, r in enumerate(pf.cnf.roles, start=1) if isinstance(r, Parameter)
            }
            assert set(pf.weight_map) == param_ids

    def test_degree_zero_becomes_hard_clause(self):
        net = parse_network(
            "network z\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 0"
        )
        # one ALO, one AMO, one hard clause excluding x2; no parameters
        assert cnf_stats(encode_pf(net, local_structure=True)) == {"vars": 2, "clauses": 3}
        assert PfPipeline(net, local_structure=True).weight_map == {}

    def test_uniform_net_has_no_parameters(self):
        net = parse_network(
            "network u\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 1"
        )
        cnf = encode_pf(net, local_structure=True)
        assert cnf_stats(cnf) == {"vars": 2, "clauses": 2}


class TestCircuit:
    def test_all_ones_evaluates_to_one(self, alarm):
        p = PfPipeline(alarm)
        assert pi_evaluate(p.dag, pf_weights(p, {})) == D("1")
        assert p.possibility({}) == D("1")

    def test_inconsistent_encoding_evaluates_to_zero(self):
        f = CnfFormula()
        v = f.new_var(Indicator("X", "x1"))
        f.add_clause([v])
        f.add_clause([-v])
        # the two fields pf_weights reads off a built pipeline
        pf = SimpleNamespace(weight_map={}, indicators={("X", "x1"): v})
        d = compile_cnf(f)
        assert pi_evaluate(d, pf_weights(pf, {})) == D("0")
        program, _ = max_min_program(d, pf.weight_map)
        assert run_program(program, program.template.copy()) == D("0")

    def test_indicator_weights_respect_term(self, alarm):
        """A target refutes the indicators of its variable's other values:
        its pass writes 0 at their circuit leaves and at no other leaf."""
        pf = PfPipeline(alarm)
        nodes = pf.circuit.nodes
        leaf = {arg: i for i, (op, arg, _) in enumerate(nodes) if op == "L"}
        ind = pf.indicators
        assert pf.refutes[ind[("F", "f1")]] == (leaf[ind[("F", "f2")]],)
        assert pf.refutes[ind[("B", "b2")]] == (leaf[ind[("B", "b1")]],)
        values, _ = pf._pass({"F": "f1"})
        fresh, _ = pf._pass({})
        changed = {i for i in leaf.values() if values[i] != fresh[i]}
        assert changed == {leaf[ind[("F", "f2")]]}
        assert fresh[leaf[ind[("F", "f2")]]] == ONE.num

    def test_circuit_possibility_equals_chain_rule_on_worlds(self, alarm):
        p = PfPipeline(alarm)
        for w in enumerate_worlds(alarm):
            assert p.possibility(w) == chain_rule_joint(alarm, w)

    def test_circuit_possibility_on_random_nets(self):
        for net in small_nets(10, 6, seed=7):
            p = PfPipeline(net)
            for w in enumerate_worlds(net):
                assert p.possibility(w) == chain_rule_joint(net, w)

    @pytest.mark.parametrize("local", [True, False], ids=["local", "plain"])
    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_circuit_equals_dag_on_every_term(self, binary_only, local):
        """Every query weighs each negative literal 1, so the circuit, which
        drops them, reads on every term exactly what the compiled DAG reads."""
        nets = small_nets(6, 5, seed=41, binary_only=binary_only)
        assert binary_only or any(len(v.domain) > 2 for net in nets for v in net.variables)
        values = set()
        for net in nets:
            p = PfPipeline(net, local_structure=local)
            dag = compile_cnf(encode_pf(net, local))
            circuit = p.circuit
            assert all(lit > 0 for op, lit, _ in circuit.nodes if op == "L")
            for term in every_term(net):
                w = pf_weights(p, term)
                assert all(lit > 0 for lit in w)
                got = pi_evaluate(circuit, w)
                assert got == pi_evaluate(dag, w)
                assert p.possibility(term) == got
                values.add(got)
        assert ONE in values and len(values) > 2  # degrees strictly between 0 and 1 too


class TestQueryPf:
    def test_example_conditional(self, alarm):
        assert PfPipeline(alarm).query({"F": "f2"}, {"D": "d1"}) == D("0.4")

    def test_example_conditional_complement(self, alarm):
        assert PfPipeline(alarm).query({"F": "f1"}, {"D": "d1"}) == D("1")

    def test_marginal_with_empty_evidence(self, alarm):
        assert PfPipeline(alarm).query({"D": "d1"}, {}) == D("0.7")

    def test_contradicting_target_and_evidence(self, alarm):
        assert PfPipeline(alarm).query({"F": "f1"}, {"F": "f2"}) == D("0")

    def test_local_modes_agree(self, alarm):
        local = PfPipeline(alarm, local_structure=True)
        plain = PfPipeline(alarm, local_structure=False)
        for x, e in [
            ({"F": "f2"}, {"D": "d1"}),
            ({"B": "b2"}, {}),
            ({"D": "d2"}, {"F": "f2", "B": "b1"}),
        ]:
            assert local.query(x, e) == plain.query(x, e)

    def test_matches_oracle_on_random_nets(self):
        for net in small_nets(15, 8, seed=113):
            p = PfPipeline(net)
            names = [v.name for v in net.variables]
            for qi in range(3):
                tgt = net.variables[qi % len(names)]
                ev = net.variables[(qi + 1) % len(names)]
                x = {tgt.name: tgt.domain[qi % len(tgt.domain)]}
                e = {} if qi == 0 else {ev.name: ev.domain[0]}
                assert p.query(x, e) == oracle_conditional(net, x, e)

    def test_matches_oracle_multivalued(self):
        for net in small_nets(8, 5, seed=59, binary_only=False):
            p = PfPipeline(net, local_structure=False)
            tgt = net.variables[-1]
            ev = net.variables[0]
            x = {tgt.name: tgt.domain[-1]}
            e = {ev.name: ev.domain[0]} if ev.name != tgt.name else {}
            assert p.query(x, e) == oracle_conditional(net, x, e)


class TestEncodingSizeBound:
    def test_local_never_larger_than_plain_circuit_baseline(self):
        for net in small_nets(12, 8, seed=23):
            cnf = encode_pf(net, local_structure=True)
            base = baseline_counts(net, "circuit")
            got = cnf_stats(cnf)
            assert got["vars"] <= base["vars"]
            assert got["clauses"] <= base["clauses"]
            # generated tables always carry a sub-unit degree, so the
            # local encoding is strictly smaller on clauses
            assert got["clauses"] < base["clauses"]

    def test_equality_when_every_degree_is_zero_or_one(self):
        net = parse_network(
            "network b\nvar X x1 x2\nvar Y y1 y2\nparents Y X\n"
            "cpt X\nx1 : 1\nx2 : 1\n"
            "cpt Y\ny1 | x1 : 1\ny2 | x1 : 0\ny1 | x2 : 0\ny2 | x2 : 1"
        )
        cnf = encode_pf(net, local_structure=True)
        base = baseline_counts(net, "circuit")
        assert cnf_stats(cnf) == base
