"""Pipeline 2: logical encoding queried by one max-min pass."""

import pytest

from posskc.bench import GenConfig, random_network
from posskc.cnf import Instance, Level, cnf_stats
from posskc.degrees import SCALE, Degree, complement, parse_degree
from posskc.errors import QueryError
from posskc.logical import LogicalPipeline, encode_logical
from posskc.network import (
    chain_rule_joint,
    enumerate_worlds,
    oracle_conditional,
    parse_network,
)
from posskc.pkb import encode_pkb

from helpers import baseline_counts

D = parse_degree


def small_nets(count, max_nodes, seed, binary_only=True):
    nets = []
    for i in range(count):
        n = 2 + (seed + 17 * i) % (max_nodes - 1)
        cfg = GenConfig(
            n_nodes=n, max_parents=3, seed=seed + i, binary_only=binary_only
        )
        nets.append(random_network(cfg))
    return nets


class TestEncodeLogical:
    def test_example_counts(self, alarm):
        assert cnf_stats(encode_logical(alarm)) == {"vars": 7, "clauses": 6}

    def test_example_roles(self, alarm):
        roles = encode_logical(alarm).roles
        assert sum(isinstance(r, Instance) for r in roles) == 3
        levels = [r for r in roles if isinstance(r, Level)]
        assert len(levels) == len(roles) - 3
        assert [complement(l.weight) for l in levels] == [D("0.2"), D("0.4"), D("0.7"), D("0.8")]

    def test_imap_vars_are_the_instance_layer(self, alarm):
        # possibility forgets exactly these by leaving them out of the weight map
        lp = LogicalPipeline(alarm)
        inst_ids = {
            vid for vid, r in enumerate(lp.cnf.roles, start=1) if isinstance(r, Instance)
        }
        assert lp.imap.all_vars() == frozenset(inst_ids)
        assert not inst_ids & {abs(l) for l in lp.theta_weights}

    def test_theta_weights_map_parameter_ids(self, alarm):
        # the weight map covers exactly the level variables, each at 1 - w
        lp = LogicalPipeline(alarm)
        roles = lp.cnf.roles
        level_ids = {vid for vid, r in enumerate(roles, start=1) if isinstance(r, Level)}
        assert set(lp.theta_weights) == level_ids
        for vid, d in lp.theta_weights.items():
            assert d == complement(roles[vid - 1].weight)

    def test_parameters_shared_across_tables(self, alarm):
        # degree 0.4 appears in both B's and D's tables but yields one level
        # variable, which tags B's clause (over B alone) and D's (over F, B, D)
        lp = LogicalPipeline(alarm)
        cnf = lp.cnf
        levels = [r for r in cnf.roles if isinstance(r, Level)]
        assert len(levels) == len({l.weight for l in levels}) == 4
        (a,) = [vid for vid, d in lp.theta_weights.items() if d == D("0.4")]
        scopes = sorted(
            sorted(abs(l) for l in c if l != a) for c in cnf.clause_literals if a in c
        )
        f, b, d = (abs(lp.imap.literals[x]) for x in (("F", "f1"), ("B", "b1"), ("D", "d1")))
        assert scopes == sorted([[b], sorted([f, b, d])])

    def test_uniform_single_binary_root(self):
        net = parse_network("network u\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 1")
        assert cnf_stats(encode_logical(net)) == {"vars": 1, "clauses": 0}

    def test_degree_zero_yields_hard_clause(self):
        net = parse_network("network z\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 0")
        cnf = encode_logical(net)
        assert cnf_stats(cnf) == {"vars": 1, "clauses": 1}
        assert cnf.clause_literals[0] == (1,)
        assert LogicalPipeline(net).theta_weights == {}

    def test_multivalued_gets_exactly_one_block(self):
        net = parse_network(
            "network m\nvar X a b c\ncpt X\na : 1\nb : 0.5\nc : 0.5"
        )
        # 3 instance vars + 1 theta; 2 entry clauses + 1 ALO + 3 AMO
        assert cnf_stats(encode_logical(net)) == {"vars": 4, "clauses": 6}


class TestExplore:
    """Pi(term) by ``LogicalPipeline.possibility``: one max-min pass that
    conditions, forgets and evaluates the compiled DAG at once."""

    def test_example_joint(self, alarm):
        assert LogicalPipeline(alarm).possibility({"F": "f2", "D": "d1"}) == D("0.4")

    def test_empty_term_is_one(self, alarm):
        assert LogicalPipeline(alarm).possibility({}) == D("1")

    def test_example_pair(self, alarm):
        assert LogicalPipeline(alarm).possibility({"D": "d1", "B": "b1"}) == D("0.7")

    def test_complete_worlds_match_chain_rule(self, alarm):
        p = LogicalPipeline(alarm)
        for w in enumerate_worlds(alarm):
            assert p.possibility(w) == chain_rule_joint(alarm, w)

    def test_complete_worlds_on_random_nets(self):
        for net in small_nets(10, 6, seed=19):
            p = LogicalPipeline(net)
            for w in enumerate_worlds(net):
                assert p.possibility(w) == chain_rule_joint(net, w)

    def test_rejects_unknown_variable(self, alarm):
        with pytest.raises(QueryError):
            LogicalPipeline(alarm).possibility({"Q": "q1"})


class TestQueryLogical:
    def test_example_conditional(self, alarm):
        assert LogicalPipeline(alarm).query({"F": "f2"}, {"D": "d1"}) == D("0.4")

    def test_example_conditional_complement(self, alarm):
        assert LogicalPipeline(alarm).query({"F": "f1"}, {"D": "d1"}) == D("1")

    def test_marginal(self, alarm):
        assert LogicalPipeline(alarm).query({"B": "b2"}, {}) == D("0.4")

    def test_contradicting_target_and_evidence(self, alarm):
        assert LogicalPipeline(alarm).query({"D": "d1"}, {"D": "d2"}) == D("0")

    def test_matches_oracle_on_random_nets(self):
        for net in small_nets(15, 8, seed=211):
            p = LogicalPipeline(net)
            names = [v.name for v in net.variables]
            for qi in range(3):
                tgt = net.variables[qi % len(names)]
                ev = net.variables[(qi + 1) % len(names)]
                x = {tgt.name: tgt.domain[qi % len(tgt.domain)]}
                e = {} if qi == 0 else {ev.name: ev.domain[0]}
                assert p.query(x, e) == oracle_conditional(net, x, e)

    def test_matches_oracle_multivalued(self):
        for net in small_nets(8, 5, seed=83, binary_only=False):
            p = LogicalPipeline(net)
            tgt = net.variables[-1]
            ev = net.variables[0]
            x = {tgt.name: tgt.domain[-1]}
            e = {ev.name: ev.domain[0]} if ev.name != tgt.name else {}
            assert p.query(x, e) == oracle_conditional(net, x, e)


class TestSizeParity:
    def test_same_counts_as_base_encoding_on_example(self, alarm):
        kb_cnf = encode_pkb(alarm)
        assert cnf_stats(encode_logical(alarm)) == cnf_stats(kb_cnf)

    def test_same_counts_as_base_encoding_random(self):
        for net in small_nets(10, 9, seed=307) + small_nets(
            6, 6, seed=311, binary_only=False
        ):
            assert cnf_stats(encode_logical(net)) == cnf_stats(
                encode_pkb(net)
            )

    def test_never_larger_than_entrywise_baseline(self):
        for net in small_nets(10, 8, seed=401):
            got = cnf_stats(encode_logical(net))
            base = baseline_counts(net, "logical")
            assert got["vars"] <= base["vars"]
            assert got["clauses"] <= base["clauses"]

    def test_strictly_smaller_on_example(self, alarm):
        got = cnf_stats(encode_logical(alarm))
        base = baseline_counts(alarm, "logical")
        assert got["vars"] < base["vars"]
        assert got["clauses"] < base["clauses"]

    def test_same_formula_as_base_encoding_up_to_renaming(self, alarm):
        """The logical CNF is the base CNF itself: the theta of degree d is
        the level variable of weight 1 - d."""
        coarse = frozenset(Degree(k * SCALE // 10) for k in range(1, 10))
        nets = [alarm] + small_nets(12, 9, seed=401) + small_nets(
            8, 6, seed=409, binary_only=False
        )
        for i in range(8):
            cfg = GenConfig(
                n_nodes=3 + i, seed=419 + i, binary_only=i % 2 == 0, degree_pool=coarse
            )
            nets.append(random_network(cfg))
        assert len(nets) == 29
        for net in nets:
            assert encode_logical(net) == encode_pkb(net)
