"""Pipeline 3: possibilistic base, level-variable CNF, stratum descent,
and the compiled base that the logical and pkb pipelines share."""

import pytest

from posskc import pkb
from posskc.bench import (
    FINE_POOL_SIZE,
    GenConfig,
    SplitMix64,
    compare_network,
    cross_validate,
    even_pool,
    random_network,
)
from posskc.cnf import (
    CnfFormula,
    Instance,
    Level,
    cnf_stats,
    stratified_levels,
    to_dimacs,
)
from posskc.compiler import DEFAULT_NODE_BUDGET, compile_cnf
from posskc.degrees import ONE, ZERO, complement, parse_degree
from posskc.errors import CompileBudgetError, FormatError
from posskc.logical import LogicalPipeline
from posskc.network import (
    PossNetwork,
    chain_rule_joint,
    enumerate_worlds,
    oracle_conditional,
    parse_network,
)
from posskc.nnf import condition, entails_clause, write_nnf
from posskc.pkb import (
    PkbPipeline,
    PossibilisticBase,
    compile_base,
    encode_pkb,
    level_vars,
    pi_sigma,
    serialize_base,
    to_possibilistic_base,
)

from helpers import canonical_clause, parse_base, reference_kb_cnf, reference_query_detail

D = parse_degree

EXAMPLE_FORMULAS = (
    ((-1,), "0.3"),
    ((2,), "0.6"),
    ((-1, -2, 3), "0.6"),
    ((1, -2, -3), "0.8"),
    ((-1, 2, -3), "0.3"),
    ((1, 2, -3), "0.2"),
)

EXAMPLE_TEXT = """\
F=f2 : 0.3
B=b1 : 0.6
F=f2 B=b2 D=d1 : 0.6
F=f1 B=b2 D=d2 : 0.8
F=f2 B=b1 D=d2 : 0.3
F=f1 B=b1 D=d2 : 0.2
"""


def small_nets(count, max_nodes, seed, binary_only=True):
    nets = []
    for i in range(count):
        n = 2 + (seed + 13 * i) % (max_nodes - 1)
        cfg = GenConfig(
            n_nodes=n, max_parents=3, seed=seed + i, binary_only=binary_only
        )
        nets.append(random_network(cfg))
    return nets


class TestToBase:
    def test_example_formulas(self, alarm):
        base = to_possibilistic_base(alarm)
        got = list(base.formulas)
        want = [(lits, D(w)) for lits, w in EXAMPLE_FORMULAS]
        assert got == want

    def test_example_levels_descend(self, alarm):
        base = to_possibilistic_base(alarm)
        assert base.levels == (D("0.8"), D("0.6"), D("0.3"), D("0.2"))
        assert list(base.levels) == sorted(base.levels, reverse=True)

    def test_no_hard_formulas_in_example(self, alarm):
        assert all(weight < ONE for _, weight in to_possibilistic_base(alarm).formulas)

    def test_degree_zero_entry_becomes_hard_formula(self):
        net = parse_network("network z\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 0")
        base = to_possibilistic_base(net)
        assert len(base.formulas) == 1
        assert base.formulas[0] == ((1,), ONE)
        assert base.levels == ()

    def test_uniform_net_gives_empty_base(self):
        net = parse_network("network u\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 1")
        base = to_possibilistic_base(net)
        assert base.formulas == ()
        assert base.levels == ()

    def test_weighted_formula_rejects_zero_weight(self, alarm):
        imap = to_possibilistic_base(alarm).imap
        for formulas in ([((1,), ZERO)], [((-1,), D("0.3")), ((2,), ZERO)]):
            with pytest.raises(ValueError, match="^weighted formulas carry nonzero weight$"):
                PossibilisticBase(tuple(formulas), imap)
        assert PossibilisticBase((((1,), ONE),), imap).levels == ()


class TestPiSigma:
    def test_example_worlds(self, alarm):
        base = to_possibilistic_base(alarm)
        assert pi_sigma(base, {"F": "f2", "B": "b1", "D": "d2"}) == D("1")
        assert pi_sigma(base, {"F": "f2", "B": "b1", "D": "d1"}) == D("0.2")
        assert pi_sigma(base, {"F": "f1", "B": "b1", "D": "d1"}) == D("0.7")

    def test_matches_chain_rule_everywhere(self, alarm):
        base = to_possibilistic_base(alarm)
        for w in enumerate_worlds(alarm):
            assert pi_sigma(base, w) == chain_rule_joint(alarm, w)

    def test_matches_chain_rule_on_random_nets(self):
        for net in small_nets(12, 7, seed=17) + small_nets(
            6, 5, seed=29, binary_only=False
        ):
            base = to_possibilistic_base(net)
            for w in enumerate_worlds(net):
                assert pi_sigma(base, w) == chain_rule_joint(net, w)

    def test_empty_base_is_vacuous(self):
        net = parse_network("network u\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 1")
        base = to_possibilistic_base(net)
        assert pi_sigma(base, {"X": "x1"}) == ONE
        assert pi_sigma(base, {"X": "x2"}) == ONE


def with_zero_entries(net: PossNetwork) -> PossNetwork:
    """The network with every entry of its smallest degree set to 0."""
    smallest = min(d for table in net.cpt.values() for d in table.values())
    cpt = {
        name: {key: ZERO if d == smallest else d for key, d in table.items()}
        for name, table in net.cpt.items()
    }
    return PossNetwork(net.name, net.variables, net.parents, cpt)


class TestWalkMatchesBaseRoute:
    """``encode_pkb``'s one table walk writes the CNF text that the
    formula-by-formula reference writes from the network's base."""

    @staticmethod
    def same_text(net: PossNetwork) -> bool:
        reference = reference_kb_cnf(to_possibilistic_base(net))
        assert to_dimacs(encode_pkb(net)) == to_dimacs(reference)
        return bool(stratified_levels(reference))

    def test_alarm(self, alarm):
        assert not self.same_text(alarm)

    @pytest.mark.parametrize("degrees", [FINE_POOL_SIZE, 1, 3, 9])
    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_random_networks_with_and_without_zero_entries(self, degrees, binary_only):
        """On the 1-degree pool every base is stratified, with one level
        and no ladder clause; on the fine pool none is."""
        stratified = []
        for i in range(8):
            net = random_network(
                GenConfig(
                    n_nodes=4 + i,
                    max_parents=2 if binary_only else 3,
                    degree_pool=even_pool(degrees),
                    seed=4100 + i,
                    binary_only=binary_only,
                )
            )
            zeros = with_zero_entries(net)
            assert any(d.num == 0 for table in zeros.cpt.values() for d in table.values())
            stratified += [self.same_text(net), self.same_text(zeros)]
        if degrees == 1:
            assert all(stratified[::2])
        if degrees == FINE_POOL_SIZE:
            assert not any(stratified)


class TestEncodePkb:
    def test_example_counts(self, alarm):
        cnf = encode_pkb(alarm)
        assert cnf_stats(cnf) == {"vars": 7, "clauses": 6}

    def test_level_variables_ranked_by_descending_weight(self, alarm):
        cnf = encode_pkb(alarm)
        ids = range(1, cnf.num_vars + 1)
        levels = [(vid, r) for vid, r in zip(ids, cnf.roles) if isinstance(r, Level)]
        assert [(r.rank, r.weight) for _, r in levels] == [
            (1, D("0.8")),
            (2, D("0.6")),
            (3, D("0.3")),
            (4, D("0.2")),
        ]
        inst = [vid for vid, r in zip(ids, cnf.roles) if isinstance(r, Instance)]
        assert len(inst) == 3
        assert max(inst) < min(vid for vid, _ in levels)

    def test_weighted_clause_carries_its_level_literal(self, alarm):
        base = to_possibilistic_base(alarm)
        cnf = encode_pkb(alarm)
        by_weight = {
            r.weight: vid for vid, r in enumerate(cnf.roles, start=1) if isinstance(r, Level)
        }
        for (lits, weight), clause in zip(base.formulas, cnf.clause_literals):
            assert set(clause) == {*lits, by_weight[weight]}

    def test_hard_formula_kept_verbatim(self):
        net = parse_network("network z\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 0")
        cnf = encode_pkb(net)
        assert cnf_stats(cnf) == {"vars": 1, "clauses": 1}
        assert cnf.clause_literals[0] == (1,)
        assert not any(isinstance(r, Level) for r in cnf.roles)

    def test_empty_base_empty_cnf(self):
        net = parse_network("network u\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 1")
        cnf = encode_pkb(net)
        assert cnf_stats(cnf) == {"vars": 1, "clauses": 0}


class TestQueryPkb:
    def test_example_query_and_iteration_count(self, alarm):
        kb = PkbPipeline(alarm)
        assert kb.query_detail({"F": "f2"}, {"D": "d1"}) == (D("0.4"), 2)

    def test_complement_query_hits_guard(self, alarm):
        kb = PkbPipeline(alarm)
        degree, iterations = kb.query_detail({"F": "f1"}, {"D": "d1"})
        assert degree == D("1")
        assert iterations == 3

    def test_marginals(self, alarm):
        kb = PkbPipeline(alarm)
        assert kb.query({"D": "d1"}, {}) == D("0.7")
        assert kb.query({"B": "b2"}, {}) == D("0.4")
        assert kb.possibility({"D": "d1", "B": "b1"}) == D("0.7")

    def test_conflicting_target_and_evidence_short_circuits(self, alarm):
        kb = PkbPipeline(alarm)
        assert kb.query_detail({"F": "f1"}, {"F": "f2"}) == (D("0"), 0)

    def test_evidence_equals_target(self, alarm):
        kb = PkbPipeline(alarm)
        assert kb.query({"D": "d1"}, {"D": "d1"}) == D("1")

    def test_outputs_range_over_levels(self, alarm):
        kb = PkbPipeline(alarm)
        base = to_possibilistic_base(alarm)
        allowed = {ZERO, ONE} | {complement(a) for a in base.levels}
        for v in alarm.variables:
            for val in v.domain:
                for ev in alarm.variables:
                    for eval_ in ev.domain:
                        got = kb.query({v.name: val}, {ev.name: eval_})
                        assert got in allowed

    def test_matches_oracle_on_random_nets(self):
        for net in small_nets(15, 8, seed=503):
            kb = PkbPipeline(net)
            names = [v.name for v in net.variables]
            for qi in range(3):
                tgt = net.variables[qi % len(names)]
                ev = net.variables[(qi + 1) % len(names)]
                x = {tgt.name: tgt.domain[qi % len(tgt.domain)]}
                e = {} if qi == 0 else {ev.name: ev.domain[0]}
                assert kb.query(x, e) == oracle_conditional(net, x, e)

    def test_matches_oracle_multivalued(self):
        for net in small_nets(8, 5, seed=919, binary_only=False):
            kb = PkbPipeline(net)
            tgt = net.variables[-1]
            ev = net.variables[0]
            x = {tgt.name: tgt.domain[-1]}
            e = {ev.name: ev.domain[0]} if ev.name != tgt.name else {}
            assert kb.query(x, e) == oracle_conditional(net, x, e)


class TestCompiledBaseEntailment:
    def test_level_one_clause_not_entailed(self, alarm):
        kb = PkbPipeline(alarm)
        a1 = kb.level_vars[0][0]
        d2 = -3
        assert not entails_clause(kb.dag, [a1, d2])

    def test_conditioned_base_entails_f1(self, alarm):
        kb = PkbPipeline(alarm)
        a1, a2 = kb.level_vars[0][0], kb.level_vars[1][0]
        conditioned = condition(kb.dag, [-a1, -a2, 3])
        assert entails_clause(conditioned, [1])


class TestBaseSerialization:
    def test_example_text(self, alarm):
        assert serialize_base(to_possibilistic_base(alarm)) == EXAMPLE_TEXT

    def test_round_trip(self, alarm):
        base = to_possibilistic_base(alarm)
        again = parse_base(serialize_base(base), alarm)
        assert again.formulas == base.formulas
        assert again.levels == base.levels

    def test_round_trip_multivalued(self):
        for net in small_nets(4, 5, seed=733, binary_only=False):
            base = to_possibilistic_base(net)
            again = parse_base(serialize_base(base), net)
            assert again.formulas == base.formulas

    def test_parse_accepts_blank_lines_and_comments(self, alarm):
        text = "# a remark\n\nF=f2 : 0.3\n"
        base = parse_base(text, alarm)
        assert len(base.formulas) == 1
        assert base.formulas[0] == ((-1,), D("0.3"))

    def test_parse_rejects_missing_separator(self, alarm):
        with pytest.raises(FormatError):
            parse_base("F=f2 0.3", alarm)

    def test_parse_rejects_bad_weight(self, alarm):
        with pytest.raises(FormatError):
            parse_base("F=f2 : high", alarm)

    def test_parse_rejects_unknown_literal(self, alarm):
        multi = parse_network("network m\nvar X a b c\ncpt X\na : 1\nb : 0.5\nc : 0.5")
        for text, net in [
            ("Q=q1 : 0.5", alarm),
            ("F=f9 : 0.5", alarm),
            ("!F=f9 : 0.5", alarm),
            ("X=d : 0.5", multi),
            ("!X=d : 0.5", multi),
        ]:
            with pytest.raises(FormatError):
                parse_base(text, net)

    def test_parse_rejects_zero_weight(self, alarm):
        with pytest.raises(FormatError):
            parse_base("F=f2 : 0", alarm)

    def test_parse_rejects_tautological_clause(self, alarm):
        """A clause with both values of a variable would reach the CNF as a
        tautology, which a formula refuses."""
        with pytest.raises(FormatError, match=r"^line 2: tautological clause 'F=f1 F=f2'$"):
            parse_base("B=b1 : 0.5\nF=f1 F=f2 : 0.5\n", alarm)
        multi = parse_network("network m\nvar X a b c\ncpt X\na : 1\nb : 0.5\nc : 0.5")
        with pytest.raises(FormatError, match=r"^line 1: tautological clause 'X=b !X=b'$"):
            parse_base("X=b !X=b : 1\n", multi)


class TestBaseQueriesFromParsedText:
    def test_parsed_base_answers_like_network(self, alarm):
        base = parse_base(EXAMPLE_TEXT, alarm)
        assert isinstance(base, PossibilisticBase)
        for w in enumerate_worlds(alarm):
            assert pi_sigma(base, w) == chain_rule_joint(alarm, w)


def nine_degree_nets(binary_only: bool) -> list:
    """Networks on the scale 0.1 .. 0.9, where levels mostly tag several
    clauses each."""
    return [
        random_network(
            GenConfig(
                n_nodes=8 + i % 4 if binary_only else 5 + i % 3,
                max_parents=3 if binary_only else 2,
                degree_pool=even_pool(9),
                seed=6101 + i,
                binary_only=binary_only,
            )
        )
        for i in range(8)
    ]


def without_ladder(kb: PkbPipeline) -> CnfFormula:
    """The pipeline's CNF minus its trailing L - 1 ladder clauses and its
    roles, so it compiles in the default decision order."""
    f = CnfFormula()
    cnf = kb.cnf
    for _ in cnf.roles:
        f.new_var()
    for c in cnf.clause_literals[: cnf.num_clauses - (len(kb.level_vars) - 1)]:
        f.add_clause(c)
    return f


class TestStratifiedLadder:
    """The stratification rule (``cnf.stratified_levels``): a ladder over
    the level variables, decided first, exactly when the weighted clauses
    average two or more per level."""

    @staticmethod
    def assert_no_ladder(net) -> None:
        base = to_possibilistic_base(net)
        cnf = encode_pkb(net)
        assert stratified_levels(cnf) == frozenset()
        assert cnf.num_clauses == len(base.formulas) + len(base.imap.exactly_one_clauses())

    def test_alarm_gets_no_ladder(self, alarm):
        base = to_possibilistic_base(alarm)
        assert (len(base.levels), len(base.formulas)) == (4, 6)
        self.assert_no_ladder(alarm)

    def test_fine_pool_acceptance_networks_get_no_ladder(self):
        """The networks of acceptance criteria 3 and 4 (default pool)."""
        for i in range(100):
            net = random_network(GenConfig(n_nodes=10 + (i * 40) // 99, seed=9000 + i))
            self.assert_no_ladder(net)
        seeder = SplitMix64(2024)
        for n in (10, 20, 30, 40, 50):
            for _ in range(20):
                net = random_network(GenConfig(n_nodes=n, seed=seeder.next_u64()))
                self.assert_no_ladder(net)

    def test_nine_degree_network_gets_ladder_after_exactly_one_block(self):
        net = random_network(
            GenConfig(n_nodes=10, max_parents=2, degree_pool=even_pool(9), seed=77, binary_only=False)
        )
        base = to_possibilistic_base(net)
        cnf = encode_pkb(net)
        ranked = [vid for vid, _ in level_vars(cnf)]
        exactly_one = [canonical_clause(c) for c in base.imap.exactly_one_clauses()]
        assert exactly_one
        head = len(base.formulas)
        assert list(cnf.clause_literals[head : head + len(exactly_one)]) == exactly_one
        ladder = list(cnf.clause_literals[head + len(exactly_one) :])
        assert len(ladder) == len(base.levels) - 1
        pairs = zip(ranked, ranked[1:])
        assert ladder == [canonical_clause([-a, b]) for a, b in pairs]
        assert stratified_levels(cnf) == frozenset(ranked)

    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_ladder_keeps_every_answer(self, binary_only):
        """query_detail on the ladder DAG equals query_detail on a DAG of
        the same CNF without the ladder clauses, and the oracle."""
        nets = [
            net
            for net in nine_degree_nets(binary_only)
            if stratified_levels(encode_pkb(net))
        ]
        assert len(nets) >= 6
        for net in nets:
            kb = PkbPipeline(net)
            plain = PkbPipeline(net)
            plain.dag = compile_cnf(without_ladder(kb))
            for v, ev in zip(net.variables, net.variables[-1:] + net.variables[:-1]):
                x = {v.name: v.domain[-1]}
                for e in ({}, {ev.name: ev.domain[0]}):
                    got = kb.query_detail(x, e)
                    assert got == plain.query_detail(x, e)
                    assert got[0] == oracle_conditional(net, x, e)


@pytest.fixture
def compiles(monkeypatch):
    """Every CNF that ``pkb.compile_base`` compiles, in call order."""
    seen = []
    original = pkb.compile_cnf

    def counting(cnf, **kwargs):
        seen.append(cnf)
        return original(cnf, **kwargs)

    monkeypatch.setattr(pkb, "compile_cnf", counting)
    return seen


class TestCompiledBaseMemo:
    """The logical and pkb pipelines read one compiled base per network
    and node budget, kept on the network object."""

    @pytest.mark.parametrize(
        "first, second",
        [(LogicalPipeline, PkbPipeline), (PkbPipeline, LogicalPipeline)],
        ids=["logical-then-pkb", "pkb-then-logical"],
    )
    def test_two_pipelines_compile_once(self, alarm_text, compiles, first, second):
        net = parse_network(alarm_text)
        a, b = first(net), second(net)
        assert len(compiles) == 1
        assert a.dag is b.dag and a.cnf == b.cnf
        assert a.query({"F": "f2"}, {"D": "d1"}) == b.query({"F": "f2"}, {"D": "d1"}) == D("0.4")

    def test_the_memo_lives_on_the_network_object(self, alarm_text, compiles):
        one, other = parse_network(alarm_text), parse_network(alarm_text)
        assert LogicalPipeline(one).dag is not PkbPipeline(other).dag
        assert len(compiles) == 2

    def test_compiled_base_equals_a_fresh_compile(self, alarm_text):
        net = parse_network(alarm_text)
        imap, levels, dag = compile_base(net, DEFAULT_NODE_BUDGET)
        base = to_possibilistic_base(net)
        cnf = encode_pkb(net)
        assert imap.roles == base.imap.roles
        assert levels == level_vars(cnf)
        assert write_nnf(dag) == write_nnf(compile_cnf(cnf))

    def test_budget_failure_is_never_memoised(self, alarm_text, compiles):
        net = parse_network(alarm_text)
        for pipeline in (LogicalPipeline, PkbPipeline):
            with pytest.raises(CompileBudgetError):
                pipeline(net, node_budget=1)
        assert len(compiles) == 2
        assert net.compiled_base is None
        kb = PkbPipeline(net)
        assert LogicalPipeline(net).dag is kb.dag
        assert len(compiles) == 3
        assert kb.query_detail({"F": "f2"}, {"D": "d1"}) == (D("0.4"), 2)

    def test_another_budget_recompiles(self, alarm_text, compiles):
        net = parse_network(alarm_text)
        default = PkbPipeline(net)
        roomy = LogicalPipeline(net, node_budget=10**7)
        assert len(compiles) == 2
        assert roomy.dag is not default.dag
        assert write_nnf(roomy.dag) == write_nnf(default.dag)
        assert PkbPipeline(net, node_budget=10**7).dag is roomy.dag
        assert len(compiles) == 2

    def test_compare_network_compiles_each_method_on_its_own(self, alarm_text, compiles):
        net = parse_network(alarm_text)
        rows = compare_network(net)
        assert [r.method for r in rows] == ["pf", "logical", "pkb"]
        assert len(compiles) == 2
        assert rows[1].nnf_nodes == rows[2].nnf_nodes > 0
        assert net.compiled_base is None

    def test_cross_validate_compiles_once_per_network(self, compiles):
        result = cross_validate(nets=4, max_vars=5, queries=2, seed=17)
        assert result.mismatches == ()
        assert len(compiles) == 4

    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_shared_base_answers_match_the_oracle(self, binary_only):
        for net in small_nets(6, 6, seed=271, binary_only=binary_only):
            logical, kb = LogicalPipeline(net), PkbPipeline(net)
            assert logical.dag is kb.dag
            for v, ev in zip(net.variables, net.variables[1:] + net.variables[:1]):
                x = {v.name: v.domain[-1]}
                for e in ({}, {ev.name: ev.domain[0]}):
                    expected = oracle_conditional(net, x, e)
                    assert logical.query(x, e) == expected
                    assert kb.query_detail(x, e) == reference_query_detail(kb, x, e)
                    assert kb.query_detail(x, e)[0] == expected
