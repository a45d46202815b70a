"""Network model: PNET parsing/validation, the min-based chain rule, and
the brute-force oracle anchors on the golden fixture."""

import pytest

from posskc.degrees import ONE, parse_degree
from posskc.errors import FormatError, NetworkValidationError, QueryError
from posskc.network import (
    NetVariable,
    PossNetwork,
    chain_rule_joint,
    enumerate_worlds,
    oracle_conditional,
    oracle_possibility,
    parse_network,
    serialize_network,
)

D = parse_degree


class TestParsing:
    def test_fixture_shape(self, alarm):
        assert alarm.name == "alarm"
        assert alarm.var_names == ("F", "B", "D")
        assert alarm.domain_of("F") == ("f1", "f2")
        assert alarm.parents["D"] == ("F", "B")
        assert alarm.parents["F"] == ()
        assert len(alarm.cpt["D"]) == 8

    def test_fixture_entries(self, alarm):
        assert alarm.cpt["F"][("f1", ())] == D("0.7")
        assert alarm.cpt["B"][("b2", ())] == D("0.4")
        assert alarm.cpt["D"][("d1", ("f2", "b1"))] == D("0.2")
        assert alarm.cpt["D"][("d2", ("f1", "b1"))] == D("0.4")

    def test_byte_exact_round_trip(self, alarm, alarm_text):
        assert serialize_network(alarm) == alarm_text
        assert parse_network(serialize_network(alarm)) == alarm

    def test_entries_in_any_order_are_kept_in_table_order(self, alarm, alarm_text):
        head, _, block = alarm_text.partition("cpt D\n")
        shuffled = parse_network(head + "cpt D\n" + "".join(reversed(block.splitlines(True))))
        assert shuffled == alarm
        assert list(shuffled.cpt["D"]) == list(alarm.cpt["D"])
        assert list(shuffled.parent_configs("D")) == list(alarm.parent_configs("D"))
        assert serialize_network(shuffled) == alarm_text

    def test_comments_and_blank_lines(self, alarm_text):
        decorated = "# header\n\n" + alarm_text.replace("f1 : 0.7", "f1 : 0.7  # prior")
        assert parse_network(decorated) == parse_network(alarm_text)

    def test_normalization_violation(self, alarm_text):
        bad = alarm_text.replace("d1 | f1 b1 : 1", "d1 | f1 b1 : 0.9")
        with pytest.raises(NetworkValidationError, match="normalization"):
            parse_network(bad)

    def test_cycle_detected(self, alarm_text):
        bad = alarm_text.replace("parents D F B", "parents D F B\nparents F D")
        with pytest.raises(NetworkValidationError, match="cycle"):
            parse_network(bad)

    def test_duplicate_entry(self, alarm_text):
        bad = alarm_text.replace("f2 : 1", "f2 : 1\nf2 : 1")
        with pytest.raises(NetworkValidationError, match="duplicate"):
            parse_network(bad)

    def test_missing_entry(self, alarm_text):
        bad = alarm_text.replace("d2 | f2 b2 : 1\n", "")
        with pytest.raises(NetworkValidationError, match="missing"):
            parse_network(bad)

    def test_unknown_parent_value(self, alarm_text):
        bad = alarm_text.replace("d1 | f2 b1 : 0.2", "d1 | f3 b1 : 0.2")
        with pytest.raises(NetworkValidationError):
            parse_network(bad)

    def test_syntax_error_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_network("network n\nvar X x1\n")

    def test_missing_network_line(self):
        with pytest.raises(FormatError):
            parse_network("var X x1 x2\ncpt X\nx1 : 1\nx2 : 1\n")

    def test_entry_outside_block(self):
        with pytest.raises(FormatError):
            parse_network("network n\nvar X x1 x2\nx1 : 1\n")


class TestConstruction:
    X = NetVariable("X", ("x1", "x2"))
    X_CPT = {("x1", ()): ONE, ("x2", ()): D("0.5")}

    def test_stray_parents_key_rejected(self):
        with pytest.raises(NetworkValidationError, match="parents for unknown variable 'Y'"):
            PossNetwork("n", [self.X], {"Y": ("X",)}, {"X": self.X_CPT, "Z": {}})

    def test_stray_cpt_key_rejected(self):
        with pytest.raises(NetworkValidationError, match="cpt for unknown variable 'Z'"):
            PossNetwork("n", [self.X], {}, {"X": self.X_CPT, "Z": {}})


class TestChainRule:
    def test_degree_one_world(self, alarm):
        assert chain_rule_joint(alarm, {"F": "f2", "B": "b1", "D": "d2"}) == ONE

    def test_weighted_worlds(self, alarm):
        assert chain_rule_joint(alarm, {"F": "f1", "B": "b1", "D": "d1"}) == D("0.7")
        assert chain_rule_joint(alarm, {"F": "f2", "B": "b1", "D": "d1"}) == D("0.2")

    def test_full_joint_table(self, alarm):
        """All eight joint degrees, cross-checked by hand from the tables."""
        expected = {
            ("f1", "b1", "d1"): "0.7",
            ("f1", "b1", "d2"): "0.4",
            ("f1", "b2", "d1"): "0.4",
            ("f1", "b2", "d2"): "0.4",
            ("f2", "b1", "d1"): "0.2",
            ("f2", "b1", "d2"): "1",
            ("f2", "b2", "d1"): "0.4",
            ("f2", "b2", "d2"): "0.4",
        }
        for (f, b, d), deg in expected.items():
            assert chain_rule_joint(alarm, {"F": f, "B": b, "D": d}) == D(deg)

    def test_some_world_has_degree_one(self, alarm):
        assert max(chain_rule_joint(alarm, w) for w in enumerate_worlds(alarm)) == ONE


class TestWorlds:
    def test_fixture_world_count(self, alarm):
        worlds = list(enumerate_worlds(alarm))
        assert len(worlds) == 8
        assert worlds[0] == {"F": "f1", "B": "b1", "D": "d1"}
        assert worlds[-1] == {"F": "f2", "B": "b2", "D": "d2"}

    def test_single_variable(self):
        net = PossNetwork(
            "n",
            [NetVariable("X", ("x1", "x2"))],
            {},
            {"X": {("x1", ()): ONE, ("x2", ()): D("0.5")}},
        )
        assert len(list(enumerate_worlds(net))) == 2

    def test_ten_binary_variables(self):
        variables = [NetVariable(f"X{i}", ("v0", "v1")) for i in range(10)]
        cpt = {
            f"X{i}": {("v0", ()): ONE, ("v1", ()): ONE} for i in range(10)
        }
        net = PossNetwork("n", variables, {}, cpt)
        assert sum(1 for _ in enumerate_worlds(net)) == 1024


class TestOracle:
    def test_possibility_anchor_d1_b1(self, alarm):
        assert oracle_possibility(alarm, {"D": "d1", "B": "b1"}) == D("0.7")

    def test_possibility_anchor_f2_d1(self, alarm):
        assert oracle_possibility(alarm, {"F": "f2", "D": "d1"}) == D("0.4")

    def test_possibility_empty_event(self, alarm):
        assert oracle_possibility(alarm, {}) == ONE

    def test_conditional_anchor(self, alarm):
        assert oracle_conditional(alarm, {"F": "f2"}, {"D": "d1"}) == D("0.4")

    def test_conditional_equal_marginals(self, alarm):
        assert oracle_conditional(alarm, {"F": "f1"}, {"D": "d1"}) == ONE

    def test_conditional_self(self, alarm):
        for term in [{"F": "f2"}, {"D": "d1", "B": "b2"}]:
            assert oracle_conditional(alarm, term, term) == ONE

    def test_conditional_conflicting_terms(self, alarm):
        assert oracle_conditional(alarm, {"F": "f1"}, {"F": "f2"}) == D("0")

    def test_monotone_in_evidence(self, alarm):
        smaller = oracle_possibility(alarm, {"D": "d1"})
        larger_evidence = oracle_possibility(alarm, {"D": "d1", "B": "b1", "F": "f2"})
        assert larger_evidence <= smaller

    def test_unknown_variable_rejected(self, alarm):
        with pytest.raises(QueryError):
            oracle_possibility(alarm, {"Z": "z1"})
        with pytest.raises(QueryError):
            oracle_conditional(alarm, {"F": "f3"}, {})
