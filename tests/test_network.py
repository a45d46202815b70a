"""Network model: PNET parsing/validation, the min-based chain rule, and
the brute-force oracle anchors on the golden fixture."""

import re
from pathlib import Path

import pytest

from posskc.bench import GenConfig, even_pool, random_network
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
TRIAGE = Path(__file__).resolve().parent.parent / "fixtures" / "triage.pnet"

SMALL = [
    "network n",
    "var X x1 x2",
    "var Y y1 y2",
    "parents Y X",
    "cpt X",
    "x1 : 1",
    "x2 : 0.5",
    "cpt Y",
    "y1 | x1 : 1",
    "y2 | x1 : 0.2",
    "y1 | x2 : 0.3",
    "y2 | x2 : 1",
]
"""A valid two-variable network, one line per entry; cases edit lines."""

VAR_X, VAR_Y = NetVariable("X", ("x1", "x2")), NetVariable("Y", ("y1", "y2"))


def edited(index: int, *lines: str, drop: int = 0) -> str:
    """SMALL with ``lines`` put in at ``index``, replacing ``drop`` lines."""
    return "\n".join(SMALL[:index] + list(lines) + SMALL[index + drop :]) + "\n"


def table_order_text(net: PossNetwork) -> str:
    """The PNET text of ``net`` written from ``parent_configs`` times each
    domain, the reference for ``serialize_network``."""
    out = [f"network {net.name}"]
    out += [f"var {v.name} {' '.join(v.domain)}" for v in net.variables]
    out += [f"parents {n} {' '.join(ps)}" for n, ps in net.parents.items() if ps]
    for v in net.variables:
        out.append(f"cpt {v.name}")
        for cfg in net.parent_configs(v.name):
            bar = f" | {' '.join(cfg)}" if cfg else ""
            out += [f"{val}{bar} : {net.cpt[v.name][(val, cfg)]}" for val in v.domain]
    return "\n".join(out) + "\n"


def line_of(exc: Exception) -> int | None:
    """The input line an error names: FormatError's ``line``, or the
    ``(line N)`` that ends a NetworkValidationError raised by the parser."""
    if isinstance(exc, FormatError):
        return exc.line
    found = re.search(r"\(line (\d+)\)$", str(exc))
    return int(found.group(1)) if found else None


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


class TestSerialization:
    def test_triage_round_trip_is_byte_exact(self):
        text = TRIAGE.read_text()
        bare = "".join(l for l in text.splitlines(True) if not l.startswith("#"))
        net = parse_network(text)
        assert serialize_network(net) == bare
        assert table_order_text(net) == bare
        assert parse_network(bare) == net

    @pytest.mark.parametrize("binary_only", [True, False], ids=["binary", "multivalued"])
    def test_generated_round_trips_are_byte_exact(self, binary_only):
        for seed in range(30):
            cfg = GenConfig(2 + seed % 7, seed=seed, binary_only=binary_only, degree_pool=even_pool(9))
            net = random_network(cfg)
            text = serialize_network(net)
            assert text == table_order_text(net)
            assert parse_network(text) == net
            assert serialize_network(parse_network(text)) == text


class TestInputChecks:
    """Each check of the network model and the PNET reader, by the
    exception class, the exact message and the line it names."""

    def test_unedited_text_is_valid(self):
        assert parse_network(edited(0)).var_names == ("X", "Y")

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: NetVariable("1X", ("a", "b")), "bad variable name '1X'"),
            (lambda: NetVariable("X", ("a",)), "variable X needs at least 2 values"),
            (lambda: NetVariable("X", ("a", "a")), "variable X has duplicate values"),
            (lambda: NetVariable("X", ("a", "b-c")), "bad value name 'b-c' for variable X"),
            (lambda: parse_network(edited(0)).variable("Z"), "unknown variable 'Z'"),
            (lambda: PossNetwork("1n", [VAR_X], {}, {}), "bad network name '1n'"),
            (lambda: parse_network(edited(0, "network 1n", drop=1)), "bad network name '1n'"),
            (
                lambda: PossNetwork("n", [VAR_X, VAR_X], {}, {}),
                "duplicate variable X",
            ),
            (
                lambda: PossNetwork("n", [VAR_X, VAR_Y], {"Y": ("X", "X")}, {}),
                "duplicate parent in Y's parent list",
            ),
            (
                lambda: PossNetwork("n", [VAR_X, VAR_Y], {"Y": ("Z",)}, {}),
                "unknown parent 'Z' of Y",
            ),
            (
                lambda: PossNetwork("n", [VAR_X, VAR_Y], {"Y": ("Y",)}, {}),
                "variable Y cannot be its own parent",
            ),
        ],
        ids=[
            "bad-variable-name",
            "one-value",
            "duplicate-values",
            "bad-value-name",
            "unknown-variable",
            "bad-network-name",
            "bad-network-name-parsed",
            "duplicate-variable",
            "duplicate-parent",
            "unknown-parent",
            "own-parent",
        ],
    )
    def test_model_checks(self, build, message):
        with pytest.raises(NetworkValidationError) as exc:
            build()
        assert type(exc.value) is NetworkValidationError
        assert str(exc.value) == message
        assert line_of(exc.value) is None

    @pytest.mark.parametrize(
        "text,error,message,line",
        [
            (edited(2, "network m"), FormatError, "line 3: duplicate 'network' line", 3),
            (edited(0, "network a b", drop=1), FormatError, "line 1: expected 'network <name>'", 1),
            (edited(2, "var X x1 x2"), NetworkValidationError, "duplicate variable X (line 3)", 3),
            (edited(3, "var Z z1 z1"), FormatError, "line 4: variable Z has duplicate values", 4),
            (
                edited(3, "parents Y", drop=1),
                FormatError,
                "line 4: expected 'parents <var> <p1> ...'",
                4,
            ),
            (
                edited(3, "parents Z X"),
                NetworkValidationError,
                "parents for unknown variable 'Z' (line 4)",
                4,
            ),
            (
                edited(4, "parents Y X"),
                NetworkValidationError,
                "duplicate parents line for Y (line 5)",
                5,
            ),
            (edited(4, "cpt", drop=1), FormatError, "line 5: expected 'cpt <var>'", 5),
            (edited(4, "cpt X Y", drop=1), FormatError, "line 5: expected 'cpt <var>'", 5),
            (edited(4, "cpt Z"), NetworkValidationError, "cpt for unknown variable 'Z' (line 5)", 5),
            (edited(7, "cpt X", drop=1), NetworkValidationError, "duplicate cpt block for X (line 8)", 8),
            (
                edited(6, "x2 : 1.5", drop=1),
                FormatError,
                "line 7: degree literal '1.5' outside [0, 1]",
                7,
            ),
            (
                edited(6, "x2 x1 : 0.5", drop=1),
                FormatError,
                "line 7: cpt entry needs exactly one own value: 'x2 x1 : 0.5'",
                7,
            ),
            (
                edited(8, "| x1 : 1", drop=1),
                FormatError,
                "line 9: cpt entry needs exactly one own value: '| x1 : 1'",
                9,
            ),
        ],
        ids=[
            "second-network-line",
            "malformed-network-line",
            "duplicate-var",
            "variable-error-with-line",
            "malformed-parents-line",
            "undeclared-parents",
            "repeated-parents",
            "cpt-without-name",
            "cpt-with-two-names",
            "undeclared-cpt",
            "repeated-cpt",
            "bad-degree-with-line",
            "two-own-values",
            "no-own-value",
        ],
    )
    def test_reader_checks(self, text, error, message, line):
        with pytest.raises(error) as exc:
            parse_network(text)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert line_of(exc.value) == line


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
