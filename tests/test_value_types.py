"""Memory layout of the value types: slotted instances without a
per-instance dict, the degrees 0 and 1 shared by every parse, and one
object per value string, per table column and per degree text in a
parsed network."""

import gc

import pytest

from posskc.cnf import Indicator, Instance, Level, Parameter
from posskc.degrees import ONE, ZERO, Degree, parse_degree
from posskc.network import NetVariable, parse_network

VALUES = [
    Degree(5),
    Instance("A", "a1"),
    Indicator("A", "a1"),
    Parameter("A", ONE),
    Level(1, ONE),
    NetVariable("A", ("a1", "a2")),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_have_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


def test_slotted_degrees_stay_gc_tracked():
    """So a gc.get_objects() count of Degrees still sees all of them."""
    assert gc.is_tracked(Degree(5))


def test_parse_degree_shares_zero_and_one():
    assert parse_degree("1") is ONE
    assert parse_degree("1.000") is ONE
    assert parse_degree("0") is ZERO
    assert parse_degree("0.0") is ZERO


def test_parse_network_shares_values_and_columns(alarm):
    """The entries of one table column share one parent-value tuple, and
    every value in a table key is its domain's own string; ``parent_configs``
    lists the column tuples the keys hold."""
    for v in alarm.variables:
        columns = {}
        for own, cfg in alarm.cpt[v.name]:
            assert columns.setdefault(cfg, cfg) is cfg
            for name, val in zip((v.name, *alarm.parents[v.name]), (own, *cfg)):
                assert any(val is d for d in alarm.domain_of(name))
        # the table walk reads the columns the keys hold
        assert all(columns[cfg] is cfg for cfg in alarm.parent_configs(v.name))
    assert len(columns) == 4  # D's, under its parents F and B


def test_parse_network_shares_degrees():
    """Equal degree texts in one network are one Degree, parsed once, and
    the texts 1 and 0 parse to ``ONE`` and ``ZERO`` themselves."""
    net = parse_network(
        "network N\nvar A a1 a2\nvar B b1 b2 b3\nparents B A\n"
        "cpt A\na1 : 0.3\na2 : 1\n"
        "cpt B\nb1 | a1 : 1\nb2 | a1 : 0.3\nb3 | a1 : 0\n"
        "b1 | a2 : 0.3\nb2 | a2 : 1\nb3 | a2 : 0\n"
    )
    a, b = net.cpt["A"], net.cpt["B"]
    assert a[("a1", ())] is b[("b2", ("a1",))] is b[("b1", ("a2",))]
    assert a[("a2", ())] is ONE and b[("b1", ("a1",))] is ONE
    assert b[("b3", ("a1",))] is ZERO and b[("b3", ("a2",))] is ZERO
