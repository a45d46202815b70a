"""Memory layout of the value types: slotted instances without a
per-instance dict, the degrees 0 and 1 shared by every parse, and one
object per value string and per table column in a parsed network."""

import gc

import pytest

from posskc.cnf import Clause, Indicator, Instance, Level, Parameter, PropVariable
from posskc.degrees import ONE, ZERO, Degree, parse_degree
from posskc.network import NetVariable
from posskc.pkb import WeightedFormula

VALUES = [
    Degree(5),
    Instance("A", "a1"),
    Indicator("A", "a1"),
    Parameter("A", ONE),
    Level(1, ONE),
    PropVariable(1, Instance("A", "a1")),
    Clause([1, -2]),
    NetVariable("A", ("a1", "a2")),
    WeightedFormula(Clause([1]), ONE),
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
    every value in a table key is its domain's own string."""
    for v in alarm.variables:
        columns = {}
        for own, cfg in alarm.cpt[v.name]:
            assert columns.setdefault(cfg, cfg) is cfg
            for name, val in zip((v.name, *alarm.parents[v.name]), (own, *cfg)):
                assert any(val is d for d in alarm.domain_of(name))
    assert len(columns) == 4  # D's, under its parents F and B
