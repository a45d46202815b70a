"""Exact degree arithmetic: parsing, canonical text, and the two
primitive combinators (min-conditioning and complement)."""

import random

import pytest

from posskc.degrees import SCALE, Degree, ONE, ZERO, complement, min_condition, parse_degree
from posskc.errors import DegreeError


class TestParseDegree:
    def test_simple_fraction(self):
        assert parse_degree("0.7") == Degree(700_000_000)

    def test_unit(self):
        assert parse_degree("1") == ONE
        assert parse_degree("1.0") == ONE
        assert parse_degree("1.000000000") == ONE

    def test_zero(self):
        assert parse_degree("0") == ZERO
        assert parse_degree("0.0") == ZERO

    def test_full_precision(self):
        assert parse_degree("0.123456789") == Degree(123_456_789)

    def test_too_many_fraction_digits(self):
        with pytest.raises(DegreeError):
            parse_degree("0.1234567891")

    def test_out_of_range(self):
        with pytest.raises(DegreeError):
            parse_degree("1.5")
        with pytest.raises(DegreeError):
            parse_degree("2")

    def test_malformed(self):
        for bad in ["", "abc", "0.", ".5", "-0.5", "0.7e0", "0,7"]:
            with pytest.raises(DegreeError):
                parse_degree(bad)

    def test_canonical_round_trip(self):
        """str strips trailing zeros and re-parses to the same value."""
        rng = random.Random(20260818)
        for _ in range(500):
            d = Degree(rng.randrange(SCALE + 1))
            assert parse_degree(str(d)) == d

    def test_canonical_forms(self):
        assert str(parse_degree("0.700")) == "0.7"
        assert str(parse_degree("1.0")) == "1"
        assert str(parse_degree("0.0")) == "0"
        assert str(parse_degree("0.250")) == "0.25"


class TestCombinators:
    def test_min_condition_strictly_below(self):
        assert min_condition(parse_degree("0.4"), parse_degree("0.7")) == parse_degree("0.4")

    def test_min_condition_equal(self):
        assert min_condition(parse_degree("0.7"), parse_degree("0.7")) == ONE

    def test_min_condition_zero(self):
        assert min_condition(ZERO, parse_degree("0.5")) == ZERO

    def test_min_condition_rejects_inverted_pair(self):
        with pytest.raises(DegreeError):
            min_condition(parse_degree("0.8"), parse_degree("0.5"))

    def test_complement(self):
        assert complement(parse_degree("0.7")) == parse_degree("0.3")
        assert complement(ONE) == ZERO
        assert complement(parse_degree("0.6")) == parse_degree("0.4")

    def test_complement_involution(self):
        rng = random.Random(7)
        for _ in range(200):
            d = Degree(rng.randrange(SCALE + 1))
            assert complement(complement(d)) == d


class TestOrderAlgebra:
    """min/max over degrees form the lattice the circuit evaluator relies on."""

    def test_ordering_matches_value(self):
        assert parse_degree("0.2") < parse_degree("0.4") < ONE
        assert max(parse_degree("0.2"), parse_degree("0.4")) == parse_degree("0.4")

    def test_lattice_identities(self):
        rng = random.Random(99)
        sample = [Degree(rng.randrange(SCALE + 1)) for _ in range(50)]
        for a in sample[:10]:
            assert min(a, ONE) == a
            assert max(a, ZERO) == a
            assert min(a, a) == a
            assert max(a, a) == a
        for a, b, c in zip(sample, sample[10:], sample[20:]):
            assert min(a, b) == min(b, a)
            assert min(min(a, b), c) == min(a, min(b, c))
            assert max(max(a, b), c) == max(a, max(b, c))

    def test_out_of_range_constructor(self):
        with pytest.raises(DegreeError):
            Degree(-1)
        with pytest.raises(DegreeError):
            Degree(SCALE + 1)

    @pytest.mark.parametrize("num, kind", [(0.5, "float"), ("1", "str")])
    def test_non_int_numerator(self, num, kind):
        with pytest.raises(DegreeError, match=f"^degree numerator must be int, got {kind}$"):
            Degree(num)
