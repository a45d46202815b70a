"""CNF core: clause/formula invariants, model enumeration against the
definition of satisfaction, and DIMACS round-trips with role metadata."""

import random
import re
from collections import Counter

import pytest

from posskc.cnf import (
    CnfFormula,
    Indicator,
    Instance,
    Level,
    Parameter,
    cnf_stats,
    parse_dimacs,
    to_dimacs,
)
from posskc.degrees import parse_degree
from posskc.errors import FormatError, SizeGuardError

from helpers import (
    canonical_clause,
    enumerate_models,
    interp_key,
    is_tautology,
    models_by_definition,
    random_cnf,
)


def registry(n: int) -> CnfFormula:
    f = CnfFormula()
    for _ in range(n):
        f.new_var()
    return f


def tautology_message(lits: tuple) -> str:
    return "^" + re.escape(f"tautological clause {lits} not allowed in a formula") + "$"


class TestClause:
    """A clause as ``add_clause`` stores it: its canonical literal tuple,
    which its error messages name too."""

    def test_sorted_and_deduplicated(self):
        assert registry(3).add_clause([3, -1, 3, 2]) == (-1, 2, 3)

    def test_sign_order_within_variable(self):
        with pytest.raises(ValueError, match=tautology_message((-2, 2))):
            registry(2).add_clause([2, -2])

    def test_tautology_detection(self):
        f = registry(2)
        with pytest.raises(ValueError, match=tautology_message((-1, 1))):
            f.add_clause([1, -1])
        assert f.add_clause([1, -2]) == (1, -2)
        assert f.clause_literals == ((1, -2),)

    def test_empty_clause(self):
        f = registry(1)
        assert f.add_clause([]) == ()
        assert f.clause_literals == ((),)

    def test_zero_rejected(self):
        """Literal 0 is refused before any other check."""
        for bad in ([0], [5, 0], [1, 0, -1]):
            with pytest.raises(ValueError, match="^0 is not a literal$"):
                registry(1).add_clause(bad)

    def test_canonical_form_and_both_formula_errors(self):
        """By variable, negative first, whatever the input order; the
        formula's range check reads the last literal, so an unregistered
        variable is caught after registered ones and under either sign."""
        for lits in ([3, -1, -3, 1], [3, -1, -3, 1, 3, -1]):
            with pytest.raises(ValueError, match=tautology_message((-1, 1, -3, 3))):
                registry(3).add_clause(lits)
        with pytest.raises(ValueError, match="0 is not a literal"):
            registry(3).add_clause([3, 0, -2])
        f = registry(2)
        assert f.add_clause([2, -1, 2]) == (-1, 2)
        for bad in ([1, -3], [-3, 1], [3]):
            with pytest.raises(ValueError, match="unregistered"):
                f.add_clause(bad)
        with pytest.raises(ValueError, match="tautological"):
            f.add_clause([2, 1, -2])
        assert f.num_clauses == 1


class TestFormula:
    def test_registry_and_clauses(self):
        f = CnfFormula()
        a, b = f.new_var(), f.new_var()
        f.add_clause([a, b])
        f.add_clause([-a, -b])
        assert cnf_stats(f) == {"vars": 2, "clauses": 2}

    def test_unregistered_literal_rejected(self):
        f = CnfFormula()
        f.new_var()
        with pytest.raises(ValueError):
            f.add_clause([2])

    def test_tautology_rejected_in_formula(self):
        f = CnfFormula()
        v = f.new_var()
        with pytest.raises(ValueError):
            f.add_clause([v, -v])

    def test_empty_formula_stats(self):
        assert cnf_stats(CnfFormula()) == {"vars": 0, "clauses": 0}

    def test_add_clause_contract_on_random_literal_lists(self):
        """Seeded lists with 0, repeats, complementary pairs and ids beyond
        the registry, as lists or as tuples, against the contract written
        with the reference order ``helpers.canonical_clause``: 0 first,
        then an unregistered variable (the last literal by variable), then
        a tautology, each a ValueError with this message; otherwise the
        stored clause is ``canonical_clause(lits)``, and DIMACS writes it
        so."""
        rng = random.Random(19)
        outcomes = Counter()
        for _ in range(40):
            n = rng.randint(1, 6)
            f = CnfFormula()
            for _ in range(n):
                f.new_var()
            stored = []
            for _ in range(25):
                lits = [
                    rng.choice((-1, 1))
                    * (rng.randint(1, n) if rng.random() < 0.9 else rng.choice((0, n + 1, n + 2)))
                    for _ in range(rng.randint(0, 6))
                ]
                try:
                    want = canonical_clause(lits)
                    last = want[-1:]
                    if last and abs(last[0]) > n:
                        raise ValueError(f"literal {last[0]} names an unregistered variable")
                    if is_tautology(want):
                        raise ValueError(f"tautological clause {want} not allowed in a formula")
                except ValueError as exc:
                    outcomes[str(exc).split()[-1]] += 1
                    with pytest.raises(ValueError) as got:
                        f.add_clause(lits)
                    assert str(got.value) == str(exc)
                else:
                    outcomes["stored"] += 1
                    arg = want if rng.random() < 0.5 else lits
                    assert f.add_clause(arg) == want
                    stored.append(want)
            assert f.clause_literals == tuple(stored)
            assert to_dimacs(f) == f"p cnf {n} {len(stored)}\n" + "".join(
                " ".join(map(str, c)) + " 0\n" for c in stored
            )
        # every outcome occurs: stored, literal 0, unregistered, tautology
        assert min(outcomes[k] for k in ("stored", "literal", "variable", "formula")) >= 50


class TestEnumerateModels:
    def _formula(self, n, clauses):
        f = CnfFormula()
        for _ in range(n):
            f.new_var()
        for c in clauses:
            f.add_clause(c)
        return f

    def test_unit_clause(self):
        f = self._formula(1, [[1]])
        assert list(enumerate_models(f)) == [{1: True}]

    def test_contradiction(self):
        f = self._formula(1, [[1], [-1]])
        assert list(enumerate_models(f)) == []

    def test_exclusive_or(self):
        f = self._formula(2, [[1, 2], [-1, -2]])
        models = [interp_key(m, 2) for m in enumerate_models(f)]
        assert models == [(False, True), (True, False)]

    def test_lexicographic_order(self):
        f = self._formula(3, [[1, 2, 3]])
        keys = [interp_key(m, 3) for m in enumerate_models(f)]
        assert keys == sorted(keys)
        assert keys[0] == (False, False, True)

    def test_guard(self):
        f = self._formula(25, [])
        with pytest.raises(SizeGuardError):
            list(enumerate_models(f))

    def test_matches_definition_on_random_formulas(self):
        """Each emitted interpretation satisfies every clause and no other
        total assignment does, checked by exhaustive definition."""
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 10)
            f = random_cnf(rng, n, rng.randint(0, 3 * n))
            got = {interp_key(m, n) for m in enumerate_models(f)}
            assert got == models_by_definition(f)


class TestDimacs:
    def test_plain_serialization(self):
        f = CnfFormula()
        a, b = f.new_var(), f.new_var()
        f.add_clause([a, b])
        f.add_clause([-a, -b])
        assert to_dimacs(f) == "p cnf 2 2\n1 2 0\n-1 -2 0\n"

    def test_round_trip_with_roles(self):
        f = CnfFormula()
        f.new_var(Instance("F", "f1"))
        f.new_var(Indicator("D", "d2"))
        f.new_var(Parameter("D", parse_degree("0.4")))
        f.new_var(Parameter("*", parse_degree("0.25")))
        f.new_var(Level(1, parse_degree("0.8")))
        f.add_clause([1, -2, 5])
        f.add_clause([3, 4])
        g = parse_dimacs(to_dimacs(f))
        assert g == f
        assert to_dimacs(g) == to_dimacs(f)

    def test_unknown_role_type(self):
        f = CnfFormula()
        f.new_var(("F", "f1"))
        with pytest.raises(TypeError, match=r"^unknown role \('F', 'f1'\)$"):
            to_dimacs(f)

    def test_tautological_clause(self):
        """The line and the message name the clause in canonical order,
        by variable with -v before +v."""
        with pytest.raises(FormatError) as exc:
            parse_dimacs("p cnf 2 1\n2 1 -2 0\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: tautological clause (1, -2, 2) not allowed in a formula"

    def test_second_role_comment_for_a_variable(self):
        """A later role comment for the same variable does not replace the
        first: the text is refused at the second comment's line."""
        text = "c var 1 level 1 0.5\nc var 1 instance A a\np cnf 1 1\n1 0\n"
        with pytest.raises(FormatError) as exc:
            parse_dimacs(text)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: second role comment for variable 1"

    @pytest.mark.parametrize("vid", ["0", "-2", "x"])
    def test_role_comment_variable_id_below_one(self, vid):
        with pytest.raises(FormatError) as exc:
            parse_dimacs(f"p cnf 1 1\nc var {vid} instance A a\n1 0\n")
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: bad variable id in role comment: {vid!r}"

    def test_role_comment_beyond_declared_vars(self):
        with pytest.raises(FormatError) as exc:
            parse_dimacs("c var 1 instance A a\nc var 5 instance B b\np cnf 1 1\n1 0\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: role comment for variable 5 beyond declared 1"

    def test_literal_beyond_declared_vars(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            parse_dimacs("p dnf 2 1\n1 2 0\n")
        with pytest.raises(FormatError):
            parse_dimacs("1 2 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 2 2\n1 2 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("p cnf x 1\n", "line 1: malformed header: 'p cnf x 1'", 1),
            ("p cnf 2 -1\n", "line 1: malformed header: 'p cnf 2 -1'", 1),
            ("p cnf -1 1\n", "line 1: malformed header: 'p cnf -1 1'", 1),
            ("c only a comment\n", "missing 'p cnf' header", None),
            ("", "missing 'p cnf' header", None),
            ("p cnf 2 1\n1 x 0\n", "line 2: bad literal token 'x'", 2),
            (
                "c var 1 parameter A 1.5\np cnf 1 0\n",
                "line 1: bad role annotation 'parameter A 1.5': degree literal '1.5' outside [0, 1]",
                1,
            ),
            ("c var 1 bogus A a\np cnf 1 0\n", "line 1: bad role annotation 'bogus A a'", 1),
            ("c var 1 level 1\np cnf 1 0\n", "line 1: bad role annotation 'level 1'", 1),
        ],
        ids=[
            "header-not-integer",
            "header-negative-clauses",
            "header-negative-vars",
            "header-missing",
            "empty",
            "bad-literal-token",
            "role-with-bad-value",
            "role-of-unknown-kind",
            "role-with-missing-field",
        ],
    )
    def test_text_checks(self, text, message, line):
        with pytest.raises(FormatError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message
        assert exc.value.line == line

    def test_blank_lines_accepted(self):
        plain = parse_dimacs("c var 1 level 1 0.5\np cnf 2 2\n1 2 0\n-1 0\n")
        spaced = parse_dimacs("\nc var 1 level 1 0.5\n\np cnf 2 2\n  \n1 2 0\n\n-1 0\n\n")
        assert spaced == plain
        assert to_dimacs(spaced) == to_dimacs(plain)

    def test_comments_ignored(self):
        f = parse_dimacs("c free-form comment\np cnf 2 1\nc another\n1 2 0\n")
        assert f.num_clauses == 1

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(30):
            f = random_cnf(rng, rng.randint(1, 8), rng.randint(0, 12))
            assert parse_dimacs(to_dimacs(f)) == f
