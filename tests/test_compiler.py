"""Compiler engine: equivalence with brute-force enumeration, structural
properties of the output, determinism of runs, and the loud budget."""

import inspect
import random
import sys
from collections import Counter

import pytest

from posskc import compiler
from posskc.cnf import (
    Clause,
    CnfFormula,
    Level,
    enumerate_models,
    model_mask,
    stratified_levels,
)
from posskc.compiler import compile_cnf, split
from posskc.degrees import parse_degree
from posskc.errors import CompileBudgetError
from posskc.nnf import (
    entails_clause,
    is_consistent,
    nnf_stats,
    structural_properties,
    write_nnf,
)

from helpers import (
    dag_model_mask,
    dag_model_set,
    interp_key,
    models_by_definition,
    random_cnf,
    union_find_components,
)


def formula(n, clauses, levels=()):
    """A CNF over variables 1..n, those in ``levels`` tagged as Level."""
    f = CnfFormula()
    for v in range(1, n + 1):
        f.new_var(Level(v, parse_degree("0.5")) if v in levels else None)
    for c in clauses:
        f.add_clause(c)
    return f


class TestBasics:
    def test_empty_clause_set_is_true(self):
        d = compile_cnf(formula(0, []))
        assert is_consistent(d)
        assert nnf_stats(d) == {"nodes": 1, "edges": 0}

    def test_contradiction_is_false(self):
        d = compile_cnf(formula(1, [[1], [-1]]))
        assert not is_consistent(d)

    def test_exclusive_or_models(self):
        d = compile_cnf(formula(2, [[1, 2], [-1, -2]]))
        assert dag_model_set(d, 2) == {(True, False), (False, True)}

    def test_empty_clause_in_input(self):
        f = formula(1, [])
        f.add_clause([])
        assert not is_consistent(compile_cnf(f))


class TestEquivalence:
    def test_random_formulas_match_enumeration(self):
        rng = random.Random(1234)
        for _ in range(80):
            n = rng.randint(1, 12)
            f = random_cnf(rng, n, rng.randint(0, 3 * n))
            d = compile_cnf(f)
            assert dag_model_mask(d, n) == model_mask(f)

    def test_models_match_definition(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 9)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            assert dag_model_set(compile_cnf(f), n) == models_by_definition(f)


class TestStructure:
    def test_output_is_decomposable_and_deterministic(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 10)
            f = random_cnf(rng, n, rng.randint(0, 3 * n))
            props = structural_properties(compile_cnf(f))
            assert props["decomposable"] and props["deterministic"]

    def test_component_split_joins_under_and(self):
        """Two variable-disjoint subproblems meet only at the root And."""
        f = formula(4, [[1, 2], [3, 4]])
        d = compile_cnf(f)
        op, _, kids = d.nodes[d.root]
        assert op == "A"
        assert len(kids) == 2

    def test_unit_propagation_collapses_chains(self):
        f = formula(5, [[1], [-1, 2], [-2, 3], [-3, 4], [-4, 5]])
        d = compile_cnf(f)
        assert dag_model_set(d, 5) == {(True,) * 5}
        assert not any(op == "O" for op, _, _ in d.nodes)

    def test_search_deeper_than_recursion_limit(self, monkeypatch):
        """On a chain of binary clauses the search nests about n/2
        subproblems deep; compiling it must neither recurse nor touch the
        process-wide recursion limit."""
        n = 300
        f = formula(n, [[i, i + 1] for i in range(1, n)])

        def refuse(limit):
            raise AssertionError(f"compile_cnf set the recursion limit to {limit}")

        set_limit, old_limit = sys.setrecursionlimit, sys.getrecursionlimit()
        set_limit(len(inspect.stack(0)) + 50)
        try:
            monkeypatch.setattr(sys, "setrecursionlimit", refuse)
            d = compile_cnf(f)
        finally:
            set_limit(old_limit)
        assert all(entails_clause(d, Clause([i, i + 1])) for i in range(1, n))
        assert not entails_clause(d, Clause([1, 3]))

    def test_first_variables_are_decided_before_others(self):
        """Variable 1 occurs most, so it is the default root decision.
        Tagging variable 4 as a Level that weights two clauses makes the
        formula stratified and moves 4 to the root; with one weighted
        clause the tag changes nothing."""
        clauses = [[1, 2], [1, 3], [-1, 4], [2, 3, 4]]
        default = compile_cnf(formula(4, clauses))
        f = formula(4, clauses, levels={4})
        moved = compile_cnf(f)
        assert default.nodes[default.root][:2] == ("O", 1)
        assert moved.nodes[moved.root][:2] == ("O", 4)
        assert dag_model_mask(moved, 4) == model_mask(f)
        single = formula(4, [[1, 2], [1, 3], [-1, 4], [2, 3]], levels={4})
        assert stratified_levels(single) == frozenset()
        assert write_nnf(compile_cnf(single)) == write_nnf(compile_cnf(formula(4, single.clauses)))

    def test_first_set_keeps_the_models(self):
        rng = random.Random(41)
        stratified = 0
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_cnf(rng, n, rng.randint(n, 3 * n))
            levels = set(rng.sample(range(1, n + 1), rng.randint(1, n // 2)))
            f = formula(n, g.clauses, levels)
            stratified += bool(stratified_levels(f))
            d = compile_cnf(f)
            assert dag_model_mask(d, n) == model_mask(f)
            assert structural_properties(d)["deterministic"]
        assert stratified >= 15

    def test_runs_are_deterministic(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 9)
            f = random_cnf(rng, n, rng.randint(1, 3 * n))
            assert write_nnf(compile_cnf(f)) == write_nnf(compile_cnf(f))


def smallest_vars(comps):
    return [min(abs(l) for c in comp for l in c) for comp in comps]


class TestSplit:
    """The one-pass split against the union-find reference, and compiled
    models against enumeration on the residuals it has to split right."""

    def assert_compiles_to_models(self, n, clauses):
        f = formula(n, clauses)
        want = {interp_key(m, n) for m in enumerate_models(f)}
        assert dag_model_set(compile_cnf(f), n) == want

    def test_clause_joins_two_earlier_groups(self):
        """(1 3) and (2 4) open two groups; (3 4) comes last and merges
        them into one component, so the root is a decision, not an And."""
        clauses = ((1, 3), (2, 4), (3, 4))
        assert split(clauses) == ([clauses], {1: 1, 2: 1, 3: 2, 4: 2})
        d = compile_cnf(formula(4, clauses))
        assert d.nodes[d.root][0] == "O"
        self.assert_compiles_to_models(4, clauses)

    def test_three_components_ordered_by_smallest_variable(self):
        """Union-find roots {2 4 5} at 4, after {3 6} at 3; the split puts
        it second, by its smallest variable 2."""
        clauses = ((-2, 5), (1, 7), (3, 6), (4, 5))
        comps, counts = split(clauses)
        assert comps == [((1, 7),), ((-2, 5), (4, 5)), ((3, 6),)]
        assert union_find_components(clauses) == [((1, 7),), ((3, 6),), ((-2, 5), (4, 5))]
        assert counts == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 1}
        d = compile_cnf(formula(7, clauses))
        op, _, kids = d.nodes[d.root]
        assert op == "A" and len(kids) == 3
        self.assert_compiles_to_models(7, clauses)

    def test_formula_without_unit_clause(self):
        rng = random.Random(808)
        for _ in range(30):
            n = rng.randint(2, 9)
            f = random_cnf(rng, n, rng.randint(1, 3 * n))
            clauses = [c.literals for c in f.clauses if len(c) > 1]
            self.assert_compiles_to_models(n, clauses)

    def test_same_partition_as_union_find(self):
        rng = random.Random(2024)
        multi = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            f = random_cnf(rng, n, rng.randint(1, n))
            clauses = tuple(sorted({c.literals for c in f.clauses}))  # as compile_cnf starts
            comps, counts = split(clauses)
            ref = union_find_components(clauses)
            assert {frozenset(c) for c in comps} == {frozenset(c) for c in ref}
            assert len(comps) == len(ref)
            assert all(list(comp) == sorted(comp) for comp in comps)
            assert smallest_vars(comps) == sorted(smallest_vars(comps))
            assert counts == Counter(abs(l) for c in clauses for l in c)
            multi += len(comps) >= 3
        assert multi >= 50


class TestBudget:
    def test_budget_failure_is_loud(self):
        f = formula(12, [[i, i + 1] for i in range(1, 12)])
        with pytest.raises(CompileBudgetError):
            compile_cnf(f, node_budget=3)

    def test_budget_generous_enough_succeeds(self):
        f = formula(12, [[i, i + 1] for i in range(1, 12)])
        d = compile_cnf(f, node_budget=10_000_000)
        assert dag_model_mask(d, 12) == model_mask(f)

    def test_tiny_cache_still_correct(self, monkeypatch):
        monkeypatch.setattr(compiler, "CACHE_CAP", 2)
        rng = random.Random(15)
        for _ in range(10):
            n = rng.randint(2, 9)
            f = random_cnf(rng, n, rng.randint(1, 3 * n))
            d = compile_cnf(f)
            assert dag_model_mask(d, n) == model_mask(f)
