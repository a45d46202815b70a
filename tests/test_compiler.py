"""Compiler engine: equivalence with brute-force enumeration, structural
properties of the output, determinism of runs, the int clause form
against reference splits and counts, DAG sizes, CNF texts and DAG texts
pinned against the same search, and the loud budget."""

import hashlib
import inspect
import random
import sys
from collections import Counter

import pytest

from posskc import compiler
from posskc.bench import FINE_POOL_SIZE, GenConfig, even_pool, random_network
from posskc.cnf import (
    CnfFormula,
    Indicator,
    Level,
    Parameter,
    parse_dimacs,
    stratified_levels,
    to_dimacs,
)
from posskc.circuits import PfPipeline, encode_pf
from posskc.compiler import clause_bits, compile_cnf, decide, split
from posskc.degrees import complement, parse_degree
from posskc.errors import CompileBudgetError
from posskc.logical import LogicalPipeline
from posskc.nnf import (
    entails_clause,
    is_consistent,
    nnf_stats,
    structural_properties,
    write_nnf,
)
from posskc.pkb import PkbPipeline, encode_pkb, level_vars

from helpers import (
    dag_model_mask,
    dag_model_set,
    enumerate_models,
    interp_key,
    model_mask,
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
        assert all(entails_clause(d, [i, i + 1]) for i in range(1, n))
        assert not entails_clause(d, [1, 3])

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
        assert write_nnf(compile_cnf(single)) == write_nnf(compile_cnf(formula(4, single.clause_literals)))

    def test_first_set_keeps_the_models(self):
        rng = random.Random(41)
        stratified = 0
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_cnf(rng, n, rng.randint(n, 3 * n))
            levels = set(rng.sample(range(1, n + 1), rng.randint(1, n // 2)))
            f = formula(n, g.clause_literals, levels)
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


def canonical(clauses, shift):
    """Literal tuples as the compiler's canonical clause set, and each
    clause's variable mask."""
    ints = tuple(sorted({clause_bits(c, shift) for c in clauses}))
    return ints, [(c | c >> shift) & ((1 << shift) - 1) for c in ints]


def literals(c, shift):
    """A clause int back to its literal tuple, sorted."""
    return tuple(sorted(v if v < shift else shift - v for v in range(c.bit_length()) if c >> v & 1))


def smallest_vars(comps, shift):
    return [min(abs(l) for c in comp for l in literals(c, shift)) for comp in comps]


class TestSplit:
    """The split against the union-find reference, the decision rule
    against a count of occurrences, and compiled models against
    enumeration on the residuals the split has to get right."""

    def assert_compiles_to_models(self, n, clauses):
        f = formula(n, clauses)
        want = {interp_key(m, n) for m in enumerate_models(f)}
        assert dag_model_set(compile_cnf(f), n) == want

    def test_clause_int_form(self):
        """Bit v is +v and bit v + shift is -v; a variable mask folds the
        two halves together."""
        assert clause_bits([3, -1], 5) == (1 << 3) | (1 << 6)
        ints, masks = canonical([(3, -1), (2,), (-1, 3)], 5)
        assert ints == ((1 << 2), (1 << 3) | (1 << 6))
        assert masks == [0b100, 0b1010]
        assert literals(ints[1], 5) == (-1, 3)

    def test_clause_joins_two_earlier_groups(self):
        """(1 3) starts a component that (2 4) misses; (3 4) joins it, and
        only a second sweep takes in (2 4), so the root is a decision,
        not an And."""
        clauses = ((1, 3), (2, 4), (3, 4))
        ints, masks = canonical(clauses, 5)
        assert [literals(c, 5) for c in ints] == list(clauses)
        assert split(ints, masks) == [ints]
        assert decide(masks, 0) == 1 << 3
        assert decide(masks, 1 << 2) == 1 << 2
        d = compile_cnf(formula(4, clauses))
        assert d.nodes[d.root][:2] == ("O", 3)
        self.assert_compiles_to_models(4, clauses)

    def test_three_components_ordered_by_smallest_variable(self):
        """Union-find roots {2 4 5} at 4, after {3 6} at 3; the split puts
        it second, by its smallest variable 2."""
        clauses = ((-2, 5), (1, 7), (3, 6), (4, 5))
        ints, masks = canonical(clauses, 8)
        comps = [[literals(c, 8) for c in comp] for comp in split(ints, masks)]
        assert comps == [[(1, 7)], [(4, 5), (-2, 5)], [(3, 6)]]
        assert union_find_components(clauses) == [((1, 7),), ((3, 6),), ((-2, 5), (4, 5))]
        assert decide(masks, 0) == 1 << 5
        d = compile_cnf(formula(7, clauses))
        op, _, kids = d.nodes[d.root]
        assert op == "A" and len(kids) == 3
        self.assert_compiles_to_models(7, clauses)

    def test_formula_without_unit_clause(self):
        rng = random.Random(808)
        for _ in range(30):
            n = rng.randint(2, 9)
            f = random_cnf(rng, n, rng.randint(1, 3 * n))
            clauses = [c for c in f.clause_literals if len(c) > 1]
            self.assert_compiles_to_models(n, clauses)

    def test_same_partition_as_union_find(self):
        rng = random.Random(2024)
        multi = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            f = random_cnf(rng, n, rng.randint(1, n))
            ints, masks = canonical(list(f.clause_literals), n + 1)
            comps = split(ints, masks)
            ref = union_find_components(tuple(literals(c, n + 1) for c in ints))
            assert {frozenset(literals(c, n + 1) for c in comp) for comp in comps} == {
                frozenset(comp) for comp in ref
            }
            assert len(comps) == len(ref)
            assert all(list(comp) == sorted(comp) for comp in comps)
            assert smallest_vars(comps, n + 1) == sorted(smallest_vars(comps, n + 1))
            counts = Counter(abs(l) for c in ints for l in literals(c, n + 1))
            first = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            best = max(counts, key=lambda v: (v in first, counts[v], -v))
            assert decide(masks, sum(1 << v for v in first)) == 1 << best
            multi += len(comps) >= 3
        assert multi >= 50


class TestSameSearch:
    """pf and pkb DAG sizes of a fixed set of networks, recorded before
    clauses became ints: the search must make the same decisions, splits
    and cache hits.  The CNF texts those searches start from, and the DAG
    texts they end at, are pinned too, by hash.  Binary and multi-valued networks on the fine degree
    pool, and multi-valued ones on the nine-level scale, whose pkb CNFs
    are stratified."""

    SIZES = {  # name: ((pf nodes, pf edges), (pkb nodes, pkb edges))
        "alarm": ((47, 61), (27, 34)),
        "binary-1": ((341, 566), (202, 295)),
        "binary-2": ((153, 189), (110, 139)),
        "binary-3": ((167, 212), (113, 141)),
        "binary-4": ((210, 303), (149, 209)),
        "multi-1": ((348, 574), (337, 563)),
        "multi-2": ((315, 525), (303, 511)),
        "multi-3": ((458, 792), (695, 1338)),
        "multi-4": ((1024, 2000), (1012, 1985)),
        "nine-1": ((308, 525), (275, 548)),
        "nine-2": ((290, 510), (212, 373)),
        "nine-3": ((389, 707), (529, 1130)),
        "nine-4": ((836, 1839), (659, 1465)),
    }

    @staticmethod
    def network(name, alarm):
        if name == "alarm":
            return alarm
        kind, seed = name.split("-")
        if kind == "binary":
            return random_network(GenConfig(n_nodes=12, seed=int(seed)))
        pool = even_pool(9) if kind == "nine" else even_pool(FINE_POOL_SIZE)
        return random_network(
            GenConfig(n_nodes=8, seed=int(seed), binary_only=False, degree_pool=pool)
        )

    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_dag_sizes(self, name, alarm):
        net = self.network(name, alarm)
        pf_cnf = encode_pf(net, True)
        pkb_cnf = encode_pkb(net)
        assert bool(stratified_levels(pkb_cnf)) == name.startswith("nine")
        stats = [nnf_stats(compile_cnf(f)) for f in (pf_cnf, pkb_cnf)]
        assert tuple((s["nodes"], s["edges"]) for s in stats) == self.SIZES[name]

    DIMACS = {  # name: sha256 prefixes of to_dimacs for (pf local, pf plain, pkb)
        "alarm": ("bbf839026450e28d", "c7e5bb404a0e6f94", "69775316767409ca"),
        "binary-1": ("f37e2ab71e7d63e2", "d9d44a318d9a23c9", "8c94541fb76b7408"),
        "binary-2": ("3dd5a89cae9dd0fe", "f82f7ce2d65676bc", "141f254ea9a7ddcb"),
        "binary-3": ("d978230644c7878e", "595864f028216c69", "a8b536f778ddc41e"),
        "binary-4": ("8cbd86e3a91b14ff", "43cd77db4d5e2cf7", "0fc3d76e24bfa377"),
        "multi-1": ("9b651b627e0f582e", "fbbbf6af1df47088", "168aca9f0e0ec0eb"),
        "multi-2": ("5743f0f4e391e8b8", "bfc1e9412d421e65", "3e4cd84e2e520a9b"),
        "multi-3": ("e7ecbeecf35bd2ed", "2da40e8eb1cf923e", "f97b3a9814417693"),
        "multi-4": ("16fe7748e9b6f11e", "4434699a2326adcf", "cacfb6874fa333f6"),
        "nine-1": ("b6cd48eae1808155", "2857412fb963f190", "76c3cc23ae6b10a3"),
        "nine-2": ("9ad01163391e7b47", "8fc7141654b030bb", "3191097acb2d0517"),
        "nine-3": ("edf3aad41d9e14cb", "7f251da68cf1f71e", "df7d08300ba0526b"),
        "nine-4": ("181d84c7e8b81224", "3041919982a03a1b", "8d51a32b001e606b"),
    }

    @pytest.mark.parametrize("name", sorted(DIMACS))
    def test_cnf_text(self, name, alarm):
        """The encoders write, byte for byte, the CNFs they wrote when the
        hashes were recorded; an encoding changed on purpose records new
        ones."""
        net = self.network(name, alarm)
        cnfs = (encode_pf(net, True), encode_pf(net, False),
                encode_pkb(net))
        digests = tuple(hashlib.sha256(to_dimacs(f).encode()).hexdigest()[:16] for f in cnfs)
        assert digests == self.DIMACS[name]

    NNF = {  # name: sha256 prefixes of write_nnf of the compiled (pf local, pf plain, pkb)
        "alarm": ("6f516d1cd0008bad", "07f8dc21d6585027", "e64c71a374e09123"),
        "binary-1": ("1db187c02793be43", "f042c12aca300346", "54ef959a4df230b2"),
        "binary-2": ("8e50b15547f5f77e", "2548d2a8736f1483", "d5600d6a885546f6"),
        "binary-3": ("02206a48efdcabc5", "71c8d35937ed3700", "0408861f5fa7d9b1"),
        "binary-4": ("4f173045981a2555", "75aeeec64585154a", "8f060ae785c8b1ef"),
        "multi-1": ("d8ad81f13855227e", "10ce9d44e50e1645", "608bbd9a76c2f480"),
        "multi-2": ("8de5231cb6058707", "84c34247e09d8d8b", "f32f112c8e10e034"),
        "multi-3": ("34021d64b9c8767f", "2514b1e59a44ae01", "7f92dd1991df51e7"),
        "multi-4": ("70b13c2d6891e611", "91cfd9df586b8a4e", "069c3ef1279a0b30"),
        "nine-1": ("dd09e5ce246b04e6", "10ce9d44e50e1645", "1d741712adc366c1"),
        "nine-2": ("d632029f92eda0c9", "84c34247e09d8d8b", "21a3d92bf6d09ea9"),
        "nine-3": ("bdffd20b222a8287", "2514b1e59a44ae01", "c5e8368783d54b92"),
        "nine-4": ("d9051ce02a8d8480", "91cfd9df586b8a4e", "9ffe67f043a336ec"),
    }

    @pytest.mark.parametrize("name", sorted(NNF))
    def test_dag_text(self, name, alarm):
        """The compiler writes, byte for byte, the DAGs it wrote when the
        hashes were recorded."""
        net = self.network(name, alarm)
        cnfs = (encode_pf(net, True), encode_pf(net, False),
                encode_pkb(net))
        digests = tuple(
            hashlib.sha256(write_nnf(compile_cnf(f)).encode()).hexdigest()[:16] for f in cnfs
        )
        assert digests == self.NNF[name]

    CIRCUIT = {  # name: sha256 prefixes of write_nnf of PfPipeline(net, local).circuit (local, plain)
        "alarm": ("89a3cd6e494a6f15", "2ba4d3cb647e9064"),
        "binary-1": ("a15401459cb84b71", "83fef5ec37e4b634"),
        "binary-2": ("97bbcfc60af0d85f", "44d60d76214e4def"),
        "binary-3": ("48c06895bac0d542", "f7fa94b4def3925b"),
        "binary-4": ("f8e764227ef1d6c2", "39223a187b1db95e"),
        "multi-1": ("c6cad818700f42c7", "b432e4de2acf3159"),
        "multi-2": ("5a30fbcecf853b56", "c2fa4c6968337476"),
        "multi-3": ("4e78188dd398dd23", "262501a6ee0e3995"),
        "multi-4": ("f4a57d963b1243fb", "0a6a949744860efc"),
        "nine-1": ("a14f7de799a44539", "b432e4de2acf3159"),
        "nine-2": ("1cc1393059b2c291", "c2fa4c6968337476"),
        "nine-3": ("e9fedd1ce90fd882", "262501a6ee0e3995"),
        "nine-4": ("c71e9d0354fbbad1", "0a6a949744860efc"),
    }

    @pytest.mark.parametrize("name", sorted(CIRCUIT))
    def test_circuit_text(self, name, alarm):
        """pf pipelines keep, byte for byte, the circuits recorded when each
        was the compiled DAG rewritten with every negative literal True."""
        net = self.network(name, alarm)
        digests = tuple(
            hashlib.sha256(write_nnf(PfPipeline(net, local).circuit).encode()).hexdigest()[:16]
            for local in (True, False)
        )
        assert digests == self.CIRCUIT[name]

    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_dimacs_route(self, name, alarm):
        """A pipeline's CNF, written to DIMACS and read back, compiles to the
        pipeline's own kb DAG and pf circuits, and its roles give the
        pipelines' query weights: pf's parameter degrees and indicator ids,
        and logical's theta weights, 1 - w for each level of weight w."""
        net = self.network(name, alarm)
        kb = PkbPipeline(net)
        assert write_nnf(compile_cnf(parse_dimacs(to_dimacs(kb.cnf)))) == write_nnf(kb.dag)
        for local in (True, False):
            pf = PfPipeline(net, local)
            f = parse_dimacs(to_dimacs(pf.cnf))
            negative = range(-1, -f.num_vars - 1, -1)
            assert write_nnf(compile_cnf(f, weight_one=negative)) == write_nnf(pf.circuit)
            roles = list(enumerate(f.roles, start=1))
            assert pf.weight_map and pf.weight_map == {
                vid: r.degree for vid, r in roles if isinstance(r, Parameter)
            }
            assert pf.indicators == {
                (r.var, r.value): vid for vid, r in roles if isinstance(r, Indicator)
            }
        lp = LogicalPipeline(net)
        levels = level_vars(parse_dimacs(to_dimacs(lp.cnf)))
        assert lp.theta_weights and lp.theta_weights == {vid: complement(w) for vid, w in levels}


class TestBudget:
    def test_budget_failure_is_loud(self):
        f = formula(12, [[i, i + 1] for i in range(1, 12)])
        with pytest.raises(CompileBudgetError):
            compile_cnf(f, node_budget=3)

    @pytest.mark.parametrize(
        "case, pool",
        [("chain", 58), ("pf-local", 47), ("pf-plain", 71), ("kb-alarm", 27), ("kb-nine", 275)],
    )
    def test_smallest_budget_is_the_pool_size(self, alarm, case, pool):
        """A budget bounds the pool, unreachable nodes included and the
        constants excluded, so the smallest budget that compiles is the
        final pool size wherever the check runs.  The kb cases are the
        alarm base and a stratified base on the nine-level scale."""
        if case == "chain":
            f = formula(12, [[i, i + 1] for i in range(1, 12)])
        elif case == "kb-alarm":
            f = encode_pkb(alarm)
        elif case == "kb-nine":
            f = encode_pkb(random_network(
                GenConfig(n_nodes=8, seed=1, binary_only=False, degree_pool=even_pool(9))
            ))
            assert stratified_levels(f)
        else:
            f = encode_pf(alarm, case == "pf-local")
        compile_cnf(f, node_budget=pool)
        with pytest.raises(CompileBudgetError):
            compile_cnf(f, node_budget=pool - 1)

    def test_pf_budget_bounds_the_circuit(self, alarm):
        """The smallest budget that builds a pf pipeline is the node count of
        the circuit its program is built from."""
        circuit = PfPipeline(alarm).circuit
        assert circuit.node_count() == 32
        PfPipeline(alarm, node_budget=32)
        with pytest.raises(CompileBudgetError):
            PfPipeline(alarm, node_budget=31)

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
