"""NNF DAGs: builder simplification, max-min evaluation, conditioning,
forgetting, compiling weight-1 literals as True, smoothing, entailment,
serialization, and the structural property checks, all cross-checked
against brute-force semantics."""

import random
from itertools import product

import pytest

from posskc.cnf import CnfFormula
from posskc.compiler import compile_cnf
from posskc.degrees import Degree, ONE, ZERO, parse_degree
from posskc.errors import FormatError
from posskc.nnf import (
    FALSE,
    TRUE,
    NnfBuilder,
    NnfDag,
    condition,
    entails_clause,
    forget,
    is_consistent,
    nnf_stats,
    parse_nnf,
    pi_evaluate,
    smooth,
    structural_properties,
    write_nnf,
)

from helpers import (
    all_assignments,
    clause_holds_on,
    conditioned_models,
    dag_model_set,
    models_by_definition,
    random_cnf,
)

D = parse_degree


class TestBuilder:
    def test_empty_conj_is_true(self):
        b = NnfBuilder()
        d = b.freeze(b.conj([]), num_vars=0)
        assert pi_evaluate(d, {}) == ONE

    def test_empty_disj_is_false(self):
        b = NnfBuilder()
        d = b.freeze(b.disj([]), num_vars=0)
        assert pi_evaluate(d, {}) == ZERO

    def test_zero_is_not_a_literal(self):
        with pytest.raises(ValueError, match="^0 is not a literal$"):
            NnfBuilder().literal(0)

    def test_absorption(self):
        b = NnfBuilder()
        x = b.literal(1)
        assert b.conj([TRUE, x]) == x
        assert b.disj([FALSE, x]) == x
        assert b.conj([FALSE, x]) == FALSE
        assert b.disj([TRUE, x]) == TRUE
        assert b.nodes == [("L", 1, ())]  # the constants are never pooled

    def test_interning_shares_structure(self):
        b = NnfBuilder()
        a1 = b.conj([b.literal(1), b.literal(2)])
        a2 = b.conj([b.literal(2), b.literal(1)])
        assert a1 == a2

    @pytest.mark.parametrize("true_literals", [(), (-1,), (1,)], ids=["none", "neg", "pos"])
    def test_decision_is_the_disj_of_two_conjs(self, true_literals):
        """``decision`` returns the id, and leaves the pool node for node
        in the order, that the general ``disj``/``conj`` calls give, for
        every mix of constant, equal and distinct children in both
        orders; a negative literal built as True is the pf circuit's
        case."""
        def child(b, kind):
            return {"T": TRUE, "F": FALSE}[kind] if isinstance(kind, str) else b.literal(kind)

        for label in (0, 1):
            for hi, lo in product(("T", "F", 2, -3, 1, -1), repeat=2):
                got, want = NnfBuilder(true_literals), NnfBuilder(true_literals)
                kids = [(child(b, hi), child(b, lo)) for b in (got, want)]
                assert kids[0] == kids[1]
                b_hi, b_lo = kids[0]
                node = got.decision(1, b_hi, b_lo, label)
                ref = want.disj(
                    [want.conj([want.literal(1), b_hi]), want.conj([want.literal(-1), b_lo])],
                    label,
                )
                assert (node, got.nodes) == (ref, want.nodes)

    def test_freeze_drops_unreachable(self):
        b = NnfBuilder()
        b.conj([b.literal(1), b.literal(2)])
        lone = b.literal(3)
        d = b.freeze(lone, num_vars=3)
        assert nnf_stats(d) == {"nodes": 1, "edges": 0}


class TestEvaluate:
    def test_true_node(self):
        b = NnfBuilder()
        d = b.freeze(TRUE, num_vars=0)
        assert pi_evaluate(d, {}) == ONE

    def test_max_of_mins(self):
        b = NnfBuilder()
        root = b.disj([b.conj([b.literal(1)]), b.conj([b.literal(2)])])
        d = b.freeze(root, num_vars=2)
        w = {1: D("0.2"), 2: D("0.4")}
        assert pi_evaluate(d, w) == D("0.4")

    def test_unlisted_literals_weigh_one(self):
        b = NnfBuilder()
        d = b.freeze(b.conj([b.literal(1), b.literal(-2)]), num_vars=2)
        assert pi_evaluate(d, {1: D("0.7")}) == D("0.7")

    def test_matches_max_over_models(self):
        """On decomposable DAGs with neutral negative literals the
        evaluation equals max over models of min over true literals."""
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 6)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            d = compile_cnf(f)
            w = {v: D(f"0.{rng.randint(1, 9)}") for v in range(1, n + 1)}
            best = None
            for m in models_by_definition(f):
                worst = ONE
                for i, bit in enumerate(m, start=1):
                    if bit:
                        worst = min(worst, w.get(i, ONE))
                best = worst if best is None else max(best, worst)
            expected = ZERO if best is None else best
            assert pi_evaluate(d, w) == expected


class TestConditionForget:
    def test_condition_true_stays_true(self):
        b = NnfBuilder()
        d = b.freeze(TRUE, num_vars=1)
        assert pi_evaluate(condition(d, [1]), {}) == ONE

    def test_condition_literal_to_false(self):
        b = NnfBuilder()
        d = b.freeze(b.literal(1), num_vars=1)
        assert not is_consistent(condition(d, [-1]))

    def test_condition_xor(self):
        f = CnfFormula()
        f.new_var(), f.new_var()
        f.add_clause([1, 2])
        f.add_clause([-1, -2])
        d = condition(compile_cnf(f), [1])
        assert dag_model_set(d, 2) == {(False, False), (True, False)}

    def test_condition_rejects_complementary(self):
        b = NnfBuilder()
        d = b.freeze(b.literal(1), num_vars=1)
        with pytest.raises(ValueError):
            condition(d, [1, -1])

    def test_forget_own_variable(self):
        b = NnfBuilder()
        d = b.freeze(b.literal(1), num_vars=1)
        assert dag_model_set(forget(d, [1]), 1) == {(False,), (True,)}

    def test_forget_from_clause(self):
        f = CnfFormula()
        f.new_var(), f.new_var()
        f.add_clause([1, 2])
        g = forget(compile_cnf(f), [1])
        assert dag_model_set(g, 2) == {(False, False), (False, True), (True, False), (True, True)}

    def test_forget_nothing(self):
        f = CnfFormula()
        f.new_var(), f.new_var()
        f.add_clause([1, -2])
        d = compile_cnf(f)
        assert forget(d, []) is d

    def test_condition_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 8)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            d = compile_cnf(f)
            k = rng.randint(1, min(3, n))
            term = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), k)
            ]
            got = dag_model_set(condition(d, term), n)
            assert got == conditioned_models(f, term, n)

    def test_forget_matches_brute_force(self):
        """Forgetting is existential quantification: a model survives iff
        some completion over the forgotten variables was a model."""
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(2, 8)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            d = compile_cnf(f)
            vs = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            got = dag_model_set(forget(d, vs), n)
            base = models_by_definition(f)
            want = set()
            for a in all_assignments(n):
                completions = []
                free = sorted(vs)
                for fill in product([False, True], repeat=len(free)):
                    b = dict(a)
                    b.update(dict(zip(free, fill)))
                    completions.append(tuple(b[i] for i in range(1, n + 1)))
                if any(c in base for c in completions):
                    want.add(tuple(a[i] for i in range(1, n + 1)))
            assert got == want

    def test_drop_literals_keeps_value_under_weight_one(self):
        """A literal compiled as weighing 1 becomes True, so the value is the
        same under every weight map that leaves those literals unlisted, and
        no Or decides such a literal's variable."""
        rng = random.Random(7)
        degrees = [ZERO, D("0.3"), D("0.6"), ONE]
        for _ in range(40):
            n = rng.randint(2, 8)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            d = compile_cnf(f)
            dropped = {v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n))}
            g = compile_cnf(f, weight_one=dropped)
            assert not any(op == "L" and lit in dropped for op, lit, _ in g.nodes)
            assert not any(op == "O" and abs(v) in map(abs, dropped) for op, v, _ in g.nodes)
            for _ in range(5):
                w = {
                    lit: rng.choice(degrees)
                    for v in range(1, n + 1)
                    for lit in (v, -v)
                    if lit not in dropped and rng.random() < 0.5
                }
                assert pi_evaluate(g, w) == pi_evaluate(d, w)

    def test_flags_after_transformations(self):
        f = CnfFormula()
        for _ in range(4):
            f.new_var()
        f.add_clause([1, 2, 3])
        f.add_clause([-2, 4])
        d = compile_cnf(f)
        c = structural_properties(condition(d, [1]))
        assert c["decomposable"] and c["deterministic"]
        g = structural_properties(forget(d, [2]))
        assert g["decomposable"] and not g["deterministic"]


class TestEntailment:
    def test_tautology_always_entailed(self):
        b = NnfBuilder()
        d = b.freeze(b.literal(1), num_vars=2)
        assert entails_clause(d, [2, -2])

    def test_empty_clause_iff_inconsistent(self):
        b = NnfBuilder()
        sat = b.freeze(b.literal(1), num_vars=1)
        assert not entails_clause(sat, [])
        b2 = NnfBuilder()
        unsat = b2.freeze(FALSE, num_vars=1)
        assert entails_clause(unsat, [])

    def test_zero_literal_rejected(self):
        b = NnfBuilder()
        d = b.freeze(b.literal(1), num_vars=1)
        for bad in ([0], [1, 0], (0, -1, 1)):
            with pytest.raises(ValueError, match="^0 is not a literal$"):
                entails_clause(d, bad)

    def test_repeated_literals_and_tuples(self):
        b = NnfBuilder()
        d = b.freeze(b.literal(1), num_vars=2)
        assert entails_clause(d, (1, 1, 2))
        assert not entails_clause(d, [2, 2])

    def test_matches_model_check(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 7)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            d = compile_cnf(f)
            models = models_by_definition(f)
            k = rng.randint(1, min(3, n))
            lits = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), k)
            ]
            assert entails_clause(d, lits) == clause_holds_on(models, lits, n)


class TestSmooth:
    def test_adds_missing_variable(self):
        f = CnfFormula()
        f.new_var(), f.new_var()
        f.add_clause([1, 2])
        d = compile_cnf(f)
        s = smooth(d)
        props = structural_properties(s)
        assert props["smooth"] and props["decomposable"]
        assert dag_model_set(s, 2) == dag_model_set(d, 2)

    def test_singleton_smoothing_keeps_determinism(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 8)
            f = random_cnf(rng, n, rng.randint(1, 2 * n))
            d = compile_cnf(f)
            s = smooth(d)
            props = structural_properties(s)
            assert props["smooth"] and props["decomposable"]
            assert props["deterministic"] == structural_properties(d)["deterministic"]
            assert dag_model_set(s, n) == dag_model_set(d, n)

    def test_already_smooth_unchanged(self):
        f = CnfFormula()
        f.new_var(), f.new_var()
        f.add_clause([1, 2])
        s1 = smooth(compile_cnf(f))
        s2 = smooth(s1)
        assert nnf_stats(s2) == nnf_stats(s1)


class TestSerialization:
    def test_stats_and_models_round_trip(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 8)
            f = random_cnf(rng, n, rng.randint(0, 2 * n))
            d = compile_cnf(f)
            text = write_nnf(d)
            g = parse_nnf(text)
            assert nnf_stats(g) == nnf_stats(d)
            assert dag_model_set(g, n) == dag_model_set(d, n)
            props = structural_properties(g)
            assert props["decomposable"] and props["deterministic"]
            assert write_nnf(g) == text

    @pytest.mark.parametrize(
        "const,line,value",
        [(TRUE, "A 0", ONE), (FALSE, "O 0 0", ZERO)],
        ids=["true", "false"],
    )
    def test_constant_dag(self, const, line, value):
        """True is the empty And and False the empty Or: they round-trip
        as c2d writes them, evaluate to 1 and 0, and every transform
        keeps them."""
        b = NnfBuilder()
        d = b.freeze(const, num_vars=2)
        text = f"nnf 1 0 2\n{line}\n"
        assert nnf_stats(d) == {"nodes": 1, "edges": 0}
        assert write_nnf(d) == text
        assert write_nnf(parse_nnf(text)) == text
        assert pi_evaluate(d, {}) == value
        assert is_consistent(d) == (value == ONE)
        for g in (condition(d, [1, -2]), forget(d, [1]), smooth(d)):
            assert write_nnf(g) == text

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_nnf("")
        with pytest.raises(FormatError):
            parse_nnf("nnf 1 0\nA 0\n")
        # a negative count is a malformed header, not a later range error
        for header in ("nnf 1 0 -1", "nnf 1 -1 1", "nnf -1 0 1"):
            with pytest.raises(FormatError, match="malformed NNF header") as exc:
                parse_nnf(header + "\nA 0\n")
            assert exc.value.line == 1
        with pytest.raises(FormatError):
            parse_nnf("nnf 1 0 1\nL 2\n")
        with pytest.raises(FormatError):
            parse_nnf("nnf 2 1 1\nL 1\nA 1 5\n")
        with pytest.raises(FormatError):
            parse_nnf("nnf 2 9 1\nL 1\nA 1 0\n")
        # And and Or lines share one check; an Or decision is a variable
        # id in 0..num_vars.
        head = "nnf 3 2 1\nL 1\nL -1\n"
        assert write_nnf(parse_nnf(head + "O 1 2 0 1\n")) == head + "O 1 2 0 1\n"
        for line, message in [
            ("A 2 0", "And child count mismatch"),
            ("O 1 2 0", "Or child count mismatch"),
            ("O 1 2 0 5", "Or child out of range"),
            ("O 2 2 0 1", "decision variable 2 out of range"),
            ("O -1 2 0 1", "decision variable -1 out of range"),
            ("O x", "malformed NNF node line"),
        ]:
            with pytest.raises(FormatError, match=message):
                parse_nnf(head + line + "\n")

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("nnf x 0 1\nA 0\n", "line 1: malformed NNF header: 'nnf x 0 1'", 1),
            ("nnf 0 0 0\n", "line 1: NNF must declare at least one node", 1),
            ("nnf 2 0 1\nA 0\n", "header declares 2 nodes, found 1", None),
            ("nnf 1 0 1\nX 0\n", "line 2: malformed NNF node line: 'X 0'", 2),
        ],
        ids=["header-not-integer", "zero-nodes", "node-count-mismatch", "unknown-op"],
    )
    def test_text_checks(self, text, message, line):
        with pytest.raises(FormatError) as exc:
            parse_nnf(text)
        assert str(exc.value) == message
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("c note\n\nnnf 1 0 1\nL 5\n", "line 4: literal 5 out of range", 4),
            ("c note\nnnf x 0 1\nA 0\n", "line 2: malformed NNF header: 'nnf x 0 1'", 2),
            ("\nnnf 0 0 0\n", "line 2: NNF must declare at least one node", 2),
            ("nnf 2 1 1\nL 1\nc mid-file\n\nA 1 5\n", "line 5: And child out of range: 'A 1 5'", 5),
        ],
        ids=["comment-and-blank-then-node", "comment-then-header", "blank-then-header", "mid-file"],
    )
    def test_errors_name_the_file_line(self, text, message, line):
        """Comments and blank lines count toward the line an error names."""
        with pytest.raises(FormatError) as exc:
            parse_nnf(text)
        assert str(exc.value) == message
        assert exc.value.line == line


class TestValidateProperties:
    def test_compiled_output_flags(self):
        f = CnfFormula()
        f.new_var(), f.new_var()
        f.add_clause([1, 2])
        props = structural_properties(compile_cnf(f))
        assert props["decomposable"]
        assert props["deterministic"]

    def test_shared_variable_not_decomposable(self):
        d = NnfDag(
            nodes=(("L", 1, ()), ("L", -1, ()), ("A", 0, (0, 1))), root=2, num_vars=1
        )
        assert not structural_properties(d)["decomposable"]

    def test_decision_whose_branches_do_not_split_is_not_deterministic(self):
        """An Or labelled 1 over the leaves 1 and 2: only one branch
        mentions variable 1, so the label does not make it deterministic."""
        d = NnfDag(nodes=(("L", 1, ()), ("L", 2, ()), ("O", 1, (0, 1))), root=2, num_vars=2)
        assert structural_properties(d) == {
            "decomposable": True,
            "deterministic": False,
            "smooth": False,
        }
        split = NnfDag(nodes=(("L", 1, ()), ("L", -1, ()), ("O", 1, (0, 1))), root=2, num_vars=1)
        assert structural_properties(split)["deterministic"]

    def test_or_without_decision_not_deterministic(self):
        b = NnfBuilder()
        root = b.disj([b.literal(1), b.literal(2)])
        d = b.freeze(root, num_vars=2)
        assert not structural_properties(d)["deterministic"]


class TestEvaluateWeightTypes:
    def test_true_false_conventions(self):
        b = NnfBuilder()
        root = b.disj([b.conj([b.literal(1), FALSE]), b.literal(2)])
        d = b.freeze(root, num_vars=2)
        assert pi_evaluate(d, {2: Degree(0)}) == ZERO
