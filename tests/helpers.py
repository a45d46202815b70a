"""Shared brute-force helpers for the test suite.

Everything here works by definition (explicit enumeration or per-literal
subcube masks) so it can serve as an independent oracle for the compiled
structures under test; ``model_mask`` is the one model-enumeration
reference.  The query references answer the logical and pkb
queries the rebuilding way (condition, forget, then a boolean or max-min
pass over the new DAG), as a cross-check of the one-pass query kernel.
The union-find component split is the reference for the compiler's
split, and a generator-per-node max-min pass is the reference for the
map-driven ``pi_evaluate``.
"""

from __future__ import annotations

import itertools
import random

from posskc.cnf import Clause, CnfFormula
from posskc.degrees import ONE, SCALE, ZERO, Degree, complement
from posskc.errors import SizeGuardError
from posskc.network import check_event, conflicts
from posskc.nnf import condition, forget, pi_evaluate


def all_assignments(n: int):
    """All total assignments over variables 1..n, lexicographic, False first."""
    for bits in itertools.product([False, True], repeat=n):
        yield {i + 1: bits[i] for i in range(n)}


def models_by_definition(f: CnfFormula) -> set:
    """Model set computed by checking every clause on every assignment."""
    out = set()
    for a in all_assignments(f.num_vars):
        if all(any(a[abs(l)] == (l > 0) for l in c) for c in f.clause_literals):
            out.add(tuple(a[i] for i in range(1, f.num_vars + 1)))
    return out


def interp_key(interp: dict, n: int) -> tuple:
    return tuple(interp[i] for i in range(1, n + 1))


def random_cnf(rng: random.Random, n_vars: int, n_clauses: int, max_len: int = 3) -> CnfFormula:
    """Random non-tautological CNF over exactly n_vars registered variables."""
    f = CnfFormula()
    for _ in range(n_vars):
        f.new_var()
    for _ in range(n_clauses):
        k = rng.randint(1, max_len)
        vs = rng.sample(range(1, n_vars + 1), min(k, n_vars))
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return f


def union_find_components(clauses: tuple) -> list[tuple]:
    """Variable-disjoint components of a clause set by union-find over its
    variables, each a subsequence of the input, in root order: a
    reference partition for ``compiler.split``, which orders them by
    smallest variable instead."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in clauses:
        vs = [abs(l) for l in c]
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list] = {}
    for c in clauses:
        groups.setdefault(find(abs(c[0])), []).append(c)
    return [tuple(g) for _, g in sorted(groups.items())]


def conditioned_models(f, term, n):
    """Models of f with the term's literals substituted (term vars free)."""
    base = models_by_definition(f)
    fixed = {abs(l): l > 0 for l in term}
    want = set()
    for a in all_assignments(n):
        b = dict(a)
        b.update(fixed)
        if tuple(b[i] for i in range(1, n + 1)) in base:
            want.add(tuple(a[i] for i in range(1, n + 1)))
    return want


ENUMERATION_GUARD = 24
"""model_mask refuses formulas with more variables than this."""


def subcube_patterns(n: int):
    """Bit patterns over all 2**n assignment indices, one per variable.

    Assignment index m encodes variable i as bit (n - i) of m, so
    ascending bit positions enumerate assignments in lexicographic order
    with variable 1 most significant and False before True.  Returns the
    all-ones mask and, per variable, the mask of the assignments that set
    it true.
    """
    total_bits = 1 << n
    full = (1 << total_bits) - 1
    pos = {}
    for i in range(1, n + 1):
        b = 1 << (n - i)
        unit = ((1 << b) - 1) << b
        pos[i] = (full // ((1 << (2 * b)) - 1)) * unit
    return full, pos


def model_mask(f: CnfFormula) -> int:
    """Model set of ``f`` as a bitmask over all 2**n assignments: the
    intersection of its clauses' subcube unions.  Exponential by design;
    refuses more than ENUMERATION_GUARD variables."""
    n = f.num_vars
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(f"model enumeration over {n} variables exceeds guard {ENUMERATION_GUARD}")
    full, pos = subcube_patterns(n)
    mask = full
    for c in f.clause_literals:
        cm = 0
        for l in c:
            cm |= pos[abs(l)] if l > 0 else (full ^ pos[abs(l)])
        mask &= cm
    return mask


def mask_models(mask: int, n: int):
    """The assignments in a model bitmask as bool tuples over variables
    1..n, in lexicographic order."""
    while mask:
        lsb = mask & -mask
        m = lsb.bit_length() - 1
        yield tuple(bool((m >> (n - i)) & 1) for i in range(1, n + 1))
        mask ^= lsb


def enumerate_models(f: CnfFormula):
    """The satisfying total interpretations of ``f`` (variable id ->
    bool), in lexicographic order."""
    for bits in mask_models(model_mask(f), f.num_vars):
        yield dict(enumerate(bits, start=1))


def dag_model_mask(dag, n_vars: int) -> int:
    """Model set of an NNF DAG as a bitmask, one bottom-up bigint pass."""
    full, pos = subcube_patterns(n_vars)
    val = [0] * len(dag.nodes)
    for i, (op, arg, kids) in enumerate(dag.nodes):
        if op == "L":
            v = abs(arg)
            val[i] = pos[v] if arg > 0 else (full ^ pos[v])
        elif op == "A":
            acc = full
            for c in kids:
                acc &= val[c]
            val[i] = acc
        elif op == "O":
            acc = 0
            for c in kids:
                acc |= val[c]
            val[i] = acc
        else:
            raise TypeError(f"unknown node {(op, arg, kids)!r}")
    return val[dag.root]


def dag_model_set(dag, n_vars: int) -> set:
    """Model set of an NNF DAG over variables 1..n_vars as bool tuples."""
    return set(mask_models(dag_model_mask(dag, n_vars), n_vars))


def dag_satisfied_by(dag, assignment: dict) -> bool:
    val: list[bool] = [False] * len(dag.nodes)
    for i, (op, arg, kids) in enumerate(dag.nodes):
        if op == "L":
            val[i] = assignment[abs(arg)] == (arg > 0)
        elif op == "A":
            val[i] = all(val[c] for c in kids)
        elif op == "O":
            val[i] = any(val[c] for c in kids)
        else:
            raise TypeError(f"unknown node {(op, arg, kids)!r}")
    return val[dag.root]


def clause_holds_on(models: set, clause: Clause, n_vars: int) -> bool:
    """Whether every model (as a bool tuple) satisfies the clause."""
    for m in models:
        if not any(m[abs(l) - 1] == (l > 0) for l in clause):
            return False
    return True


def boolean_consistent(dag) -> bool:
    """Satisfiability by a bottom-up and/or pass over booleans (valid on
    decomposable DAGs); independent of the max-min kernel."""
    sat = [False] * len(dag.nodes)
    for i, (op, _, kids) in enumerate(dag.nodes):
        if op == "L":
            sat[i] = True
        elif op == "A":
            sat[i] = all(sat[c] for c in kids)
        elif op == "O":
            sat[i] = any(sat[c] for c in kids)
    return sat[dag.root]


def _rebuild_entails(dag, clause: Clause) -> bool:
    if clause.is_tautology():
        return True
    return not boolean_consistent(condition(dag, [-l for l in clause]))


def reference_pi_evaluate(d, w) -> Degree:
    """Max-min evaluation with one generator per And/Or node: And is min
    (empty And 1), Or is max (empty Or 0), unlisted literals weigh 1."""
    weights = {lit: deg.num for lit, deg in w.items()}
    val = [0] * len(d.nodes)
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            val[i] = weights.get(arg, SCALE)
        elif op == "A":
            val[i] = min((val[c] for c in kids), default=SCALE)
        else:
            val[i] = max((val[c] for c in kids), default=0)
    return Degree(val[d.root])


def reference_explore(compiled, logical, term):
    """Logical Pi(term) by rebuilding: condition the DAG on the term,
    forget the instance layer, then evaluate the theta weights of the
    built ``LogicalPipeline``."""
    check_event(logical.imap.net, term)
    conditioned = condition(compiled, logical.imap.term_literals(term))
    projected = forget(conditioned, logical.imap.all_vars())
    return pi_evaluate(projected, logical.theta_weights)


def reference_query_detail(kb, x, e):
    """The pkb stratum descent by rebuilding: each activated stratum
    conditions its level variable away in a new DAG, and each check
    conditions that DAG again.  Returns (degree, iterations)."""
    check_event(kb.net, x)
    check_event(kb.net, e)
    e_lits = kb.imap.term_literals(e)
    x_lits = kb.imap.term_literals(x)
    not_e = [-l for l in e_lits]
    not_x = Clause([-l for l in x_lits])
    if not boolean_consistent(condition(kb.dag, e_lits)):
        return ONE, 0
    if conflicts(x, e) or not boolean_consistent(
        condition(kb.dag, sorted(set(e_lits + x_lits)))
    ):
        return ZERO, 0
    k = kb.dag
    iterations = 0
    for level_id, weight in kb.level_vars:
        iterations += 1
        if _rebuild_entails(k, Clause([level_id, *not_e])):
            return ONE, iterations
        k = condition(k, [-level_id])
        if _rebuild_entails(condition(k, e_lits), not_x):
            return complement(weight), iterations
    return ONE, iterations
