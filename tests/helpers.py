"""Shared brute-force helpers for the test suite.

Everything here works by definition (explicit enumeration or per-literal
subcube masks) so it can serve as an independent oracle for the compiled
structures under test; ``model_mask`` is the one model-enumeration
reference.  The query references answer the logical and pkb
queries the rebuilding way (condition, forget, then a boolean or max-min
pass over the new DAG), as a cross-check of the one-pass query kernel.
The union-find component split is the reference for the compiler's
split, and a generator-per-node max-min pass is the reference, node for
node, for the map-driven ``pi_evaluate`` and the pipelines' max-min
programs; ``pf_weights`` is the weight map a pf pass reads.  ``reference_kb_cnf`` encodes a
possibilistic base formula by formula, the reference for
``encode_pkb``'s one table walk, and ``canonical_clause`` is the
reference for the clause order ``CnfFormula.add_clause`` stores.

Two fixtures live here because only the tests read them:
``baseline_counts``, the sizes of the probability-style reference
encodings, and ``parse_base``, the reader of ``serialize_base``'s text,
which tests use to hand-write bases and to round-trip the writer.
"""

from __future__ import annotations

import itertools
import random

from posskc.cnf import CnfFormula, Level, stratified_levels
from posskc.degrees import ONE, SCALE, ZERO, Degree, complement, parse_degree
from posskc.encodings import InstanceMap
from posskc.errors import DegreeError, FormatError, SizeGuardError
from posskc.network import PossNetwork, check_event, conflicts
from posskc.nnf import condition, forget, pi_evaluate
from posskc.pkb import PossibilisticBase


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


def canonical_clause(literals) -> tuple[int, ...]:
    """The reference canonical clause order: repeats dropped, by variable,
    -v before +v.  ValueError on literal 0."""
    lits = tuple(sorted(set(literals), key=lambda l: (abs(l), l)))
    if 0 in lits:
        raise ValueError("0 is not a literal")
    return lits


def is_tautology(literals) -> bool:
    """Whether the clause holds some variable under both signs."""
    lits = set(literals)
    return any(-l in lits for l in lits)


def clause_holds_on(models: set, clause, n_vars: int) -> bool:
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


def _rebuild_entails(dag, clause: list[int]) -> bool:
    if is_tautology(clause):
        return True
    return not boolean_consistent(condition(dag, [-l for l in clause]))


def reference_node_values(d, w) -> list[int]:
    """Max-min evaluation with one generator per And/Or node: And is min
    (empty And 1), Or is max (empty Or 0), unlisted literals weigh 1.
    The value (a degree's numerator) of every node."""
    weights = {lit: deg.num for lit, deg in w.items()}
    val = [0] * len(d.nodes)
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            val[i] = weights.get(arg, SCALE)
        elif op == "A":
            val[i] = min((val[c] for c in kids), default=SCALE)
        else:
            val[i] = max((val[c] for c in kids), default=0)
    return val


def reference_pi_evaluate(d, w) -> Degree:
    """The root's degree under ``reference_node_values``."""
    return Degree(reference_node_values(d, w)[d.root])


def pf_weights(pf, term) -> dict:
    """A pf pass's weight map: the parameter degrees, plus weight 0 on each
    indicator the term excludes; the other indicators, and every negative
    literal, are unlisted, so they weigh 1."""
    w = dict(pf.weight_map)
    for (var, val), vid in pf.indicators.items():
        if var in term and term[var] != val:
            w[vid] = ZERO
    return w


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
    not_x = [-l for l in x_lits]
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
        if _rebuild_entails(k, [level_id, *not_e]):
            return ONE, iterations
        k = condition(k, [-level_id])
        if _rebuild_entails(condition(k, e_lits), not_x):
            return complement(weight), iterations
    return ONE, iterations


def reference_kb_cnf(base: PossibilisticBase) -> CnfFormula:
    """The knowledge-base CNF built formula by formula from a base: the
    instance propositions, one level variable per distinct sub-1 weight
    by descending weight, each weighted clause with its level variable,
    the hard clauses, the exactly-one clauses, and the ladder when
    ``stratified_levels`` reads the formula as stratified."""
    f = CnfFormula()
    for role in base.imap.roles:
        f.new_var(role)
    level = {w.num: f.new_var(Level(rank, w)) for rank, w in enumerate(base.levels, start=1)}
    for lits, weight in base.formulas:
        if weight.num == SCALE:
            f.add_clause(lits)
        else:
            f.add_clause([*lits, level[weight.num]])
    for c in base.imap.exactly_one_clauses():
        f.add_clause(c)
    if stratified_levels(f):
        ranked = list(level.values())
        for stronger, weaker in zip(ranked, ranked[1:]):
            f.add_clause([-stronger, weaker])
    return f


def baseline_counts(net: PossNetwork, scheme: str) -> dict:
    """CNF size of the probability-style reference encodings, by formula.

    circuit scheme: one indicator per value plus one parameter per entry
    with degree outside {0,1}; clauses are the exactly-one block plus the
    (m+2)-clause biconditional per such entry plus one hard clause per
    degree-0 entry.  logical scheme: one proposition per instance
    proposition plus one parameter per table entry, one clause per entry.
    """
    inst_props = sum(1 if len(v.domain) == 2 else len(v.domain) for v in net.variables)
    total_values = sum(len(v.domain) for v in net.variables)
    eo_clauses = sum(
        1 + len(v.domain) * (len(v.domain) - 1) // 2 for v in net.variables
    )
    all_entries = 0
    soft_entries = []  # (parent count,) per entry with degree outside {0,1}
    zero_entries = 0
    for v in net.variables:
        m = len(net.parents[v.name])
        for d in net.cpt[v.name].values():
            all_entries += 1
            if d == ZERO:
                zero_entries += 1
            elif d != ONE:
                soft_entries.append(m)
    if scheme == "circuit":
        return {
            "vars": total_values + len(soft_entries),
            "clauses": eo_clauses + sum(m + 2 for m in soft_entries) + zero_entries,
        }
    if scheme == "logical":
        return {"vars": inst_props + all_entries, "clauses": all_entries}
    raise ValueError(f"unknown baseline scheme {scheme!r}")


def parse_base(text: str, net: PossNetwork) -> PossibilisticBase:
    """Parse the base serialization against a known network."""
    imap = InstanceMap(net)
    formulas: list[tuple[tuple[int, ...], Degree]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, sep, rhs = line.rpartition(":")
        if not sep:
            raise FormatError(f"missing ':' separator: {line!r}", ln)
        try:
            weight = parse_degree(rhs.strip())
        except DegreeError as exc:
            raise FormatError(f"bad weight: {exc}", ln) from exc
        lits: list[int] = []
        for tok in lhs.split():
            negated = tok.startswith("!")
            body = tok[1:] if negated else tok
            var, sep2, val = body.partition("=")
            if not sep2:
                raise FormatError(f"bad literal token {tok!r}", ln)
            try:
                lit = imap.literals[(var, val)]
            except KeyError as exc:
                raise FormatError(f"unknown literal {tok!r}", ln) from exc
            lits.append(-lit if negated else lit)
        if is_tautology(lits):
            raise FormatError(f"tautological clause {lhs.strip()!r}", ln)
        if not weight.num:
            raise FormatError("weighted formulas carry nonzero weight", ln)
        formulas.append((canonical_clause(lits), weight))
    return PossibilisticBase(tuple(formulas), imap)
