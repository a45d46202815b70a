"""Top-down CNF-to-decomposable-NNF compiler.

The engine branches exhaustively on decision variables, with three
standard accelerators: unit propagation at every step, splitting of the
residual clause set into variable-disjoint connected components compiled
independently and joined under And, and a cache keyed by the canonical
form of residual clause sets so equal subproblems compile once.

Every clause set handed to a subproblem is canonical, so propagation
returns a set without a unit clause as it is.  One pass over the
residual (``split``) does both the component split and the occurrence
counts: each clause's variable bitmask merges the groups it meets, and
the components come out ordered by their smallest variable.  Decision
variable choice is most-occurrences-first over the residual clauses,
ties broken by smallest variable id, which keeps runs fully
deterministic.  The formula itself names the variables decided before
all others: the level variables of a stratified base
(``cnf.stratified_levels``), which the same rule orders among
themselves; other formulas have none.  So a CNF compiles the same from a
pipeline or from its DIMACS file.  Output DAGs are decomposable and
deterministic by construction (every Or is a binary decision node).

The search runs without recursion: each subproblem is a generator that
yields its child clause sets and receives their node ids, and one loop
drives an explicit stack of them, so compilation depth is bounded by
memory, not by the interpreter's recursion limit.

Resource discipline: when the node pool would exceed the configured
budget the run fails loudly with CompileBudgetError; a wrong or
truncated DAG is never returned.  The subproblem cache is cleared when
it reaches ``CACHE_CAP`` entries, which affects speed only.
"""

from __future__ import annotations

from .cnf import CnfFormula, stratified_levels
from .errors import CompileBudgetError
from .nnf import NnfBuilder, NnfDag

DEFAULT_NODE_BUDGET = 1_000_000
CACHE_CAP = 500_000

ClauseSet = tuple  # sorted tuple of sorted literal tuples


def split(clauses: ClauseSet) -> tuple[list[ClauseSet], dict[int, int]]:
    """A canonical clause set's variable-disjoint components, ordered by
    smallest variable, and each variable's occurrence count, in one pass
    that merges every group whose variable bitmask meets the clause's."""
    counts: dict[int, int] = {}
    masks: list[int] = []
    groups: list[int] = []
    for c in clauses:
        m = 0
        for l in c:
            v = abs(l)
            m |= 1 << v
            counts[v] = counts.get(v, 0) + 1
        masks.append(m)
        rest = []
        for g in groups:
            if g & m:
                m |= g
            else:
                rest.append(g)
        rest.append(m)
        groups = rest
    if len(groups) < 2:
        return [clauses], counts
    groups.sort(key=lambda g: g & -g)
    return [tuple(c for c, m in zip(clauses, masks) if m & g) for g in groups], counts


def compile_cnf(f: CnfFormula, node_budget: int = DEFAULT_NODE_BUDGET) -> NnfDag:
    """Compile a CNF into an equivalent decomposable, deterministic DAG,
    deciding the variables ``stratified_levels(f)`` names before any other."""
    first = stratified_levels(f)
    builder = NnfBuilder()
    cache: dict[ClauseSet, int] = {}
    budget_note = f"node budget {node_budget} exceeded"

    def check_budget() -> None:
        if builder.size > node_budget:
            raise CompileBudgetError(budget_note)

    def propagate(clauses: ClauseSet):
        """Unit propagation to fixpoint: (implied literals, canonical
        unit-free residual), or None on conflict.  A set without a unit
        clause is already canonical and comes back as it is."""
        units = [c[0] for c in clauses if len(c) == 1]
        if not units:
            return (), clauses
        true: set[int] = set()
        false: set[int] = set()
        implied: list[int] = []
        work = clauses
        while units:
            for l in units:
                if l in false:
                    return None
                if l not in true:
                    true.add(l)
                    false.add(-l)
                    implied.append(l)
            nxt = []
            for c in work:
                if not true.isdisjoint(c):
                    continue
                if not false.isdisjoint(c):
                    c = tuple(l for l in c if l not in false)
                    if not c:
                        return None
                nxt.append(c)
            work = nxt
            units = [c[0] for c in work if len(c) == 1]
        return tuple(implied), tuple(sorted(set(work)))

    def condition_set(clauses: ClauseSet, lit: int) -> ClauseSet:
        out = []
        for c in clauses:
            if lit in c:
                continue
            if -lit in c:
                c = tuple(l for l in c if l != -lit)
            out.append(c)
        return tuple(sorted(set(out)))

    def solve(clauses: ClauseSet):
        """One subproblem: yields each child clause set, receives its node
        id, and returns the subproblem's node id."""
        prop = propagate(clauses)
        if prop is None:
            return builder.false()
        implied, residual = prop
        lit_ids = [builder.literal(l) for l in implied]
        if not residual:
            return builder.conj(lit_ids)
        comps, counts = split(residual)
        if len(comps) > 1:
            parts = []
            for comp in comps:
                parts.append((yield comp))
            return builder.conj(lit_ids + parts)
        best = max(counts.items(), key=lambda kv: (kv[0] in first, kv[1], -kv[0]))[0]
        pos = yield condition_set(residual, best)
        neg = yield condition_set(residual, -best)
        node = builder.disj(
            [
                builder.conj([builder.literal(best), pos]),
                builder.conj([builder.literal(-best), neg]),
            ],
            decision=best,
        )
        return builder.conj(lit_ids + [node])

    start = tuple(sorted({c.literals for c in f.clauses}))
    if any(len(c) == 0 for c in start):
        return builder.freeze(builder.false(), f.num_vars)
    # reply carries a finished subproblem's id to its parent, and the
    # root's id once the stack is empty.
    check_budget()
    stack = [(start, solve(start))]
    reply = None
    while stack:
        clauses, task = stack[-1]
        try:
            child = task.send(reply)
        except StopIteration as done:
            stack.pop()
            if len(cache) >= CACHE_CAP:
                cache.clear()
            cache[clauses] = reply = done.value
            check_budget()
            continue
        check_budget()
        reply = cache.get(child)
        if reply is None:
            stack.append((child, solve(child)))
    return builder.freeze(reply, f.num_vars)
