"""Top-down CNF-to-decomposable-NNF compiler.

The engine branches exhaustively on decision variables, with three
standard accelerators: unit propagation at every step, splitting of the
residual clause set into variable-disjoint connected components compiled
independently and joined under And, and a cache keyed by the canonical
form of residual clause sets so equal subproblems compile once.

Decision variable choice is most-occurrences-first over the residual
clauses, ties broken by smallest variable id, which keeps runs fully
deterministic.  Output DAGs are decomposable and deterministic by
construction (every Or is a binary decision node).

Resource discipline: when the node pool would exceed the configured
budget the run fails loudly with CompileBudgetError; a wrong or
truncated DAG is never returned.  The subproblem cache is cleared when
it exceeds its entry cap, which affects speed only.
"""

from __future__ import annotations

import sys
from collections import Counter

from .cnf import CnfFormula
from .errors import CompileBudgetError
from .nnf import NnfBuilder, NnfDag

DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_CACHE_CAP = 500_000

ClauseSet = tuple  # sorted tuple of sorted literal tuples


def compile_cnf(
    f: CnfFormula,
    node_budget: int = DEFAULT_NODE_BUDGET,
    cache_cap: int = DEFAULT_CACHE_CAP,
) -> NnfDag:
    """Compile a CNF into an equivalent decomposable, deterministic DAG."""
    builder = NnfBuilder()
    cache: dict[ClauseSet, int] = {}
    budget_note = f"node budget {node_budget} exceeded"

    def check_budget() -> None:
        if builder.size > node_budget:
            raise CompileBudgetError(budget_note)

    def propagate(clauses: ClauseSet):
        """Unit propagation to fixpoint.

        Returns (implied literal tuple, residual clause set) or None on
        conflict.  The residual is canonical and unit-free.
        """
        assigned: dict[int, bool] = {}
        work = list(clauses)
        implied: list[int] = []
        while True:
            units = []
            for c in work:
                if len(c) == 1:
                    units.append(c[0])
            if not units:
                break
            for l in units:
                v = abs(l)
                want = l > 0
                prev = assigned.get(v)
                if prev is not None and prev != want:
                    return None
                if prev is None:
                    assigned[v] = want
                    implied.append(l)
            nxt = []
            for c in work:
                keep: list[int] = []
                satisfied = False
                for l in c:
                    val = assigned.get(abs(l))
                    if val is None:
                        keep.append(l)
                    elif val == (l > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not keep:
                    return None
                nxt.append(tuple(keep))
            work = nxt
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

    def components(clauses: ClauseSet) -> list[ClauseSet]:
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

    def solve(clauses: ClauseSet) -> int:
        check_budget()
        hit = cache.get(clauses)
        if hit is not None:
            return hit
        prop = propagate(clauses)
        if prop is None:
            result = builder.false()
            cache[clauses] = result
            return result
        implied, residual = prop
        lit_ids = [builder.literal(l) for l in implied]
        if not residual:
            result = builder.conj(lit_ids)
        else:
            comps = components(residual)
            if len(comps) > 1:
                parts = [solve(comp) for comp in comps]
                result = builder.conj(lit_ids + parts)
            else:
                counts: Counter = Counter()
                for c in residual:
                    for l in c:
                        counts[abs(l)] += 1
                best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
                pos = solve(condition_set(residual, best))
                neg = solve(condition_set(residual, -best))
                node = builder.disj(
                    [
                        builder.conj([builder.literal(best), pos]),
                        builder.conj([builder.literal(-best), neg]),
                    ],
                    decision=best,
                )
                result = builder.conj(lit_ids + [node])
        if len(cache) >= cache_cap:
            cache.clear()
        cache[clauses] = result
        check_budget()
        return result

    start = tuple(sorted({c.literals for c in f.clauses}))
    if any(len(c) == 0 for c in start):
        root = builder.false()
    else:
        old_limit = sys.getrecursionlimit()
        need = 4 * f.num_vars + 1000
        try:
            if old_limit < need:
                sys.setrecursionlimit(need)
            root = solve(start)
        finally:
            sys.setrecursionlimit(old_limit)
    return builder.freeze(root, f.num_vars)
