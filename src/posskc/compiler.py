"""Top-down CNF-to-decomposable-NNF compiler.

The engine branches exhaustively on decision variables, with three
standard accelerators: unit propagation at every step, splitting of the
residual clause set into variable-disjoint connected components compiled
independently and joined under And, and a cache keyed by the canonical
form of residual clause sets so equal subproblems compile once.

A residual clause is one int: bit ``v`` stands for ``+v`` and bit
``v + S`` for ``-v``, with ``S = num_vars + 1``.  A clause set, and so a
cache key, is a sorted tuple of distinct clause ints.  A clause is a
unit when one bit is set; propagation and conditioning drop the clauses
that meet a mask of true literals and clear a mask of false ones; a
clause's variable mask is ``(c | c >> S)`` cut to its low ``S`` bits.
``split`` grows each component from those masks, and components come
out ordered by their smallest variable.  Decision variable choice is
most-occurrences-first over the residual clauses, ties broken by
smallest variable id, which keeps runs fully deterministic.  The formula
itself names the variables decided before all others: the level
variables of a stratified base (``cnf.stratified_levels``), which the
same rule orders among themselves.  So a CNF compiles the same from a
pipeline or from its DIMACS file.  Output DAGs are decomposable and
deterministic by construction: every Or is a binary decision node, built
with its two Ands in one ``NnfBuilder.decision`` call.  A caller that
weighs some literals 1 may name them (``weight_one``): the same search
has the builder build each as True, and the Ors deciding their variables
carry no decision label.  That circuit is no d-DNNF of the CNF, but has
its DAG's max-min value under every weight map leaving those unlisted.

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

from typing import Iterable

from .cnf import CnfFormula, stratified_levels
from .errors import CompileBudgetError
from .nnf import FALSE, NnfBuilder, NnfDag

DEFAULT_NODE_BUDGET = 1_000_000
CACHE_CAP = 500_000

ClauseSet = tuple  # sorted tuple of distinct clause ints


def clause_bits(literals: Iterable[int], shift: int) -> int:
    """A clause as one int: bit ``v`` for ``+v``, bit ``v + shift`` for ``-v``."""
    bits = 0
    for l in literals:
        bits |= 1 << (l if l > 0 else shift - l)
    return bits


def split(clauses: ClauseSet, masks: list[int]) -> list[ClauseSet]:
    """A canonical clause set's variable-disjoint components, ordered by
    smallest variable, given each clause's variable mask.  Each component
    grows from the first clause left, by sweeps that take every clause
    whose mask meets it, until a sweep takes none; sorting a component's
    clauses restores their order."""
    comps: list[tuple[int, list[int]]] = []
    rest = list(zip(masks, clauses))
    while rest:
        group = rest[0][0]
        taken: list[int] = []
        size = 0
        while size != len(rest):
            size = len(rest)
            left, rest = rest, []
            for p in left:
                if p[0] & group:
                    group |= p[0]
                    taken.append(p[1])
                else:
                    rest.append(p)
        comps.append((group & -group, taken))
    if len(comps) < 2:
        return [clauses]
    comps.sort()
    return [tuple(sorted(taken)) for _, taken in comps]


def decide(masks: list[int], first: int) -> int:
    """The decision variable's bit among the clauses' variable masks: a
    variable of ``first`` if any occurs, then the most occurrences, then
    the smallest id.  Occurrences are counted in binary, one mask per
    digit."""
    digits: list[int] = []
    seen = 0
    for carry in masks:
        seen |= carry
        for i, d in enumerate(digits):
            digits[i] = d ^ carry
            carry &= d
            if not carry:
                break
        else:
            digits.append(carry)
    best = seen & first or seen
    for d in reversed(digits):
        if best & d:
            best &= d
    return best & -best


def compile_cnf(
    f: CnfFormula, node_budget: int = DEFAULT_NODE_BUDGET, weight_one: Iterable[int] = ()
) -> NnfDag:
    """Compile a CNF into an equivalent decomposable, deterministic DAG,
    deciding the variables ``stratified_levels(f)`` names before any other
    (or, given ``weight_one``, into the circuit the module docstring names)."""
    shift = f.num_vars + 1
    low = (1 << shift) - 1
    first = clause_bits(stratified_levels(f), shift)
    weight_one = tuple(weight_one)
    builder = NnfBuilder(weight_one)
    cache: dict[ClauseSet, int] = {}
    unlabelled = clause_bits(weight_one, shift)
    unlabelled = (unlabelled | unlabelled >> shift) & low

    def literal(bit: int) -> int:
        v = bit.bit_length() - 1
        return builder.literal(v if v < shift else shift - v)

    def propagate(clauses: ClauseSet):
        """Unit propagation to fixpoint: (implied literal bits, canonical
        unit-free residual), or None on conflict.  A set without a unit
        clause is already canonical and comes back as it is."""
        units = [c for c in clauses if not c & (c - 1)]
        if not units:
            return (), clauses
        true = false = 0
        implied: list[int] = []
        work = clauses
        while units:
            for u in units:
                if not u & ~false:  # empty, or its literal is false
                    return None
                if not u & true:
                    true |= u
                    false |= u << shift if u <= low else u >> shift
                    implied.append(u)
            keep = ~false
            work = [c & keep for c in work if not c & true]
            units = [c for c in work if not c & (c - 1)]
        return implied, tuple(sorted(set(work)))

    def condition_set(clauses: ClauseSet, pos: int, neg: int) -> ClauseSet:
        keep = ~neg
        return tuple(sorted({c & keep for c in clauses if not c & pos}))

    def solve(clauses: ClauseSet, connected: bool):
        """One subproblem: yields each child clause set, with whether it is
        a component, receives its node id, and returns the subproblem's
        node id.  A component is connected and unit-free, so propagation
        and splitting would return it unchanged: it goes straight to its
        decision."""
        units: list[int] = []
        residual = clauses
        if not connected:
            prop = propagate(clauses)
            if prop is None:
                return FALSE
            implied, residual = prop
            units = [literal(u) for u in implied]
            if not residual:
                return builder.conj(units)
        masks = [(c | c >> shift) & low for c in residual]
        if not connected:
            comps = split(residual, masks)
            if len(comps) > 1:
                parts = []
                for comp in comps:
                    parts.append((yield comp, True))
                return builder.conj(units + parts)
        pos = decide(masks, first)
        neg = pos << shift
        hi = yield condition_set(residual, pos, neg), False
        lo = yield condition_set(residual, neg, pos), False
        var = pos.bit_length() - 1
        node = builder.decision(var, hi, lo, 0 if pos & unlabelled else var)
        return builder.conj(units + [node]) if units else node

    start = tuple(sorted({clause_bits(lits, shift) for lits in f.clause_literals}))
    if start[:1] == (0,):
        return builder.freeze(FALSE, f.num_vars)
    # reply carries a finished subproblem's id to its parent, and the
    # root's id once the stack is empty.  The pool only grows, so checking
    # it once per finished subproblem raises for the same budgets.
    stack = [(start, solve(start, False))]
    reply = None
    while stack:
        clauses, task = stack[-1]
        try:
            child, connected = task.send(reply)
        except StopIteration as done:
            stack.pop()
            if len(cache) >= CACHE_CAP:
                cache.clear()
            cache[clauses] = reply = done.value
            if len(builder.nodes) > node_budget:
                raise CompileBudgetError(f"node budget {node_budget} exceeded")
        else:
            reply = cache.get(child)
            if reply is None:
                stack.append((child, solve(child, connected)))
    return builder.freeze(reply, f.num_vars)
