"""Pipeline 3: possibilistic-knowledge-base compilation.

Every table entry with degree below 1 becomes a weighted clause (negate
the entry's value and its parent values) whose weight is one minus the
degree; the resulting base induces the same joint distribution as the
network.  Its CNF tags each weighted clause with a level variable shared
by all clauses of equal weight, and is written from the walk over the
tables (``encodings.table_entries``) without building the base, which
only ``serialize_base``, ``pi_sigma`` and a pipeline's ``base`` read.
Queries run level by level on the compiled DAG.  The logical method
reads the same compiled base, memoised per network (``compile_base``),
and weighs its level variables instead.  The memo keeps only what
queries read: the instance map, the level variables and the DAG; a
pipeline's ``base`` and ``cnf`` transform the network again.  A query
reads two strata off one check, whether strata 1..k refute a term
(stratum 0 is the hard knowledge alone): the evidence stratum i, the
least k that refutes the evidence, found by bisection once per evidence
term, and the target stratum j, the least k below i that refutes the
target and the evidence, found strongest first.  Pi(term) is the degree
of its least refuting stratum (0 for k = 0, one minus w_k, 1 when none
refutes it), and Pi(x|e) min-conditions j's degree on i's.  Each check is
one entailment pass over the compiled DAG, with the level variables of
strata 1..k added to the checked clause; the DAG is never rebuilt.

When the levels span several clauses each (a stratified base,
``cnf.stratified``), the CNF also chains the level variables into a
ladder, strongest first, and the compiler, reading the same rule off the
CNF (``cnf.stratified_levels``), decides them before any instance
variable, so each branch leaves a hard instance CNF that splits along
the network.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .cnf import CnfFormula, Level, stratified
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import SCALE, Degree, ONE, ZERO, complement, min_condition
from .encodings import InstanceMap, instance_map, table_entries
from .network import EventTerm, EvidenceMemo, PossNetwork, World, check_event
# condition, is_consistent: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import NnfDag, condition, entails_clause, is_consistent


@dataclass
class PossibilisticBase:
    """Weighted clauses plus their descending ladder of distinct weights.

    Each formula is a (clause, weight) pair: a canonical literal tuple
    over instance literals, necessary to a nonzero degree.  The ladder is
    derived from the formulas; weight-1 formulas are hard knowledge and
    stay outside it.  The instance map ties literals to network values.
    """

    formulas: tuple[tuple[tuple[int, ...], Degree], ...]
    imap: InstanceMap
    levels: tuple[Degree, ...] = field(init=False)

    def __post_init__(self) -> None:
        # keyed and sorted by numerator: ints hash and compare faster than Degrees
        levels: dict[int, Degree] = {}
        for _, weight in self.formulas:
            if not weight.num:
                raise ValueError("weighted formulas carry nonzero weight")
            if weight.num < SCALE:
                levels[weight.num] = weight
        self.levels = tuple(levels[num] for num in sorted(levels, reverse=True))


def to_possibilistic_base(net: PossNetwork) -> PossibilisticBase:
    """Transform a network into its equivalent possibilistic base: one
    formula per table entry of degree below 1, in table order."""
    imap = instance_map(net)
    # an entry's literals name distinct variables, so sorting by variable is canonical
    formulas = tuple(
        (tuple(sorted([lit, *neg], key=abs)), complement(d))
        for _, _, neg, column in table_entries(net, imap.literals)
        for _, lit, d in column
        if d.num != SCALE
    )
    return PossibilisticBase(formulas, imap)


def pi_sigma(base: PossibilisticBase, w: World) -> Degree:
    """Joint degree induced by the base: 1 when the world satisfies every
    formula, else one minus the largest violated weight."""
    assignment = {
        abs(lit): (lit > 0) == (w[var] == val) for (var, val), lit in base.imap.literals.items()
    }
    worst: Degree | None = None
    for lits, weight in base.formulas:
        satisfied = any(assignment[abs(l)] == (l > 0) for l in lits)
        if not satisfied and (worst is None or weight > worst):
            worst = weight
    return ONE if worst is None else complement(worst)


def encode_pkb(net: PossNetwork) -> CnfFormula:
    """Level-variable CNF of the network's base: the instance propositions,
    then one level variable per distinct sub-1 weight, ranked by
    descending weight.  Each weighted clause is disjoined with its
    weight's level variable, hard clauses pass through, and exactly-one
    clauses append as hard ones.  One walk over the tables
    (``encodings.table_entries``) gives the clauses; no base is built.

    A stratified base (``cnf.stratified``, on the weighted-clause and
    level counts the walk gives) also gets the ladder: one hard clause
    (-A_i, A_i+1) per pair of adjacent ranks, so relaxing a stratum
    relaxes every weaker one.  Answers stay the same, since an optimal
    model of either query procedure can set every weaker level true, and
    only L + 1 of the 2^L level assignments remain."""
    imap = instance_map(net)
    clauses = [
        ([lit, *neg], d)
        for _, _, neg, column in table_entries(net, imap.literals)
        for _, lit, d in column
        if d.num != SCALE
    ]
    f = CnfFormula()
    for role in imap.roles:
        f.new_var(role)
    # keyed and sorted by numerator: ints hash and compare faster than Degrees
    degrees = sorted({d.num: d for _, d in clauses if d.num}.items())
    level = {num: f.new_var(Level(rank, complement(d))) for rank, (num, d) in enumerate(degrees, 1)}
    weighted = 0
    for lits, d in clauses:
        if d.num:
            lits.append(level[d.num])
            weighted += 1
        f.add_clause(lits)
    for c in imap.exactly_one_clauses():
        f.add_clause(c)
    if stratified(weighted, len(level)):
        ranked = list(level.values())
        for stronger, weaker in zip(ranked, ranked[1:]):
            f.add_clause([-stronger, weaker])
    return f


def compile_base(
    net: PossNetwork, node_budget: int
) -> tuple[InstanceMap, tuple[tuple[int, Degree], ...], NnfDag]:
    """The network's compiled base as (instance map, ``level_vars`` of its
    CNF, DAG), memoised on the network as (node budget, that triple).
    The CNF is encoded straight from the network (``encode_pkb``) and
    dropped once compiled, and the instance map is the one the encoder
    read (``encodings.instance_map``); a budget failure stores no triple."""
    held, compiled = net.compiled_base or (None, None)
    if held != node_budget:
        cnf = encode_pkb(net)
        compiled = (instance_map(net), level_vars(cnf), compile_cnf(cnf, node_budget=node_budget))
        net.compiled_base = (node_budget, compiled)
    return compiled


def level_vars(cnf: CnfFormula) -> tuple[tuple[int, Degree], ...]:
    """(id, weight) of each level variable of ``cnf``, in rank order."""
    return tuple(
        (vid, role.weight) for vid, role in enumerate(cnf.roles, start=1) if isinstance(role, Level)
    )


def serialize_base(base: PossibilisticBase) -> str:
    """One line per formula: space-separated literals, colon, weight.

    Positive instance literals print as VAR=value; negative literals of
    binary variables print as the opposite value, other negatives as
    !VAR=value.  Hard formulas carry weight 1.
    """
    names: dict[int, str] = {}
    for (var, val), lit in base.imap.literals.items():
        names[lit] = f"{var}={val}"
        # a binary variable's second value names the negative literal over this default
        names.setdefault(-lit, f"!{var}={val}")
    lines = []
    for lits, weight in base.formulas:
        lines.append(" ".join(names[l] for l in lits) + f" : {weight}")
    return "\n".join(lines) + "\n"


class PkbPipeline:
    """Read the network's compiled base; query level by level.

    The pipeline keeps what a query reads: the DAG, the level variables
    and the instance map.  ``base`` and ``cnf`` transform the network
    again on each access."""

    def __init__(self, net: PossNetwork, node_budget: int = DEFAULT_NODE_BUDGET):
        self.net = net
        self.imap, self.level_vars, self.dag = compile_base(net, node_budget)
        self.evidence = EvidenceMemo()

    @property
    def base(self) -> PossibilisticBase:
        return to_possibilistic_base(self.net)

    @property
    def cnf(self) -> CnfFormula:
        return encode_pkb(self.net)

    def _refuted(self, negated: list[int], k: int) -> bool:
        """Whether strata 1..k, with the hard knowledge, refute the term
        whose negated literals are ``negated``: one ``entails_clause`` pass
        with the level variables of those strata in the clause.  Stratum 0
        is the hard knowledge alone."""
        return entails_clause(self.dag, [*(vid for vid, _ in self.level_vars[:k]), *negated])

    def evidence_stratum(self, e: EventTerm) -> int:
        """The least k in 0..L whose strata refute e (0 when the hard
        knowledge does), and L + 1 when none refutes it.

        Refutation is monotone in k (adding a literal keeps a clause
        entailed), so k is found by bisection, in at most
        ceil(log2(L + 2)) passes.
        """
        not_e = [-l for l in self.imap.term_literals(e)]
        return bisect.bisect_left(
            range(len(self.level_vars) + 1), True, key=lambda k: self._refuted(not_e, k)
        )

    def _degree(self, k: int) -> Degree:
        """Stratum k's degree: 0 for k = 0, 1 - w_k for 1 <= k <= L, 1 for k = L + 1."""
        if k == 0:
            return ZERO
        return complement(self.level_vars[k - 1][1]) if k <= len(self.level_vars) else ONE

    def query_detail(self, x: EventTerm, e: EventTerm) -> tuple[Degree, int]:
        """Pi(x|e) plus the number of level iterations performed.

        With i the evidence stratum (read from the memo), the target
        stratum j is the least k below i whose strata refute x and e, and
        i when none does, after min(j, L) iterations.  The answer
        min-conditions the degree of j on the degree of i.  Impossible
        evidence (i = 0) leaves no k to try, and conflicting terms are
        refuted at j = 0: binary ones by a tautological clause, without a
        pass, multi-valued ones by the exactly-one clauses.
        """
        check_event(self.net, x)
        check_event(self.net, e)
        i = self.evidence(e, self.evidence_stratum)
        not_ex = [-l for l in (*self.imap.term_literals(e), *self.imap.term_literals(x))]
        j = next((k for k in range(i) if self._refuted(not_ex, k)), i)
        return min_condition(self._degree(j), self._degree(i)), min(j, len(self.level_vars))

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        return self.query_detail(x, e)[0]

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term): the degree of the term's evidence stratum."""
        check_event(self.net, term)
        return self._degree(self.evidence_stratum(term))
