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
finds the evidence stratum once per evidence term: the first stratum,
strongest first, whose activation refutes the evidence, by bisection.
The target descent below it activates strata from the strongest down and
stops when the active strata refute the target and the evidence.  Each
step is one entailment pass over the compiled DAG, with the active level
variables added to the checked clause; the DAG is never rebuilt.

When the levels span several clauses each (a stratified base,
``cnf.stratified``), the CNF also chains the level variables into a
ladder, strongest first, and the compiler, reading the same rule off the
CNF (``cnf.stratified_levels``), decides them before any instance
variable, so each branch leaves a hard instance CNF that splits along
the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import CnfFormula, Level, stratified
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import SCALE, Degree, ONE, ZERO, complement
from .encodings import InstanceMap, instance_map, table_entries
from .network import EventTerm, EvidenceMemo, PossNetwork, World, check_event, conflicts
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

    def evidence_stratum(self, e: EventTerm) -> int:
        """The stratum whose activation refutes the evidence: 0 when the
        hard knowledge refutes e, else the least i in 1..L such that e is
        refuted with strata 1..i active, and L + 1 when none refutes it.

        Refutation is monotone in the active strata (adding a literal
        keeps a clause entailed), so i is found by bisection, in about
        log2(L + 1) ``entails_clause`` passes.
        """
        not_e = [-l for l in self.imap.term_literals(e)]
        if entails_clause(self.dag, not_e):
            return 0
        ids = [level_id for level_id, _ in self.level_vars]
        lo, hi = 1, len(ids) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if entails_clause(self.dag, [*ids[:mid], *not_e]):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def query_detail(self, x: EventTerm, e: EventTerm) -> tuple[Degree, int]:
        """Pi(x|e) plus the number of level iterations performed.

        Impossible evidence (evidence stratum i = 0, read from the memo)
        yields 1 outright, and a target refuted by the hard knowledge (or
        conflicting with the evidence) yields 0.  The target descent then
        activates strata j = 1..i-1, strongest first, and answers one
        minus w_j at the first j whose knowledge refutes x and e; past
        them the answer is 1, after min(i, L) iterations.  Each check is
        one ``entails_clause`` pass, with the active level variables in
        the clause.
        """
        check_event(self.net, x)
        check_event(self.net, e)
        i = self.evidence(e, self.evidence_stratum)
        if i == 0:
            return ONE, 0
        not_ex = [-l for l in (*self.imap.term_literals(e), *self.imap.term_literals(x))]
        if conflicts(x, e) or entails_clause(self.dag, not_ex):
            return ZERO, 0
        active: list[int] = []
        for level_id, weight in self.level_vars[: i - 1]:
            active.append(level_id)
            if entails_clause(self.dag, [*active, *not_ex]):
                return complement(weight), len(active)
        return ONE, min(i, len(self.level_vars))

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        return self.query_detail(x, e)[0]

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term), as the conditional against empty evidence."""
        return self.query_detail(term, {})[0]
