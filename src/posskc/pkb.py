"""Pipeline 3: possibilistic-knowledge-base compilation.

Every table entry with degree below 1 becomes a weighted clause (negate
the entry's value and its parent values) whose weight is one minus the
degree; the resulting base induces the same joint distribution as the
network.  The base compiles to CNF by tagging each weighted clause with
a level variable shared by all clauses of equal weight, and queries run
level by level on the compiled DAG.  The logical method reads the same
compiled base, memoised per network (``compile_base``), and weighs its
level variables instead.  The memo keeps only what queries read: the
instance map, the level variables and the DAG; a pipeline's ``base``
and ``cnf`` transform the network again.  A query finds the
evidence stratum once per evidence term: the first stratum, strongest
first, whose activation refutes the evidence, by bisection.  The target
descent below it activates strata from the strongest down and stops
when the active strata refute the target and the evidence.
Each step is one entailment pass over the compiled DAG, with the active
level variables added to the checked clause; the DAG is never rebuilt.

When the levels span several clauses each (a stratified base,
``cnf.stratified_levels``), the CNF also chains the level variables into
a ladder, strongest first, and the compiler, reading the same rule off
the CNF, decides them before any instance variable, so each branch
leaves a hard instance CNF that splits along the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import Clause, CnfFormula, Level, stratified_levels
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import SCALE, Degree, ONE, ZERO, complement, parse_degree
from .encodings import InstanceMap
from .errors import DegreeError, FormatError
from .network import EventTerm, EvidenceMemo, PossNetwork, World, check_event, conflicts
# condition, is_consistent: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import NnfDag, condition, entails_clause, is_consistent


@dataclass(frozen=True, slots=True)
class WeightedFormula:
    """A clause over instance literals, necessary to degree ``weight``."""

    clause: Clause
    weight: Degree

    def __post_init__(self) -> None:
        if not self.weight.num:
            raise ValueError("weighted formulas carry nonzero weight")


@dataclass
class PossibilisticBase:
    """Weighted clauses plus their descending ladder of distinct weights.

    The ladder is derived from the formulas; weight-1 formulas are hard
    knowledge and stay outside it.  The instance map ties clause literals
    back to network values.
    """

    formulas: tuple[WeightedFormula, ...]
    imap: InstanceMap
    levels: tuple[Degree, ...] = field(init=False)

    def __post_init__(self) -> None:
        # keyed and sorted by numerator: ints hash and compare faster than Degrees
        levels = {wf.weight.num: wf.weight for wf in self.formulas if wf.weight.num < SCALE}
        self.levels = tuple(levels[num] for num in sorted(levels, reverse=True))


def to_possibilistic_base(net: PossNetwork) -> PossibilisticBase:
    """Transform a network into its equivalent possibilistic base."""
    imap = InstanceMap(net)
    literal = imap.literal
    formulas: list[WeightedFormula] = []
    for v in net.variables:
        pnames = net.parents[v.name]
        table = net.cpt[v.name]
        for cfg in net.parent_configs(v.name):
            neg_parents = [-literal(p, pv) for p, pv in zip(pnames, cfg)]
            for val in v.domain:
                d = table[(val, cfg)]
                if d.num == SCALE:
                    continue
                clause = Clause([-literal(v.name, val), *neg_parents])
                formulas.append(WeightedFormula(clause, complement(d)))
    return PossibilisticBase(tuple(formulas), imap)


def pi_sigma(base: PossibilisticBase, w: World) -> Degree:
    """Joint degree induced by the base: 1 when the world satisfies every
    formula, else one minus the largest violated weight."""
    net = base.imap.net
    assignment: dict[int, bool] = {}
    for v in net.variables:
        for val in v.domain:
            lit = base.imap.literal(v.name, val)
            assignment[abs(lit)] = (lit > 0) == (w[v.name] == val)
    worst: Degree | None = None
    for wf in base.formulas:
        satisfied = any(assignment[abs(l)] == (l > 0) for l in wf.clause)
        if not satisfied and (worst is None or wf.weight > worst):
            worst = wf.weight
    return ONE if worst is None else complement(worst)


def encode_pkb(base: PossibilisticBase) -> CnfFormula:
    """Level-variable CNF of the base: the instance propositions, then one
    level variable per distinct sub-1 weight, ranked by descending weight.
    Each weighted clause is disjoined with its weight's level variable,
    hard clauses pass through, and exactly-one clauses append as hard
    ones.

    A stratified base (``cnf.stratified_levels``) also gets the ladder:
    one hard clause (-A_i, A_i+1) per pair of adjacent ranks, so relaxing
    a stratum relaxes every weaker one.  Answers stay the same, since an
    optimal model of either query procedure can set every weaker level
    true, and only L + 1 of the 2^L level assignments remain."""
    f = CnfFormula()
    for role in base.imap.roles:
        f.new_var(role)
    level = {w.num: f.new_var(Level(rank, w)) for rank, w in enumerate(base.levels, start=1)}
    for wf in base.formulas:
        num = wf.weight.num
        if num == SCALE:
            f.add_clause(wf.clause)
        else:
            f.add_clause([*wf.clause.literals, level[num]])
    for c in base.imap.exactly_one_clauses():
        f.add_clause(c)
    if stratified_levels(f):
        ranked = list(level.values())
        for stronger, weaker in zip(ranked, ranked[1:]):
            f.add_clause([-stronger, weaker])
    return f


def compile_base(
    net: PossNetwork, node_budget: int
) -> tuple[InstanceMap, tuple[tuple[int, Degree], ...], NnfDag]:
    """The network's compiled base as (instance map, ``level_vars`` of its
    CNF, DAG), memoised on the network as (node budget, that triple).
    The base and its CNF are dropped once compiled; a budget failure
    stores nothing."""
    held, compiled = net.compiled_base or (None, None)
    if held != node_budget:
        base = to_possibilistic_base(net)
        cnf = encode_pkb(base)
        compiled = (base.imap, level_vars(cnf), compile_cnf(cnf, node_budget=node_budget))
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
    net = base.imap.net
    names: dict[int, str] = {}
    for v in net.variables:
        if len(v.domain) == 2:
            vid = base.imap.literal(v.name, v.domain[0])
            names[vid] = f"{v.name}={v.domain[0]}"
            names[-vid] = f"{v.name}={v.domain[1]}"
        else:
            for val in v.domain:
                vid = base.imap.literal(v.name, val)
                names[vid] = f"{v.name}={val}"
                names[-vid] = f"!{v.name}={val}"
    lines = []
    for wf in base.formulas:
        lines.append(" ".join(names[l] for l in wf.clause) + f" : {wf.weight}")
    return "\n".join(lines) + "\n"


def parse_base(text: str, net: PossNetwork) -> PossibilisticBase:
    """Parse the base serialization against a known network."""
    imap = InstanceMap(net)
    formulas: list[WeightedFormula] = []
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
                lit = imap.literal(var, val)
            except KeyError as exc:
                raise FormatError(f"unknown literal {tok!r}", ln) from exc
            lits.append(-lit if negated else lit)
        clause = Clause(lits)
        if clause.is_tautology():
            raise FormatError(f"tautological clause {lhs.strip()!r}", ln)
        try:
            formulas.append(WeightedFormula(clause, weight))
        except ValueError as exc:
            raise FormatError(str(exc), ln) from exc
    return PossibilisticBase(tuple(formulas), imap)


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
        return encode_pkb(self.base)

    def evidence_stratum(self, e: EventTerm) -> int:
        """The stratum whose activation refutes the evidence: 0 when the
        hard knowledge refutes e, else the least i in 1..L such that e is
        refuted with strata 1..i active, and L + 1 when none refutes it.

        Refutation is monotone in the active strata (adding a literal
        keeps a clause entailed), so i is found by bisection, in about
        log2(L + 1) ``entails_clause`` passes.
        """
        not_e = [-l for l in self.imap.term_literals(e)]
        if entails_clause(self.dag, Clause(not_e)):
            return 0
        ids = [level_id for level_id, _ in self.level_vars]
        lo, hi = 1, len(ids) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if entails_clause(self.dag, Clause([*ids[:mid], *not_e])):
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
        i = self.evidence(self.net, e, self.evidence_stratum)
        if i == 0:
            return ONE, 0
        not_ex = [-l for l in (*self.imap.term_literals(e), *self.imap.term_literals(x))]
        if conflicts(x, e) or entails_clause(self.dag, Clause(not_ex)):
            return ZERO, 0
        active: list[int] = []
        for level_id, weight in self.level_vars[: i - 1]:
            active.append(level_id)
            if entails_clause(self.dag, Clause([*active, *not_ex])):
                return complement(weight), len(active)
        return ONE, min(i, len(self.level_vars))

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        return self.query_detail(x, e)[0]

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term), as the conditional against empty evidence."""
        return self.query(term, {})
