"""Pipeline 1: possibilistic circuits over an indicator/parameter CNF.

The network's possibilistic function maps evidence to the joint maximum
of the min of indicator values and table degrees.  Its CNF encoding uses
one evidence indicator per value and parameter variables for the table
entries; compiling the CNF and rereading And as min / Or as max yields a
circuit that evaluates any Pi(term) in one bottom-up pass, with the
indicators switched per query.  The encoding is the CNF alone: the
parameter degrees and indicator ids are read off its roles, so a DIMACS
text carries them too.  Every query weighs each negative literal
1, so a pipeline compiles its circuit with those literals built as True
(``compile_cnf``'s ``weight_one``): the compiled DAG's value under every
query's weights, from the same search, with a third fewer nodes.  The
pipeline keeps the circuit as its max-min program (``nnf.max_min_program``),
the parameter degrees set once, and a pass writes 0 at the indicators
the term refutes.  A query's Pi(x, e) differs from the memoised Pi(e)
pass only at the indicators of the target variables' other values, so
it resumes that pass at the first instruction after the first of them.

Two encoding modes exist.  The plain mode spends one parameter per table
entry and links it biconditionally to its indicators.  The local mode
exploits structure: degree-1 entries vanish, degree-0 entries become
hard clauses, and the remaining entries share one parameter per distinct
degree within each variable's table, linked by a single clause.  Both
read the entries from the walk the kb encoder also reads
(``encodings.table_entries``), over the indicators.
"""

from __future__ import annotations

from array import array

from .cnf import CnfFormula, Indicator, Parameter, exactly_one
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import SCALE, Degree
from .encodings import table_entries
from .network import EventTerm, EvidenceMemo, PossNetwork, check_event, conditional
# pi_evaluate: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import NnfDag, WeightMap, max_min_program, pi_evaluate, run_program


def encode_pf(net: PossNetwork, local_structure: bool = True) -> CnfFormula:
    """CNF encoding of the possibilistic function.

    Indicator block per variable: ``cnf.exactly_one`` over its
    indicators.  Entry clauses follow table order, and a plain-mode
    parameter is registered as its entry is walked; see the module
    docstring for the two modes.
    """
    f = CnfFormula()
    indicators = {
        (v.name, x): f.new_var(Indicator(v.name, x)) for v in net.variables for x in v.domain
    }

    theta_ids: dict = {}
    if local_structure:
        for v in net.variables:
            # distinct sub-unit degrees, strongest first; ints compare and
            # hash faster than Degrees
            degrees = {d.num: d for d in net.cpt[v.name].values() if 0 < d.num < SCALE}
            for num, d in sorted(degrees.items(), reverse=True):
                theta_ids[(v.name, num)] = f.new_var(Parameter(v.name, d))

    for v in net.variables:
        for c in exactly_one([indicators[(v.name, val)] for val in v.domain]):
            f.add_clause(c)

    for var, val, cfg, lit, neg_parents, d in table_entries(net, indicators):
        if not local_structure:
            theta = f.new_var(Parameter(f"{var}={val}|{','.join(cfg)}", d))
            f.add_clause([lit, *neg_parents, theta])
            for neg in (lit, *neg_parents):
                f.add_clause([-theta, -neg])
        elif not d.num:
            f.add_clause([lit, *neg_parents])
        elif d.num != SCALE:
            f.add_clause([lit, *neg_parents, theta_ids[(var, d.num)]])
    return f


def _circuit(cnf: CnfFormula, node_budget: int) -> NnfDag:
    """The pf circuit: the CNF compiled with every negative literal built
    as True."""
    return compile_cnf(cnf, node_budget=node_budget, weight_one=range(-1, -cnf.num_vars - 1, -1))


class PfPipeline:
    """Compile once, then answer any number of queries on the circuit.

    The pipeline keeps what a query reads: the circuit's max-min program,
    the parameter degrees and indicator ids, read off the CNF's
    ``Parameter`` and ``Indicator`` roles, and the encoding mode; the
    node budget bounds the circuit.  ``cnf`` encodes the network again on
    each access, ``circuit`` compiles that CNF again to the circuit, and
    ``dag`` to the full decision-labelled DAG, which may exceed the budget
    (CompileBudgetError)."""

    def __init__(
        self,
        net: PossNetwork,
        local_structure: bool = True,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ):
        self.net = net
        self.local_structure = local_structure
        self.node_budget = node_budget
        cnf = encode_pf(net, local_structure)
        self.weight_map: WeightMap = {}
        self.indicators: dict = {}  # (variable name, value) -> variable id
        for vid, role in enumerate(cnf.roles, start=1):
            if isinstance(role, Parameter):
                self.weight_map[vid] = role.degree
            else:  # an Indicator
                self.indicators[(role.var, role.value)] = vid
        self.program, leaves = max_min_program(_circuit(cnf, node_budget), self.weight_map)
        # indicator id -> the leaf slots a target on its value refutes (its
        # variable's other indicators'), and the first instruction after
        # the first of them, the instruction count when there is none
        n = len(self.program.out)
        size = 1 + max(self.indicators.values())
        self.refutes: list[tuple[int, ...]] = [()] * size
        self.starts = array("i", [n]) * size
        for v in net.variables:
            ids = [self.indicators[(v.name, val)] for val in v.domain]
            for vid in ids:
                others = [leaves[o] for o in ids if o != vid and o in leaves]
                self.refutes[vid] = tuple(slot for slot, _ in others)
                self.starts[vid] = min((start for _, start in others), default=n)
        self.evidence = EvidenceMemo()

    @property
    def cnf(self) -> CnfFormula:
        return encode_pf(self.net, self.local_structure)

    @property
    def circuit(self) -> NnfDag:
        return _circuit(self.cnf, self.node_budget)

    @property
    def dag(self) -> NnfDag:
        return compile_cnf(self.cnf, node_budget=self.node_budget)

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term) in one run of the circuit's program."""
        check_event(self.net, term)
        return self._pass(term)[1]

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        """Pi(x|e) by min-conditioning.  Pi(e) comes from the evidence memo,
        which keeps the values of its run, and the joint resumes that run
        (``_joint``)."""
        return conditional(self.net, self._joint, x, e, self._evidence).degree

    def _pass(self, term: EventTerm) -> tuple[list[int], Degree]:
        """Pi(term) in one run, with the value of every slot."""
        values = self.program.template.copy()
        refuted = [s for item in term.items() for s in self.refutes[self.indicators[item]]]
        return values, run_program(self.program, values, refuted)

    def _evidence(self, e: EventTerm) -> Degree:
        return self.evidence(e, self._pass)[1]

    def _joint(self, term: EventTerm) -> Degree:
        """Pi(term), for a term that extends the memoised evidence: its
        run resumed at the first instruction after the first leaf the
        term's other items refute, or Pi(e) itself when they refute none."""
        held, (values, evidence) = self.evidence.entry
        ids = [self.indicators[item] for item in term.items() if item not in held]
        refuted = [s for vid in ids for s in self.refutes[vid]]
        if not refuted:
            return evidence
        start = min(map(self.starts.__getitem__, ids))
        return run_program(self.program, values.copy(), refuted, start)
