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
pipeline answers on the circuit by ``nnf.ProgramPipeline``'s cone
queries, with the parameter degrees as the fixed weights; a term item
zeroes the indicators of its variable's other values.

Two encoding modes exist.  The plain mode spends one parameter per table
entry and links it biconditionally to its indicators.  The local mode
exploits structure: degree-1 entries vanish, degree-0 entries become
hard clauses, and the remaining entries share one parameter per distinct
degree within each variable's table, linked by a single clause.  Both
read the tables column by column from the walk the kb encoder also
reads (``encodings.table_entries``), over the indicators.
"""

from __future__ import annotations

from .cnf import CnfFormula, Indicator, Parameter, exactly_one
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import SCALE
from .encodings import table_entries
from .network import PossNetwork
# pi_evaluate: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import NnfDag, ProgramPipeline, WeightMap, pi_evaluate


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

    thetas: dict[str, dict[int, int]] = {}  # variable -> degree numerator -> parameter id
    if local_structure:
        for v in net.variables:
            # distinct sub-unit degrees, strongest first; ints compare and
            # hash faster than Degrees
            degrees = {d.num: d for d in net.cpt[v.name].values() if 0 < d.num < SCALE}
            thetas[v.name] = {
                num: f.new_var(Parameter(v.name, d)) for num, d in sorted(degrees.items(), reverse=True)
            }

    for v in net.variables:
        for c in exactly_one([indicators[(v.name, val)] for val in v.domain]):
            f.add_clause(c)

    for var, cfg, neg_parents, column in table_entries(net, indicators):
        if local_structure:
            theta = thetas[var]
            for _, lit, d in column:
                if not d.num:
                    f.add_clause([lit, *neg_parents])
                elif d.num != SCALE:
                    f.add_clause([lit, *neg_parents, theta[d.num]])
            continue
        where = ",".join(cfg)
        for val, lit, d in column:
            param = f.new_var(Parameter(f"{var}={val}|{where}", d))
            f.add_clause([lit, *neg_parents, param])
            for neg in (lit, *neg_parents):
                f.add_clause([-param, -neg])
    return f


def _circuit(cnf: CnfFormula, node_budget: int) -> NnfDag:
    """The pf circuit: the CNF compiled with every negative literal built
    as True."""
    return compile_cnf(cnf, node_budget=node_budget, weight_one=range(-1, -cnf.num_vars - 1, -1))


class PfPipeline(ProgramPipeline):
    """Compile once, then answer any number of queries on the circuit.

    The pipeline keeps what a query reads: the circuit's max-min program
    with its base run, the cones its queries have built, the parameter
    degrees and indicator ids, read off the CNF's ``Parameter`` and
    ``Indicator`` roles, and the encoding mode; the
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
        ind = self.indicators
        zeroes = {
            (v.name, x): [ind[(v.name, o)] for o in v.domain if o != x]
            for v in net.variables
            for x in v.domain
        }
        super().__init__(net, _circuit(cnf, node_budget), self.weight_map, zeroes)

    query = ProgramPipeline.query  # bound here too, for perfbench's hooks

    @property
    def cnf(self) -> CnfFormula:
        return encode_pf(self.net, self.local_structure)

    @property
    def circuit(self) -> NnfDag:
        return _circuit(self.cnf, self.node_budget)

    @property
    def dag(self) -> NnfDag:
        return compile_cnf(self.cnf, node_budget=self.node_budget)
