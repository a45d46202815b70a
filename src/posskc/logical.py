"""Pipeline 2: logical encoding evaluated by one max-min pass.

The logical CNF is the knowledge-base CNF of ``pkb``: instance
propositions plus one level variable A_i per distinct weight w_i strictly
between 0 and 1, disjoined with every weighted clause of that weight.
This method reads A_i as the paper's global parameter theta_{1-w_i}, its
degree 1 - w_i read off the A_i's ``Level`` role (``pkb.level_vars``).
The two methods read one compiled base, memoised per network
(``pkb.compile_base``), ladder and level-first decision order included
for a stratified base (``cnf.stratified_levels``).  Pi(term) is the
paper's condition / forget / evaluate, done as one max-min pass over the
compiled DAG: each A_i weighs 1 - w_i, each negated term literal weighs
0 (conditioning), and every other instance literal weighs 1
(forgetting).  The pipeline runs that pass as the DAG's max-min program
(``nnf.max_min_program``), the theta weights set once, writing 0 at the
leaves of the negated term literals.  A query's Pi(x, e) differs from
the memoised Pi(e) pass only at the negations of the target's literals,
so it resumes that pass at the first instruction after the first of them.
"""

from __future__ import annotations

from array import array

from .cnf import CnfFormula
# compile_cnf: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import Degree, complement
from .network import EventTerm, EvidenceMemo, PossNetwork, check_event, conditional
# condition, forget, pi_evaluate: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import condition, forget, max_min_program, pi_evaluate, run_program
from .pkb import compile_base, encode_pkb


def encode_logical(net: PossNetwork) -> CnfFormula:
    """The knowledge-base CNF, whose level variables this method weighs."""
    return encode_pkb(net)


class LogicalPipeline:
    """Read the network's compiled base (``pkb.compile_base``), then answer
    each marginal by one max-min pass.

    The pipeline keeps what a query reads: the DAG's max-min program, the
    theta weights and the instance map, and the DAG itself, which the
    compiled-base memo shares with pkb.  ``cnf`` encodes the network again
    on each access."""

    def __init__(self, net: PossNetwork, node_budget: int = DEFAULT_NODE_BUDGET):
        self.net = net
        self.imap, levels, self.dag = compile_base(net, node_budget)
        self.theta_weights = {vid: complement(w) for vid, w in levels}
        self.program, leaves = max_min_program(self.dag, self.theta_weights)
        # instance literal -> the leaf slot a target on it refutes (its
        # negation's, -1 when there is none), and the first instruction
        # after that leaf (the instruction count when there is none);
        # negative literals index from the end
        m = len(self.imap.roles)
        n = len(self.program.out)
        firsts = [leaves.get(-lit, (-1, n)) for lit in (*range(m + 1), *range(-m, 0))]
        self.refutes = array("i", [slot for slot, _ in firsts])
        self.starts = array("i", [start for _, start in firsts])
        self.evidence = EvidenceMemo()

    @property
    def cnf(self) -> CnfFormula:
        return encode_logical(self.net)

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term): one max-min pass under the theta weights, with weight 0
        on each negated term literal; unlisted instance literals weigh 1."""
        check_event(self.net, term)
        return self._pass(term)[1]

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        """Pi(x|e) by min-conditioning.  Pi(e) comes from the evidence memo,
        which keeps the values of its run, and the joint resumes that run
        (``_joint``)."""
        return conditional(self.net, self._joint, x, e, self._evidence).degree

    def _pass(self, term: EventTerm) -> tuple[list[int], Degree]:
        """Pi(term) in one run of the program, with the value of every slot."""
        values = self.program.template.copy()
        literal = self.imap.literals
        slots = [self.refutes[literal[item]] for item in term.items()]
        return values, run_program(self.program, values, [s for s in slots if s >= 0])

    def _evidence(self, e: EventTerm) -> Degree:
        return self.evidence(e, self._pass)[1]

    def _joint(self, term: EventTerm) -> Degree:
        """Pi(term), for a term that extends the memoised evidence: its
        run resumed at the first instruction after the first leaf the
        term's other items refute, or Pi(e) itself when they refute none."""
        held, (values, evidence) = self.evidence.entry
        literal = self.imap.literals
        lits = [literal[item] for item in term.items() if item not in held]
        refuted = [s for s in map(self.refutes.__getitem__, lits) if s >= 0]
        if not refuted:
            return evidence
        start = min(map(self.starts.__getitem__, lits))
        return run_program(self.program, values.copy(), refuted, start)
