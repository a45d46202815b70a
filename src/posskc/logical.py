"""Pipeline 2: logical encoding evaluated by one max-min pass.

The logical CNF is the knowledge-base CNF of ``pkb``: instance
propositions plus one level variable A_i per distinct weight w_i strictly
between 0 and 1, disjoined with every weighted clause of that weight.
This method reads A_i as the paper's global parameter theta_{1-w_i}, its
degree 1 - w_i read off the A_i's ``Level`` role (``pkb.level_vars``).
The two methods read one compiled base, memoised per network
(``pkb.compile_base``), ladder and level-first decision order included
for a stratified base (``cnf.stratified_levels``).  Pi(term) is the
paper's condition / forget / evaluate, done as one ``pi_evaluate`` pass
over the compiled DAG: each A_i weighs 1 - w_i, each negated term
literal weighs 0 (conditioning), and every other instance literal
weighs 1 (forgetting).  A query's Pi(x, e) differs from the memoised
Pi(e) pass only at the negations of the target's literals, so it
resumes that pass at the first of them.
"""

from __future__ import annotations

from array import array

from .cnf import CnfFormula
# compile_cnf: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import ZERO, Degree, complement
from .network import EventTerm, EvidenceMemo, PossNetwork, check_event, conditional
# condition, forget: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import condition, first_leaves, forget, pi_evaluate
from .pkb import compile_base, encode_pkb


def encode_logical(net: PossNetwork) -> CnfFormula:
    """The knowledge-base CNF, whose level variables this method weighs."""
    return encode_pkb(net)


class LogicalPipeline:
    """Read the network's compiled base (``pkb.compile_base``), then answer
    each marginal by one max-min pass.

    The pipeline keeps what a query reads: the DAG, the theta weights and
    the instance map.  ``cnf`` encodes the network again on each access."""

    def __init__(self, net: PossNetwork, node_budget: int = DEFAULT_NODE_BUDGET):
        self.net = net
        self.imap, levels, self.dag = compile_base(net, node_budget)
        self.theta_weights = {vid: complement(w) for vid, w in levels}
        # instance literal -> first DAG leaf a target on it zeroes (its
        # negation's), the node count when there is none; negative
        # literals index from the end
        n = len(self.dag.nodes)
        leaf = first_leaves(self.dag)
        m = len(self.imap.roles)
        self.starts = array("i", [leaf.get(-lit, n) for lit in (*range(m + 1), *range(-m, 0))])
        self.evidence = EvidenceMemo()

    @property
    def cnf(self) -> CnfFormula:
        return encode_logical(self.net)

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term): one max-min pass under the theta weights, with weight 0
        on each negated term literal; unlisted instance literals weigh 1."""
        check_event(self.net, term)
        return self._pass(term)[1]

    def _weights(self, term: EventTerm) -> dict:
        refuted = {-l: ZERO for l in self.imap.term_literals(term)}
        return {**self.theta_weights, **refuted}

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        """Pi(x|e) by min-conditioning.  Pi(e) comes from the evidence memo,
        which keeps the node values of its pass, and the joint resumes
        that pass (``_joint``)."""
        return conditional(self.net, self._joint, x, e, self._evidence).degree

    def _pass(self, term: EventTerm) -> tuple[list[int], Degree]:
        """Pi(term) in one pass, with the value of every node."""
        values = [0] * len(self.dag.nodes)
        return values, pi_evaluate(self.dag, self._weights(term), values)

    def _evidence(self, e: EventTerm) -> Degree:
        return self.evidence(e, self._pass)[1]

    def _joint(self, term: EventTerm) -> Degree:
        """Pi(term), for a term that extends the memoised evidence: its
        pass resumed at the first leaf the term's other items zero, or
        Pi(e) itself when they zero none."""
        held, (values, evidence) = self.evidence.entry
        n = len(values)
        literal = self.imap.literals
        start = min(
            (self.starts[literal[item]] for item in term.items() if item not in held), default=n
        )
        if start == n:
            return evidence
        return pi_evaluate(self.dag, self._weights(term), values.copy(), start)
