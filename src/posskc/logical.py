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
(``nnf.max_min_program``), the theta weights set once and its base run,
with no literal refuted, in the template.  A pass starts from a copy of
the base run, and each term literal writes 0 at its negation's leaf and
re-runs that leaf's ``nnf.cone``, built on first use and kept per
literal.  A query's Pi(x, e) differs from the memoised Pi(e) pass only
at the target's literals, so it runs only their cones on a copy of that
pass.
"""

from __future__ import annotations

from .cnf import CnfFormula
# compile_cnf: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import Degree, complement
from .network import EventTerm, EvidenceMemo, PossNetwork, check_event, conditional
# condition, forget, pi_evaluate: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import MaxMinProgram, cone, condition, forget, max_min_program, pi_evaluate, run_program
from .pkb import compile_base, encode_pkb


def encode_logical(net: PossNetwork) -> CnfFormula:
    """The knowledge-base CNF, whose level variables this method weighs."""
    return encode_pkb(net)


class LogicalPipeline:
    """Read the network's compiled base (``pkb.compile_base``), then answer
    each marginal by one max-min pass.

    The pipeline keeps what a query reads: the DAG's max-min program with
    its base run, the cones its queries have built, the theta weights and
    the instance map, and the DAG itself, which the
    compiled-base memo shares with pkb.  ``cnf`` encodes the network again
    on each access."""

    def __init__(self, net: PossNetwork, node_budget: int = DEFAULT_NODE_BUDGET):
        self.net = net
        self.imap, levels, self.dag = compile_base(net, node_budget)
        self.theta_weights = {vid: complement(w) for vid, w in levels}
        self.program, leaves = max_min_program(self.dag, self.theta_weights)
        # instance literal -> the leaf slots a target on it refutes (its
        # negation's, when the DAG has one), and their cone, built on first
        # use; negative literals index from the end
        m = len(self.imap.roles)
        self.refutes = [
            (leaves[-lit],) if -lit in leaves else () for lit in (*range(m + 1), *range(-m, 0))
        ]
        self.cones: list[MaxMinProgram | None] = [None] * len(self.refutes)
        self.evidence = EvidenceMemo()

    @property
    def cnf(self) -> CnfFormula:
        return encode_logical(self.net)

    def possibility(self, term: EventTerm) -> Degree:
        """Pi(term): one max-min pass under the theta weights, with weight 0
        on each negated term literal, as the cones of the term's literals
        run on the base run; unlisted instance literals weigh 1."""
        check_event(self.net, term)
        return self._pass(term)[1]

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        """Pi(x|e) by min-conditioning.  Pi(e) comes from the evidence memo,
        which keeps the values of its run, and the joint runs the target's
        cones on a copy of them (``_joint``)."""
        return conditional(self.net, self._joint, x, e, self._evidence).degree

    def _pass(self, term: EventTerm) -> tuple[list[int], Degree]:
        """Pi(term) from the base run, with the value of every slot."""
        values = self.program.template.copy()
        literal = self.imap.literals
        return values, self._run(values, [literal[item] for item in term.items()])

    def _evidence(self, e: EventTerm) -> Degree:
        return self.evidence(e, self._pass)[1]

    def _joint(self, term: EventTerm) -> Degree:
        """Pi(term), for a term that extends the memoised evidence: the
        cones of the term's other literals run on a copy of its values."""
        held, (values, evidence) = self.evidence.entry
        literal = self.imap.literals
        lits = [literal[item] for item in term.items() if item not in held]
        return self._run(values.copy(), lits) if lits else evidence

    def _run(self, values: list[int], lits: list[int]) -> Degree:
        """Refute, in ``values``, the leaf of each literal's negation in turn
        and run its cone; returns the root's degree."""
        for lit in lits:
            refuted = self.refutes[lit]
            if refuted:
                sub = self.cones[lit]
                if sub is None:
                    sub = self.cones[lit] = cone(self.program, refuted)
                run_program(sub, values, refuted)
        return Degree(values[self.program.root])
