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
(forgetting).  The pipeline runs that pass by ``nnf.ProgramPipeline``'s
cone queries, with the theta weights as the fixed weights; a term item
zeroes the negation of its instance literal.
"""

from __future__ import annotations

from .cnf import CnfFormula
# compile_cnf: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import complement
from .network import PossNetwork
# condition, forget, pi_evaluate: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import ProgramPipeline, condition, forget, pi_evaluate
from .pkb import compile_base, encode_pkb


def encode_logical(net: PossNetwork) -> CnfFormula:
    """The knowledge-base CNF, whose level variables this method weighs."""
    return encode_pkb(net)


class LogicalPipeline(ProgramPipeline):
    """Read the network's compiled base (``pkb.compile_base``), then answer
    each marginal by one max-min pass.

    The pipeline keeps what a query reads: the DAG's max-min program with
    its base run, the cones its queries have built, the theta weights and
    the instance map, and the DAG itself, which the
    compiled-base memo shares with pkb.  ``cnf`` encodes the network again
    on each access."""

    def __init__(self, net: PossNetwork, node_budget: int = DEFAULT_NODE_BUDGET):
        self.imap, levels, self.dag = compile_base(net, node_budget)
        self.theta_weights = {vid: complement(w) for vid, w in levels}
        zeroes = {item: (-lit,) for item, lit in self.imap.literals.items()}
        super().__init__(net, self.dag, self.theta_weights, zeroes)

    query = ProgramPipeline.query  # bound here too, for perfbench's hooks

    @property
    def cnf(self) -> CnfFormula:
        return encode_logical(self.net)
