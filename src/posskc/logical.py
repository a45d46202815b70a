"""Pipeline 2: logical encoding explored by one max-min pass.

The logical CNF is the knowledge-base CNF of ``pkb``: instance
propositions plus one level variable A_i per distinct weight w_i strictly
between 0 and 1, disjoined with every weighted clause of that weight.
This method reads A_i as the paper's global parameter theta_{1-w_i}.
After compiling once, Pi(term) is the paper's condition / forget /
evaluate, done as one ``pi_evaluate`` pass over the compiled DAG: each
A_i weighs 1 - w_i, each negated term literal weighs 0 (conditioning),
and every other instance literal weighs 1 (forgetting).  A stratified
base's ladder and level-first decision order come with that CNF
(``cnf.stratified_levels``), so the two methods compile one DAG.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfFormula
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import ZERO, Degree, complement
from .encodings import InstanceMap
from .network import EventTerm, EvidenceMemo, PossNetwork, check_event, conditional
# condition, forget: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import NnfDag, WeightMap, condition, forget, pi_evaluate
from .pkb import encode_pkb, level_vars, to_possibilistic_base


@dataclass
class LogicalEncoding:
    """The knowledge-base CNF with the degree 1 - w of each level
    variable of weight w."""

    cnf: CnfFormula
    imap: InstanceMap
    theta_weights: WeightMap


def encode_logical(net: PossNetwork) -> LogicalEncoding:
    """Build the knowledge-base CNF and weigh its level variables."""
    base = to_possibilistic_base(net)
    cnf = encode_pkb(base)
    weights: WeightMap = {vid: complement(w) for vid, w in level_vars(cnf)}
    return LogicalEncoding(cnf, base.imap, weights)


def explore(compiled: NnfDag, enc: LogicalEncoding, term: EventTerm) -> Degree:
    """Pi(term): one max-min pass under the theta weights, with weight 0
    on each negated term literal; unlisted instance literals weigh 1."""
    check_event(enc.imap.net, term)
    refuted = {-l: ZERO for l in enc.imap.term_literals(term)}
    return pi_evaluate(compiled, {**enc.theta_weights, **refuted})


class LogicalPipeline:
    """Compile once, then answer each marginal by one max-min pass."""

    def __init__(self, net: PossNetwork, node_budget: int = DEFAULT_NODE_BUDGET):
        self.net = net
        self.encoding = encode_logical(net)
        self.cnf = self.encoding.cnf
        self.dag = compile_cnf(self.cnf, node_budget=node_budget)
        self.evidence = EvidenceMemo()

    def possibility(self, term: EventTerm) -> Degree:
        return explore(self.dag, self.encoding, term)

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        """Pi(x|e) by min-conditioning, with Pi(e) from the evidence memo."""
        evidence = self.evidence(self.net, e, self.possibility)
        return conditional(self.net, self.possibility, x, e, evidence).degree
