"""Pipeline 2: logical encoding explored by one max-min pass.

The network becomes a CNF over instance propositions and one global
parameter proposition theta_d per distinct degree d strictly between 0
and 1.  It is read off the network's possibilistic base: each weighted
clause of weight w below 1 (a table entry of degree d = 1 - w, written
not u1 or ... or not um or not x) gains theta_d, hard clauses (degree-0
entries) pass through, and degree-1 entries contribute nothing.  So the
logical CNF is the knowledge-base CNF with each level variable of weight
w renamed to theta_{1-w}.  After compiling once, Pi(term) is the paper's
condition / forget / evaluate, done as one ``pi_evaluate`` pass over the
compiled DAG: each theta_d weighs d, each negated term literal weighs 0
(conditioning), and every other instance literal weighs 1 (forgetting).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfFormula, Parameter
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import ZERO, Degree, complement
from .encodings import InstanceMap
from .network import EventTerm, PossNetwork, check_event, conditional
# condition, forget: unused, kept for perfbench's hooks (tests/test_perfbench_hooks.py)
from .nnf import NnfDag, WeightMap, condition, forget, pi_evaluate
from .pkb import tagged_cnf, to_possibilistic_base


@dataclass
class LogicalEncoding:
    """Instance/parameter CNF with the degree map for its parameters."""

    cnf: CnfFormula
    imap: InstanceMap
    theta_weights: WeightMap


def encode_logical(net: PossNetwork) -> LogicalEncoding:
    """Build the logical CNF; parameter ids run by descending degree."""
    base = to_possibilistic_base(net)
    thetas = [(w, Parameter("*", complement(w))) for w in reversed(base.levels)]
    f, imap, theta = tagged_cnf(base, thetas)
    weights: WeightMap = {theta[w]: p.degree for w, p in thetas}
    return LogicalEncoding(f, imap, weights)


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

    def possibility(self, term: EventTerm) -> Degree:
        return explore(self.dag, self.encoding, term)

    def query(self, x: EventTerm, e: EventTerm) -> Degree:
        return conditional(self.net, self.possibility, x, e).degree
