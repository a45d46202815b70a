"""Negation-normal-form DAGs and the query/transformation toolkit used by
all three pipelines.

A DAG lives in an indexed node pool where children always precede their
parents, so every traversal here is a single iterative bottom-up pass
(no recursion, no stack-depth limits).  ``pi_evaluate`` is the one query
kernel: And is min, Or is max, unlisted literals weigh 1.  On decomposable
DAGs a literal weighing 0 conditions on its negation and an unlisted
variable is forgotten, so consistency and clausal entailment are that pass
too; ``condition``, ``forget`` and ``smooth`` build new DAGs, no query does.

There are three node kinds: literal, And and Or.  As in the c2d format,
True is the empty And (``A 0``) and False the empty Or (``O 0 0``).  A DAG
stores no property flags; ``structural_properties`` reads decomposability
(And children share no variables), determinism (every Or is a binary
decision on one variable) and smoothness (Or children mention identical
variable sets) off the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from .degrees import Degree, SCALE, ZERO
from .errors import FormatError
from .cnf import Clause

WeightMap = Dict[int, Degree]
"""Literal -> Degree; literals not listed weigh 1 (True maps to 1, False to 0)."""


@dataclass(frozen=True, slots=True)
class LitNode:
    lit: int


@dataclass(frozen=True, slots=True)
class AndNode:
    children: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class OrNode:
    children: tuple[int, ...]
    decision: int | None = None


Node = LitNode | AndNode | OrNode


@dataclass(frozen=True)
class NnfDag:
    """Rooted DAG over a pooled node list; children precede parents.

    ``num_vars`` is the size of the variable universe the DAG speaks
    about (variables 1..num_vars); forgetting a variable removes it from
    the structure but not from the universe.
    """

    nodes: tuple[Node, ...]
    root: int
    num_vars: int

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(n.children) for n in self.nodes if not isinstance(n, LitNode))


def nnf_stats(d: NnfDag) -> dict:
    return {"nodes": d.node_count(), "edges": d.edge_count()}


class NnfBuilder:
    """Pool builder with structural interning and local simplification.

    Simplifications applied on construction: And drops True children and
    collapses on False; Or drops False children and collapses on True;
    single-child nodes collapse to the child; duplicate children merge.
    And children are kept sorted so shared conjunctions intern to one
    node.  True and False are interned once, so a child is a constant
    exactly when its id is one of theirs.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._intern: dict = {}
        self._true = self._false = -1

    @property
    def size(self) -> int:
        return len(self.nodes)

    def _make(self, key, node) -> int:
        idx = self._intern.get(key)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(node)
            self._intern[key] = idx
        return idx

    def true(self) -> int:
        self._true = self._make(("A", ()), AndNode(()))
        return self._true

    def false(self) -> int:
        self._false = self._make(("O", (), None), OrNode(()))
        return self._false

    def literal(self, lit: int) -> int:
        if lit == 0:
            raise ValueError("0 is not a literal")
        return self._make(("L", lit), LitNode(lit))

    def conj(self, children: Iterable[int]) -> int:
        out: list[int] = []
        seen: set[int] = set()
        true, false = self._true, self._false
        for c in children:
            if c == true:
                continue
            if c == false:
                return self.false()
            if c not in seen:
                seen.add(c)
                out.append(c)
        if not out:
            return self.true()
        if len(out) == 1:
            return out[0]
        out.sort()
        return self._make(("A", tuple(out)), AndNode(tuple(out)))

    def disj(self, children: Iterable[int], decision: int | None = None) -> int:
        out: list[int] = []
        seen: set[int] = set()
        true, false = self._true, self._false
        for c in children:
            if c == false:
                continue
            if c == true:
                return self.true()
            if c not in seen:
                seen.add(c)
                out.append(c)
        if not out:
            return self.false()
        if len(out) == 1:
            return out[0]
        out.sort()
        key = ("O", tuple(out), decision)
        return self._make(key, OrNode(tuple(out), decision))

    def freeze(self, root: int, num_vars: int) -> NnfDag:
        """Compact to the nodes reachable from root, preserving order."""
        reachable = {root}
        stack = [root]
        while stack:
            n = self.nodes[stack.pop()]
            if not isinstance(n, LitNode):
                for c in n.children:
                    if c not in reachable:
                        reachable.add(c)
                        stack.append(c)
        order = sorted(reachable)
        remap = {old: new for new, old in enumerate(order)}
        nodes: list[Node] = []
        for old in order:
            n = self.nodes[old]
            if isinstance(n, AndNode):
                n = AndNode(tuple(remap[c] for c in n.children))
            elif isinstance(n, OrNode):
                n = OrNode(tuple(remap[c] for c in n.children), n.decision)
            nodes.append(n)
        return NnfDag(tuple(nodes), remap[root], num_vars)


def pi_evaluate(d: NnfDag, w: WeightMap) -> Degree:
    """Max-min evaluation: And is min, Or is max, leaves read the map.

    Unlisted literals weigh 1; the empty And (True) yields 1 and the
    empty Or (False) yields 0.  One bottom-up pass.
    """
    weights = {lit: deg.num for lit, deg in w.items()}
    val = [0] * len(d.nodes)
    for i, n in enumerate(d.nodes):
        if isinstance(n, LitNode):
            val[i] = weights.get(n.lit, SCALE)
        elif isinstance(n, AndNode):
            val[i] = min((val[c] for c in n.children), default=SCALE)
        else:
            val[i] = max((val[c] for c in n.children), default=0)
    return Degree(val[d.root])


def is_consistent(d: NnfDag) -> bool:
    """Satisfiability by one max-min pass (valid on decomposable DAGs)."""
    return pi_evaluate(d, {}) != ZERO


def condition(d: NnfDag, term: Iterable[int]) -> NnfDag:
    """Replace each term literal by True and its negation by False.

    Conditioning preserves decomposability, determinism and smoothness.
    """
    lits = set(term)
    for l in lits:
        if -l in lits:
            raise ValueError(f"conditioning term contains complementary literals {l}/{-l}")
    assign = {}
    for l in lits:
        assign[l] = True
        assign[-l] = False
    return _rewrite(d, assign, drop_decisions=frozenset())


def forget(d: NnfDag, variables: Iterable[int]) -> NnfDag:
    """Existentially quantify the variables: both literals become True.

    Valid on decomposable DAGs.  Decomposability and smoothness survive;
    determinism does not in general.
    """
    vs = set(variables)
    if not vs:
        return d
    assign = {}
    for v in vs:
        assign[v] = True
        assign[-v] = True
    return _rewrite(d, assign, drop_decisions=frozenset(vs))


def _rewrite(d: NnfDag, assign: dict, drop_decisions: frozenset) -> NnfDag:
    b = NnfBuilder()
    new_id = [0] * len(d.nodes)
    for i, n in enumerate(d.nodes):
        if isinstance(n, LitNode):
            v = assign.get(n.lit)
            if v is None:
                new_id[i] = b.literal(n.lit)
            else:
                new_id[i] = b.true() if v else b.false()
        elif isinstance(n, AndNode):
            new_id[i] = b.conj([new_id[c] for c in n.children])
        else:
            dec = n.decision
            if dec is not None and dec in drop_decisions:
                dec = None
            new_id[i] = b.disj([new_id[c] for c in n.children], decision=dec)
    return b.freeze(new_id[d.root], d.num_vars)


def entails_clause(d: NnfDag, c: Clause) -> bool:
    """d entails the clause iff d evaluates to 0 with each clause literal at 0.

    A tautological clause is entailed by anything; the empty clause is
    entailed only by an inconsistent DAG.
    """
    if c.is_tautology():
        return True
    return pi_evaluate(d, {l: ZERO for l in c}) == ZERO


def node_var_sets(d: NnfDag) -> list[frozenset]:
    """Variable set mentioned under each node, bottom-up."""
    out: list[frozenset] = [frozenset()] * len(d.nodes)
    for i, n in enumerate(d.nodes):
        if isinstance(n, LitNode):
            out[i] = frozenset((abs(n.lit),))
        else:
            acc: set = set()
            for c in n.children:
                acc |= out[c]
            out[i] = frozenset(acc)
    return out


def _top_literal_sets(d: NnfDag) -> list[frozenset]:
    """Literals visible from each node through And edges only."""
    out: list[frozenset] = [frozenset()] * len(d.nodes)
    for i, n in enumerate(d.nodes):
        if isinstance(n, LitNode):
            out[i] = frozenset((n.lit,))
        elif isinstance(n, AndNode):
            acc: set = set()
            for c in n.children:
                acc |= out[c]
            out[i] = frozenset(acc)
    return out


def structural_properties(d: NnfDag) -> dict:
    """Decomposability, determinism and smoothness, read off the structure."""
    var_sets = node_var_sets(d)
    top_lits = _top_literal_sets(d)
    decomposable = True
    deterministic = True
    smooth = True
    for n in d.nodes:
        if isinstance(n, AndNode):
            total = sum(len(var_sets[c]) for c in n.children)
            union: set = set()
            for c in n.children:
                union |= var_sets[c]
            if total != len(union):
                decomposable = False
        elif isinstance(n, OrNode):
            sets = [var_sets[c] for c in n.children]
            if sets and any(s != sets[0] for s in sets[1:]):
                smooth = False
            if len(n.children) >= 2:
                v = n.decision
                if v is None or len(n.children) != 2:
                    deterministic = False
                else:
                    a, b = n.children
                    pos_a = v in top_lits[a]
                    neg_a = -v in top_lits[a]
                    pos_b = v in top_lits[b]
                    neg_b = -v in top_lits[b]
                    if not ((pos_a and neg_b) or (neg_a and pos_b)):
                        deterministic = False
    return {"decomposable": decomposable, "deterministic": deterministic, "smooth": smooth}


def smooth(d: NnfDag) -> NnfDag:
    """Make every Or node's children mention the same variable set.

    Each child missing a variable v gains the gadget (v or not v), a binary
    decision on v, so smoothing keeps decomposability and determinism.
    """
    b = NnfBuilder()
    new_id = [0] * len(d.nodes)
    new_vars: list[frozenset] = [frozenset()] * len(d.nodes)
    for i, n in enumerate(d.nodes):
        if isinstance(n, LitNode):
            new_id[i] = b.literal(n.lit)
            new_vars[i] = frozenset((abs(n.lit),))
            continue
        target: set = set()
        for c in n.children:
            target |= new_vars[c]
        if isinstance(n, AndNode):
            new_id[i] = b.conj([new_id[c] for c in n.children])
        else:
            grown: list[int] = []
            for c in n.children:
                extras = [
                    b.disj([b.literal(v), b.literal(-v)], decision=v)
                    for v in sorted(target - new_vars[c])
                ]
                grown.append(b.conj([new_id[c], *extras]) if extras else new_id[c])
            new_id[i] = b.disj(grown, decision=n.decision)
        new_vars[i] = frozenset(target)
    return b.freeze(new_id[d.root], d.num_vars)


def write_nnf(d: NnfDag) -> str:
    """Serialize in the c2d text layout: header then one node per line."""
    lines = [f"nnf {d.node_count()} {d.edge_count()} {d.num_vars}"]
    for n in d.nodes:
        if isinstance(n, LitNode):
            lines.append(f"L {n.lit}")
        else:
            head = "A" if isinstance(n, AndNode) else f"O {n.decision or 0}"
            lines.append(" ".join([head, str(len(n.children)), *map(str, n.children)]))
    return "\n".join(lines) + "\n"


def parse_nnf(text: str) -> NnfDag:
    """Parse the c2d text layout; the last node is the root.

    Nodes are kept exactly as written (no simplification) so stats
    round-trip.
    """
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("c")]
    if not lines:
        raise FormatError("empty NNF file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "nnf":
        raise FormatError(f"malformed NNF header: {lines[0]!r}", 1)
    try:
        n_nodes, n_edges, n_vars = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise FormatError(f"malformed NNF header: {lines[0]!r}", 1) from exc
    if n_nodes < 1:
        raise FormatError("NNF must declare at least one node", 1)
    if len(lines) - 1 != n_nodes:
        raise FormatError(
            f"header declares {n_nodes} nodes, found {len(lines) - 1}"
        )
    nodes: list[Node] = []
    edges = 0
    for ln, line in enumerate(lines[1:], start=2):
        toks = line.split()
        idx = len(nodes)
        try:
            if toks[0] == "L" and len(toks) == 2:
                lit = int(toks[1])
                if lit == 0 or abs(lit) > n_vars:
                    raise FormatError(f"literal {lit} out of range", ln)
                nodes.append(LitNode(lit))
                continue
            if toks[0] == "A":
                count = int(toks[1])
                kids = tuple(int(t) for t in toks[2:])
                if len(kids) != count:
                    raise FormatError(f"And child count mismatch: {line!r}", ln)
                if any(not 0 <= k < idx for k in kids):
                    raise FormatError(f"And child out of range: {line!r}", ln)
                nodes.append(AndNode(kids))
                edges += count
                continue
            if toks[0] == "O":
                j = int(toks[1])
                count = int(toks[2])
                kids = tuple(int(t) for t in toks[3:])
                if len(kids) != count:
                    raise FormatError(f"Or child count mismatch: {line!r}", ln)
                if any(not 0 <= k < idx for k in kids):
                    raise FormatError(f"Or child out of range: {line!r}", ln)
                if j and abs(j) > n_vars:
                    raise FormatError(f"decision variable {j} out of range", ln)
                nodes.append(OrNode(kids, j or None))
                edges += count
                continue
        except FormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise FormatError(f"malformed NNF node line: {line!r}", ln) from exc
        raise FormatError(f"malformed NNF node line: {line!r}", ln)
    if edges != n_edges:
        raise FormatError(f"header declares {n_edges} edges, found {edges}")
    return NnfDag(tuple(nodes), len(nodes) - 1, n_vars)
