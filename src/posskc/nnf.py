"""Negation-normal-form DAGs and the query/transformation toolkit used by
all three pipelines.

A DAG lives in an indexed node pool where children always precede their
parents, so every traversal here is a single iterative bottom-up pass
(no recursion, no stack-depth limits).  ``pi_evaluate`` is the max-min
pass: And is min, Or is max, unlisted literals weigh 1.  On decomposable
DAGs a literal weighing 0 conditions on its negation and an unlisted
variable is forgotten, so consistency and clausal entailment are that pass
too; ``condition``, ``forget`` and ``smooth`` build new DAGs, no query
does.  A pipeline whose leaf weights stay fixed across its queries, up to
the leaves a query's term refutes, runs the same pass as a straight-line
program (``max_min_program``): the fixed weights are set once in a
template, the internal nodes become binary min/max instructions, and a
run writes 0 at the refuted leaves and executes the instructions from a
start index, so a run may resume an earlier one's values past the
instructions that precede its first changed leaf.

Each node is the tuple of its c2d line, ``(op, arg, children)``:
``("L", lit, ())`` for a literal, ``("A", 0, kids)`` for an And and
``("O", decision, kids)`` for an Or, with decision 0 for none.  The
builder interns these tuples as they are, and ``write_nnf``/``parse_nnf``
print and read them field by field.  As in c2d, True is the empty And
(``A 0``) and False the empty Or (``O 0 0``); a built DAG holds one only
as its single node.  A DAG stores no property flags;
``structural_properties`` reads decomposability (And children share no
variables), determinism (every Or is a binary decision on one variable)
and smoothness (Or children mention identical variable sets) off the
structure.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable

from .degrees import Degree, SCALE, ZERO
from .errors import FormatError

WeightMap = Dict[int, Degree]
"""Literal -> Degree; literals not listed weigh 1 (True maps to 1, False to 0)."""


Node = tuple[str, int, tuple[int, ...]]  # (op, arg, children): one c2d line


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
        return sum(len(n[2]) for n in self.nodes)


def nnf_stats(d: NnfDag) -> dict:
    return {"nodes": d.node_count(), "edges": d.edge_count()}


TRUE, FALSE = -1, -2  # the builder's ids for the constants, which it never pools


class NnfBuilder:
    """Pool builder with structural interning and local simplification.

    Simplifications applied on construction: And drops True children and
    collapses on False; Or drops False children and collapses on True;
    single-child nodes collapse to the child; duplicate children merge.
    And children are kept sorted so shared conjunctions intern to one
    node.  True and False are the fixed ids ``TRUE`` and ``FALSE``, never
    pooled, so no node has a constant child; the literals named in
    ``true_literals`` build as ``TRUE``.  ``decision`` builds a decision
    node and its two Ands in one call, as ``disj`` of two ``conj`` would.
    """

    def __init__(self, true_literals: Iterable[int] = ()) -> None:
        self.nodes: list[Node] = []
        self._intern: dict[Node, int] = {}
        self._literals: dict[int, int] = dict.fromkeys(true_literals, TRUE)

    def _make(self, node: Node) -> int:
        idx = self._intern.get(node)
        if idx is None:
            idx = self._intern[node] = len(self.nodes)
            self.nodes.append(node)
        return idx

    def literal(self, lit: int) -> int:
        idx = self._literals.get(lit)
        if idx is None:
            if lit == 0:
                raise ValueError("0 is not a literal")
            idx = self._literals[lit] = self._make(("L", lit, ()))
        return idx

    def conj(self, children: Iterable[int]) -> int:
        kids = set(children)
        if FALSE in kids:
            return FALSE
        kids.discard(TRUE)
        if len(kids) > 1:
            return self._make(("A", 0, tuple(sorted(kids))))
        return kids.pop() if kids else TRUE

    def disj(self, children: Iterable[int], decision: int = 0) -> int:
        kids = set(children)
        if TRUE in kids:
            return TRUE
        kids.discard(FALSE)
        if len(kids) > 1:
            return self._make(("O", decision, tuple(sorted(kids))))
        return kids.pop() if kids else FALSE

    def decision(self, var: int, hi: int, lo: int, label: int) -> int:
        """The decision on ``var``: ``disj([conj([literal(var), hi]),
        conj([literal(-var), lo])], label)``, built from the two pairs
        directly, in that order, under the same folding rules."""
        a = self._pair(self.literal(var), hi)
        b = self._pair(self.literal(-var), lo)
        if a == TRUE or b == TRUE:
            return TRUE
        if b == FALSE or a == b:
            return a
        if a == FALSE:
            return b
        return self._make(("O", label, (a, b) if a < b else (b, a)))

    def _pair(self, x: int, y: int) -> int:
        """``conj([x, y])``."""
        if x == FALSE or y == FALSE:
            return FALSE
        if x == TRUE or x == y:
            return y
        if y == TRUE:
            return x
        return self._make(("A", 0, (x, y) if x < y else (y, x)))

    def freeze(self, root: int, num_vars: int) -> NnfDag:
        """Compact to the nodes reachable from root, preserving order; a
        constant root is the DAG's one node."""
        if root < 0:
            return NnfDag((("A", 0, ()) if root == TRUE else ("O", 0, ()),), 0, num_vars)
        nodes = self.nodes
        live = [False] * len(nodes)
        live[root] = True
        for i in range(root, -1, -1):
            if live[i]:
                for c in nodes[i][2]:
                    live[c] = True
        order = [i for i, x in enumerate(live) if x]
        if len(order) == len(nodes):
            return NnfDag(tuple(nodes), root, num_vars)
        remap = [0] * len(nodes)
        for new, old in enumerate(order):
            remap[old] = new
        at = remap.__getitem__
        kept = tuple(
            (n[0], n[1], tuple(map(at, n[2]))) if n[2] else n
            for n in map(nodes.__getitem__, order)
        )
        return NnfDag(kept, remap[root], num_vars)


def pi_evaluate(d: NnfDag, w: WeightMap) -> Degree:
    """Max-min evaluation: And is min, Or is max, leaves read the map.

    Unlisted literals weigh 1; the empty And (True) yields 1 and the
    empty Or (False) yields 0.  One bottom-up pass.
    """
    weights = {lit: deg.num for lit, deg in w.items()}
    val = [0] * len(d.nodes)
    at = val.__getitem__
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            val[i] = weights.get(arg, SCALE)
        elif op == "A":
            val[i] = min(map(at, kids)) if kids else SCALE
        else:
            val[i] = max(map(at, kids)) if kids else 0
    return Degree(val[d.root])


@dataclass(frozen=True)
class MaxMinProgram:
    """``pi_evaluate`` of one DAG as straight-line code over a value list
    with one slot per node.

    ``template`` holds each leaf's fixed weight (a degree's numerator,
    ``SCALE`` when unlisted) and each constant's value.  Instruction k
    sets slot ``out[k]`` to the min (``ands[k]`` is 1) or the max of
    slots ``left[k]`` and ``right[k]``; the instructions follow the DAG
    order.  An n-ary node is a chain of n - 1 instructions accumulating
    in its own slot, and a one-child node, or a repeated leaf, copies its
    child's (its literal's first leaf's) slot.
    """

    template: list[int]
    out: array
    left: array
    right: array
    ands: bytes
    root: int


def max_min_program(
    d: NnfDag, w: WeightMap
) -> tuple[MaxMinProgram, dict[int, tuple[int, int]]]:
    """The program of ``d`` under the fixed weights ``w``, and each
    literal's first leaf as (its slot, the index of the first instruction
    after it): a run that refutes the literal writes 0 at that slot, and
    the instructions before that index do not read it."""
    weights = {lit: deg.num for lit, deg in w.items()}
    template = [0] * len(d.nodes)
    out, left, right, ands = [], [], [], bytearray()
    leaves: dict[int, tuple[int, int]] = {}
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            if arg not in leaves:
                leaves[arg] = (i, len(out))
                template[i] = weights.get(arg, SCALE)
                continue
            kids = (leaves[arg][0],) * 2
        elif len(kids) != 2:
            if not kids:
                template[i] = SCALE if op == "A" else 0
                continue
            if len(kids) == 1:
                kids *= 2
            else:  # all but the last pair of the chain
                a = kids[0]
                for b in kids[1:-1]:
                    out.append(i)
                    left.append(a)
                    right.append(b)
                    ands.append(op == "A")
                    a = i
                kids = (i, kids[-1])
        out.append(i)
        left.append(kids[0])
        right.append(kids[1])
        ands.append(op == "A")
    columns = (array("i", column) for column in (out, left, right))
    return MaxMinProgram(template, *columns, bytes(ands), d.root), leaves


def run_program(
    p: MaxMinProgram, val: list[int], refuted: Iterable[int] = (), start: int = 0
) -> Degree:
    """Write 0 at the ``refuted`` slots of ``val``, run the instructions
    from ``start`` on it in place, and return the root's degree.

    ``val`` is a copy of the template, or of an earlier run's values.  A
    run resumed at ``start`` keeps the slots the instructions before it
    wrote: they must be those of a run whose leaves agree with ``val``'s
    on every leaf those instructions read.  Since children precede
    parents, the values are then those of a fresh run.
    """
    for i in refuted:
        val[i] = 0
    for o, a, b, is_and in zip(p.out[start:], p.left[start:], p.right[start:], p.ands[start:]):
        x = val[a]
        y = val[b]
        if is_and:
            val[o] = x if x < y else y
        else:
            val[o] = y if x < y else x
    return Degree(val[p.root])


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
        assign[l], assign[-l] = TRUE, FALSE
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
        assign[v] = assign[-v] = TRUE
    return _rewrite(d, assign, drop_decisions=frozenset(vs))


def _rewrite(d: NnfDag, assign: dict, drop_decisions: frozenset) -> NnfDag:
    b = NnfBuilder()
    conj, disj = b.conj, b.disj
    new_id: list[int] = []
    put, at = new_id.append, new_id.__getitem__
    for op, arg, kids in d.nodes:
        if op == "L":
            v = assign.get(arg)
            put(b.literal(arg) if v is None else v)
        elif op == "A":
            put(conj(map(at, kids)))
        else:
            put(disj(map(at, kids), 0 if arg in drop_decisions else arg))
    return b.freeze(new_id[d.root], d.num_vars)


def entails_clause(d: NnfDag, literals: Iterable[int]) -> bool:
    """d entails the clause of ``literals`` iff d is 0 with each of them at 0.

    A tautological clause is entailed by anything; the empty clause is
    entailed only by an inconsistent DAG.  Raises ValueError on literal 0.
    """
    lits = set(literals)
    if 0 in lits:
        raise ValueError("0 is not a literal")
    if any(-l in lits for l in lits):
        return True
    return pi_evaluate(d, dict.fromkeys(lits, ZERO)) == ZERO


def node_var_sets(d: NnfDag) -> list[frozenset]:
    """Variable set mentioned under each node, bottom-up."""
    out: list[frozenset] = [frozenset()] * len(d.nodes)
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            out[i] = frozenset((abs(arg),))
        else:
            acc: set = set()
            for c in kids:
                acc |= out[c]
            out[i] = frozenset(acc)
    return out


def _top_literal_sets(d: NnfDag) -> list[frozenset]:
    """Literals visible from each node through And edges only."""
    out: list[frozenset] = [frozenset()] * len(d.nodes)
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            out[i] = frozenset((arg,))
        elif op == "A":
            acc: set = set()
            for c in kids:
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
    for op, v, kids in d.nodes:
        if op == "A":
            total = sum(len(var_sets[c]) for c in kids)
            union: set = set()
            for c in kids:
                union |= var_sets[c]
            if total != len(union):
                decomposable = False
        elif op == "O":
            sets = [var_sets[c] for c in kids]
            if sets and any(s != sets[0] for s in sets[1:]):
                smooth = False
            if len(kids) >= 2:
                if not v or len(kids) != 2:
                    deterministic = False
                else:
                    a, b = kids
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
    var_sets = node_var_sets(d)
    new_id = [0] * len(d.nodes)
    for i, (op, arg, kids) in enumerate(d.nodes):
        if op == "L":
            new_id[i] = b.literal(arg)
        elif op == "A":
            new_id[i] = b.conj([new_id[c] for c in kids])
        else:
            grown: list[int] = []
            for c in kids:
                extras = [
                    b.disj([b.literal(v), b.literal(-v)], decision=v)
                    for v in sorted(var_sets[i] - var_sets[c])
                ]
                grown.append(b.conj([new_id[c], *extras]) if extras else new_id[c])
            new_id[i] = b.disj(grown, decision=arg)
    return b.freeze(new_id[d.root], d.num_vars)


def write_nnf(d: NnfDag) -> str:
    """Serialize in the c2d text layout: header then one node per line."""
    lines = [f"nnf {d.node_count()} {d.edge_count()} {d.num_vars}"]
    for op, arg, kids in d.nodes:
        fields = [op] if op == "A" else [op, str(arg)]
        if op != "L":
            fields += [str(len(kids)), *map(str, kids)]
        lines.append(" ".join(fields))
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
    if min(n_nodes, n_edges, n_vars) < 0:
        raise FormatError(f"malformed NNF header: {lines[0]!r}", 1)
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
        op = toks[0]
        try:
            if op == "L" and len(toks) == 2:
                lit = int(toks[1])
                if lit == 0 or abs(lit) > n_vars:
                    raise FormatError(f"literal {lit} out of range", ln)
                nodes.append(("L", lit, ()))
                continue
            if op in ("A", "O"):
                kind = "And" if op == "A" else "Or"
                fields = toks[1:] if op == "O" else ["0", *toks[1:]]  # And: decision 0
                j, count, *kids = map(int, fields)
                if len(kids) != count:
                    raise FormatError(f"{kind} child count mismatch: {line!r}", ln)
                if any(not 0 <= k < idx for k in kids):
                    raise FormatError(f"{kind} child out of range: {line!r}", ln)
                if not 0 <= j <= n_vars:
                    raise FormatError(f"decision variable {j} out of range", ln)
                nodes.append((op, j, tuple(kids)))
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
