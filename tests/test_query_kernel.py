"""The one-pass query kernel and the pipelines' max-min programs against
the references.

``pi_evaluate`` is checked against a generator-per-node max-min pass on
hand-written c2d DAGs and on the compiled DAGs of all three pipelines,
and a max-min program, node value for node value, against both: on the
hand-written DAGs, on those pipeline DAGs, and as pf's program over its
circuit and logical's over the kb DAG, on every term of 0-2 variables.
``LogicalPipeline.possibility`` and ``PkbPipeline.query_detail`` answer
by max-min passes over the compiled DAG and never build a new one.  Here
they are checked against the condition/forget/evaluate exploration and
the rebuilding stratum descent they replaced (degrees and iteration
counts), and against the brute-force oracle, on binary, multi-valued,
coarse-pool and degree-0 networks.  Each pipeline's one-entry evidence
memo is checked on runs of queries whose evidence repeats and changes,
on caller-mutated and invalid evidence, and by the program runs a
repeated evidence term saves.  Cone runs (``nnf.cone``) from the base
run, and from an earlier run's values, one item after another, are
checked node for node against a fresh run of the whole program and the
reference.  Every slot of a program has one writer, and each cone holds
exactly the instructions that read its refuted slots, directly or
through slots the cone writes (a search over each slot's readers), and
writes exactly the DAG's nodes above its leaves; the pf
and logical joints that run the target's cones on the memoised evidence
run are checked against ``possibility`` and the oracle.  A program's slots
hold ranks in its table of distinct degrees (``slot_nums`` reads them as
numerators); a table past CPython's cached small ints is checked against
the kernel on every single refuted leaf.
"""

import pytest

from posskc import circuits
from posskc import logical as logical_module
from posskc import nnf
from posskc import pkb as pkb_module
from posskc.bench import FINE_POOL_SIZE, GenConfig, SplitMix64, even_pool, random_network
from posskc.circuits import PfPipeline
from posskc.degrees import ONE, SCALE, ZERO, Degree, parse_degree
from posskc.errors import QueryError
from posskc.logical import LogicalPipeline
from posskc.network import (
    PossNetwork,
    conditional,
    parse_network,
    conflicts,
    oracle_conditional,
    oracle_possibility,
)
from posskc.nnf import NnfDag, cone, max_min_program, parse_nnf, pi_evaluate, run_program
from posskc.pkb import PkbPipeline

from helpers import (
    pf_weights,
    reference_explore,
    reference_node_values,
    reference_pi_evaluate,
    reference_query_detail,
    slot_nums,
)

COARSE_POOL = frozenset(Degree(SCALE * (2 * k + 1) // 20) for k in range(10))
"""Ten degrees, 0.05 .. 0.95: levels span many clauses across families."""

ZEROED = frozenset(sorted(COARSE_POOL)[:2])
"""Coarse-pool degrees turned into 0, so the bases carry hard clauses."""

NETS_PER_FAMILY = 16


def with_zeros(net: PossNetwork) -> PossNetwork:
    cpt = {
        name: {key: ZERO if d in ZEROED else d for key, d in table.items()}
        for name, table in net.cpt.items()
    }
    return PossNetwork(net.name, net.variables, net.parents, cpt)


def family(kind: str) -> list[PossNetwork]:
    nets = []
    for i in range(NETS_PER_FAMILY):
        cfg = GenConfig(
            n_nodes=2 + i % (4 if kind == "multivalued" else 6),
            max_parents=2 if kind == "multivalued" else 3,
            seed=7001 + 31 * i,
            binary_only=kind in ("binary", "coarse", "zero"),
            degree_pool=COARSE_POOL if kind in ("coarse", "zero") else even_pool(FINE_POOL_SIZE),
        )
        net = random_network(cfg)
        nets.append(with_zeros(net) if kind == "zero" else net)
    return nets


def random_term(rng: SplitMix64, net: PossNetwork, size: int) -> dict:
    term = {}
    for _ in range(size):
        v = rng.choice(net.variables)
        term[v.name] = rng.choice(v.domain)
    return term


def queries(net: PossNetwork, seed: int) -> list[tuple[dict, dict]]:
    """Random targets and evidence of 0-2 variables, one conflicting pair,
    and target = evidence."""
    rng = SplitMix64(seed)
    out = [
        (random_term(rng, net, 1 + rng.next_below(2)), random_term(rng, net, rng.next_below(3)))
        for _ in range(8)
    ]
    v = net.variables[0]
    out.append(({v.name: v.domain[0]}, {v.name: v.domain[1]}))
    out.append(({v.name: v.domain[-1]}, {v.name: v.domain[-1]}))
    return out


@pytest.mark.parametrize("kind", ["binary", "multivalued", "coarse", "zero"])
def test_one_pass_queries_match_references_and_oracle(kind):
    checked = impossible_evidence = 0
    nets = family(kind)
    for i, net in enumerate(nets):
        logical = LogicalPipeline(net)
        kb = PkbPipeline(net)
        for x, e in queries(net, seed=i):
            expected = oracle_conditional(net, x, e)
            detail = kb.query_detail(x, e)
            assert detail == reference_query_detail(kb, x, e)
            impossible_evidence += detail == (ONE, 0)
            assert detail[0] == expected
            assert logical.query(x, e) == expected
            for term in ({**e, **x}, e, x):
                got = logical.possibility(term)
                assert got == reference_explore(logical.dag, logical, term)
                assert got == oracle_possibility(net, term)
            checked += 1
    assert checked == NETS_PER_FAMILY * 10
    if kind == "zero":
        assert impossible_evidence > 0
    if kind == "multivalued":
        assert any(len(v.domain) > 2 for net in nets for v in net.variables)


HAND_WEIGHTS = {1: parse_degree("0.6"), -1: parse_degree("0.3"), 2: parse_degree("0.2")}
"""Literal -2 is unlisted, so it weighs 1."""

HAND_DAGS = {
    "true-under-and": ("L 1\nA 0\nA 2 0 1", "0.6"),
    "true-under-or": ("L 1\nA 0\nO 0 2 0 1", "1"),
    "false-under-and": ("L 1\nO 0 0\nA 2 0 1", "0"),
    "false-under-or": ("L 1\nO 0 0\nO 0 2 0 1", "0.6"),
    "true-alone": ("A 0", "1"),
    "false-alone": ("O 0 0", "0"),
    "literal-alone": ("L 1", "0.6"),
    "three-child-or": ("L 1\nL -1\nL 2\nO 0 3 0 1 2", "0.6"),
    "three-child-or-max-last": ("L 2\nL -1\nL -2\nO 0 3 0 1 2", "1"),
    "three-child-and": ("L 1\nL -1\nL -2\nA 3 0 1 2", "0.3"),
    "five-child-and": ("L 1\nL -1\nL 2\nL -2\nO 0 2 0 2\nA 5 3 0 4 1 2", "0.2"),
    "five-child-or": ("L 1\nL -1\nL 2\nL -2\nA 2 0 2\nO 0 5 2 4 3 1 0", "1"),
    "single-children-negative-literal": ("L -1\nA 1 0\nO 1 1 1", "0.3"),
    "unlisted-literal": ("L -2\nA 1 0", "1"),
    "repeated-leaf": ("L 1\nL 2\nL 1\nA 2 0 1\nO 0 2 2 3", "0.6"),
    "decision": ("L 1\nL -1\nL 2\nL -2\nA 2 0 2\nA 2 1 3\nO 1 2 4 5", "0.3"),
}

HAND_MAPS = (HAND_WEIGHTS, {}, {-2: parse_degree("0.5")})
"""Fixed weights the hand-written DAGs' programs are built with."""

HAND_REFUTED = ((), (1,), (2,), (-1, 2), (1, -2), (1, -1, 2, -2))
"""Literal sets a run of a hand-written DAG's program refutes."""


def hand_dag(body: str):
    """The DAG of a ``HAND_DAGS`` body, under a header counted from it."""
    lines = body.splitlines()
    edges = sum(len(l.split()) - (3 if l[0] == "O" else 2) for l in lines if l[0] != "L")
    d = parse_nnf(f"nnf {len(lines)} {edges} 2\n{body}\n")
    assert d.edge_count() == edges
    return d


def refuting(w: dict, refuted) -> dict:
    """``w`` with weight 0 on each refuted literal: the map a program run
    that refutes them evaluates."""
    return {**w, **dict.fromkeys(refuted, ZERO)}


def program_run(d, w: dict, refuted=()) -> list[int]:
    """The values, as numerators, of a fresh run of the program of ``d``
    under ``w`` that refutes the given literals."""
    program, leaves = max_min_program(d, w)
    values = program.template.copy()
    run_program(program, values, [leaves[l] for l in set(refuted) if l in leaves])
    return slot_nums(program, values, d)


def rooted(d, i: int) -> NnfDag:
    """The DAG below node i, rooted there: ``pi_evaluate`` of it is node
    i's value."""
    return NnfDag(d.nodes[: i + 1], i, d.num_vars)


@pytest.mark.parametrize("name", sorted(HAND_DAGS))
def test_kernel_matches_reference_on_hand_written_dags(name):
    body, expected = HAND_DAGS[name]
    d = hand_dag(body)
    assert pi_evaluate(d, HAND_WEIGHTS) == reference_pi_evaluate(d, HAND_WEIGHTS)
    assert pi_evaluate(d, HAND_WEIGHTS) == parse_degree(expected)


@pytest.mark.parametrize("name", sorted(HAND_DAGS))
def test_program_matches_kernel_node_for_node_on_hand_written_dags(name):
    """Every node's value, under every fixed map and refuted set, is the
    reference's and the kernel's on the DAG rooted at that node."""
    d = hand_dag(HAND_DAGS[name][0])
    for w in HAND_MAPS:
        for refuted in HAND_REFUTED:
            full = refuting(w, refuted)
            values = program_run(d, w, refuted)
            assert values == reference_node_values(d, full)
            assert [pi_evaluate(rooted(d, i), full).num for i in range(len(d.nodes))] == values
    program, _ = max_min_program(d, HAND_WEIGHTS)
    expected = parse_degree(HAND_DAGS[name][1])
    assert run_program(program, program.template.copy()) == expected


def kernel_networks() -> list[PossNetwork]:
    """24 networks: binary and multi-valued on the fine pool, and
    nine-level ones of both shapes."""
    nets = []
    for i in range(24):
        kind = ("binary", "multivalued", "nine")[i % 3]
        nets.append(random_network(GenConfig(
            n_nodes=4 + i % 5,
            max_parents=2,
            seed=9100 + i,
            binary_only=kind == "binary" or (kind == "nine" and i % 2 == 0),
            degree_pool=even_pool(9) if kind == "nine" else even_pool(FINE_POOL_SIZE),
        )))
    return nets


def random_weights(rng: SplitMix64, num_vars: int) -> dict:
    """Random weights on about half the literals, then weight 0 on the
    negation of each literal of a random term."""
    degrees = (ZERO, ONE, *(Degree(1 + rng.next_below(SCALE - 1)) for _ in range(6)))
    w = {
        lit: rng.choice(degrees)
        for v in range(1, num_vars + 1)
        for lit in (v, -v)
        if rng.next_below(2)
    }
    return refuting(w, random_refuted(rng, num_vars))


def random_refuted(rng: SplitMix64, num_vars: int) -> list[int]:
    """The negation of each literal of a random term."""
    return [v if rng.next_below(2) else -v for v in range(1, num_vars + 1) if rng.next_below(4) == 0]


def test_kernel_matches_reference_on_pipeline_dags():
    """On each pipeline's full DAG, the kernel's root and the program's
    every node match the reference, the program's fixed weights random
    and its run refuting a random term."""
    rng = SplitMix64(0x4B45524E)
    values = set()
    nets = kernel_networks()
    for net in nets:
        for build in (PfPipeline, LogicalPipeline, PkbPipeline):
            d = build(net).dag
            for _ in range(6):
                w = random_weights(rng, d.num_vars)
                refuted = random_refuted(rng, d.num_vars)
                got = pi_evaluate(d, w)
                assert got == reference_pi_evaluate(d, w)
                assert program_run(d, w, refuted) == reference_node_values(d, refuting(w, refuted))
                values.add(got)
    assert any(len(v.domain) > 2 for net in nets for v in net.variables)
    assert {ZERO, ONE} < values  # zero, one, and degrees strictly between


def check_pipeline_cones(pipeline, term, values) -> None:
    """``values``, the pipeline's cone runs for ``term``'s items one after
    another, equal one run of the whole program with all their leaves
    zeroed, and so do the cones of the term's last item run on the
    memoised pass of the rest, as a joint runs them."""
    refuted = [s for item in term.items() for s in pipeline.refutes[item]]
    fresh = pipeline.program.template.copy()
    run_program(pipeline.program, fresh, refuted)
    assert values == fresh
    if len(term) == 2:
        e, x = dict(list(term.items())[:1]), dict(list(term.items())[1:])
        pipeline._evidence(e)
        held, (evidence, _) = pipeline.evidence.entry
        joint = evidence.copy()
        assert pipeline._run(joint, x.items()) == pipeline._joint(term)
        assert joint == fresh


@pytest.mark.parametrize("kind", ["binary", "multivalued", "coarse", "zero"])
def test_pipeline_programs_match_the_kernel_node_for_node(kind):
    """pf's program over its circuit and logical's over the kb DAG, run on
    every term of 0-2 variables by the cones of its items from the base
    run, fill every node with the reference's value under the weights the
    pass stands for, and the root with the kernel's; so does a run of
    the whole program, and the cone of the term's second item on the
    memoised pass of its first."""
    checked = 0
    for net in family(kind):
        pf, logical = PfPipeline(net), LogicalPipeline(net)
        circuit, dag = pf.circuit, logical.dag
        for term in (t for size in range(3) for t in every_term(net, size)):
            values, got = pf._pass(term)
            w = pf_weights(pf, term)
            assert slot_nums(pf.program, values, circuit) == reference_node_values(circuit, w)
            assert got == pi_evaluate(circuit, w)
            check_pipeline_cones(pf, term, values)
            values, got = logical._pass(term)
            w = refuting(logical.theta_weights, [-l for l in logical.imap.term_literals(term)])
            assert slot_nums(logical.program, values, dag) == reference_node_values(dag, w)
            assert got == pi_evaluate(dag, w)
            check_pipeline_cones(logical, term, values)
            checked += 1
    assert checked > 500


MULTIVALUED_TARGET = """network m
var X x1 x2 x3 x4
var Y y1 y2
parents Y X
cpt X
x1 : 1
x2 : 0.6
x3 : 0.3
x4 : 0.2
cpt Y
y1 | x1 : 1
y2 | x1 : 0.4
y1 | x2 : 0.7
y2 | x2 : 1
y1 | x3 : 1
y2 | x3 : 0.5
y1 | x4 : 0.1
y2 | x4 : 1
"""
"""A four-valued root whose every indicator is a leaf of pf's circuit."""


def test_multivalued_pf_target_zeroes_its_other_values_in_one_cone():
    """A pf target on a d-valued variable refutes d - 1 indicator leaves:
    its one cone, from the base run and from every evidence run, equals a
    fresh run with them zeroed, and answers the oracle."""
    net = parse_network(MULTIVALUED_TARGET)
    pf = PfPipeline(net)
    circuit = pf.circuit
    for x in every_term(net, 1):
        if x.keys() == {"X"}:
            assert len(pf.refutes[next(iter(x.items()))]) == 3
        values, _ = pf._pass(x)
        assert slot_nums(pf.program, values, circuit) == reference_node_values(circuit, pf_weights(pf, x))
        check_pipeline_cones(pf, x, values)
        for e in every_term(net, 0) + every_term(net, 1):
            if not conflicts(x, e):
                check_pipeline_cones(pf, {**e, **x}, pf._pass({**e, **x})[0])
            assert pf.query(x, e) == oracle_conditional(net, x, e)
    assert all(pf.cones[("X", v)].out for v in ("x1", "x2", "x3", "x4"))


def reached(d, lits) -> set:
    """The nodes of ``d`` whose value depends on a leaf of ``lits``: those
    leaves and every node above one, read off the DAG."""
    out: set = set()
    for i, (op, arg, kids) in enumerate(d.nodes):
        if (arg in lits) if op == "L" else not out.isdisjoint(kids):
            out.add(i)
    return out


def readers_of(program, slots) -> list[int]:
    """The instructions of ``program`` that read one of ``slots``, directly
    or through a slot such an instruction writes, found by a search over
    each slot's readers; in program order."""
    readers: dict = {}
    for k, (a, b) in enumerate(zip(program.left, program.right)):
        for s in {a, b}:
            readers.setdefault(s, []).append(k)
    found: set = set()
    todo = list(slots)
    while todo:
        for k in readers.get(todo.pop(), ()):
            if k not in found:
                found.add(k)
                todo.append(program.out[k])
    return sorted(found)


def first_leaves(d) -> dict:
    """Each literal's first leaf in ``d``."""
    first: dict = {}
    for i, (op, arg, _) in enumerate(d.nodes):
        if op == "L":
            first.setdefault(arg, i)
    return first


def check_single_writers(d, program) -> None:
    """Every slot has at most one writer, which follows the writers of the
    slots it reads; an internal node's or repeated leaf's slot is written,
    and every slot past the nodes is a chain step's scratch slot."""
    n = len(d.nodes)
    assert len(set(program.out)) == len(program.out)
    first = first_leaves(d)
    internal = {i for i, (op, arg, kids) in enumerate(d.nodes) if kids or (op == "L" and first[arg] != i)}
    assert {o for o in program.out if o < n} == internal
    assert {o for o in program.out if o >= n} == set(range(n, len(program.template)))
    written = set()
    for o, a, b in zip(program.out, program.left, program.right):
        assert all(s in written or (s < n and s not in internal) for s in (a, b))
        written.add(o)


def check_cone(d, program, leaves, lits) -> None:
    """The cone of ``lits``' first leaves holds, in program order, exactly
    the instructions that read one of those slots, directly or through
    slots the cone writes, and the node slots it writes are the nodes
    above those leaves."""
    slots = [leaves[l] for l in lits if l in leaves]
    c = cone(program, slots)
    expected = readers_of(program, slots)
    assert list(c.out) == [program.out[k] for k in expected]
    assert list(c.left) == [program.left[k] for k in expected]
    assert list(c.right) == [program.right[k] for k in expected]
    assert list(c.ands) == [program.ands[k] for k in expected]
    assert (c.template, c.root) == (program.template, program.root)
    nodes = reached(d, set(lits)) - set(leaves.values())
    assert {o for o in c.out if o < len(d.nodes)} == nodes


def check_resumed(d, w: dict, held, new) -> bool:
    """Cone runs of the program of ``d`` under ``w``: from the base run
    (the template, the reference's values), the cones of ``held``'s
    literals one after another, and then those of ``new``'s on a copy of
    the result, fill the same values, as ints, as a fresh run of the whole
    program that refutes both; so does one cone of all their leaves from
    the base run, and every value is the reference's.  Returns whether
    the held and the full run give different roots, so the cones had
    work."""
    program, leaves = max_min_program(d, w)
    assert slot_nums(program, program.template, d) == reference_node_values(d, w)
    slots = lambda lits: [leaves[l] for l in dict.fromkeys(lits) if l in leaves]

    def by_cones(values: list, lits) -> list:
        for s in slots(lits):
            run_program(cone(program, [s]), values, [s])
        return values

    prior = by_cones(program.template.copy(), held)
    assert slot_nums(program, prior, d) == reference_node_values(d, refuting(w, held))
    both = slots([*held, *new])
    fresh = program.template.copy()
    run_program(program, fresh, both)
    nums = slot_nums(program, fresh, d)
    assert nums == reference_node_values(d, refuting(w, [*held, *new]))
    assert by_cones(prior.copy(), new) == fresh
    values = program.template.copy()
    assert run_program(cone(program, both), values, both) == Degree(nums[d.root])
    assert values == fresh
    for lits in (held, new, [*held, *new]):
        check_cone(d, program, leaves, lits)
    return prior[d.root] != fresh[d.root]


@pytest.mark.parametrize("name", sorted(HAND_DAGS))
def test_resumed_pass_equals_a_fresh_one_on_hand_written_dags(name):
    """Cones from the base run and from an earlier run's values, on every
    pair of refuted sets."""
    d = hand_dag(HAND_DAGS[name][0])
    for w in HAND_MAPS:
        for held in HAND_REFUTED:
            for new in HAND_REFUTED:
                check_resumed(d, w, held, new)


def test_cone_skips_the_chain_steps_before_a_refuted_last_child():
    """Refuting the last child of a three-child Or, the one that holds its
    maximum, re-runs only the chain's last step: the first step keeps the
    max of the other two in a scratch slot of its own."""
    d = hand_dag(HAND_DAGS["three-child-or-max-last"][0])
    program, leaves = max_min_program(d, HAND_WEIGHTS)
    assert list(program.out) == [4, 3] and len(program.template) == 5
    assert slot_nums(program, program.template, d)[3] == SCALE
    slot = leaves[-2]
    c = cone(program, [slot])
    assert (list(c.out), list(c.left), list(c.right)) == ([3], [4], [slot])
    values = program.template.copy()
    assert run_program(c, values, [slot]) == parse_degree("0.3")
    assert slot_nums(program, values, d) == reference_node_values(d, refuting(HAND_WEIGHTS, [-2]))


@pytest.mark.parametrize("name", sorted(HAND_DAGS))
def test_every_cone_holds_exactly_the_readers_of_its_slots_on_hand_written_dags(name):
    """Every slot has one writer, and the cone of every refuted set holds
    exactly the instructions that read its leaves, directly or through
    slots the cone writes."""
    d = hand_dag(HAND_DAGS[name][0])
    for w in HAND_MAPS:
        program, leaves = max_min_program(d, w)
        check_single_writers(d, program)
        for lits in HAND_REFUTED:
            check_cone(d, program, leaves, lits)


@pytest.mark.parametrize("kind", ["multivalued", "coarse"])
def test_every_cone_holds_exactly_the_readers_of_its_slots_on_pipeline_programs(kind):
    """pf's program over its circuit and logical's over the kb DAG: every
    slot has one writer, and the cone of each term item's leaves, and of
    each two adjacent items', holds exactly the instructions that read them,
    directly or through slots the cone writes."""
    chains = 0
    for net in family(kind):
        pf, logical = PfPipeline(net), LogicalPipeline(net)
        for pipeline, d in ((pf, pf.circuit), (logical, logical.dag)):
            program = pipeline.program
            check_single_writers(d, program)
            chains += len(program.template) > len(d.nodes)
            leaves, items = first_leaves(d), list(pipeline.refutes.values())
            for slots in items + [a + b for a, b in zip(items, items[1:])]:
                check_cone(d, program, leaves, [d.nodes[s][1] for s in slots])
    assert chains > 0


WIDE_VARS = 160
"""320 literals, so a program's rank table outgrows CPython's small ints."""


def wide_dag(num_vars: int) -> NnfDag:
    """A balanced tree over one leaf per literal, And at its even levels
    and Or at its odd ones; a level of odd width ends in a three-child
    node."""
    nodes = [("L", lit, ()) for v in range(1, num_vars + 1) for lit in (v, -v)]
    level, op = list(range(len(nodes))), "A"
    while len(level) > 1:
        groups = [level[i : i + 2] for i in range(0, len(level), 2)]
        if len(groups[-1]) == 1:
            groups[-2:] = [groups[-2] + groups[-1]]
        level = []
        for kids in groups:
            level.append(len(nodes))
            nodes.append((op, 0, tuple(kids)))
        op = "O" if op == "A" else "A"
    return NnfDag(tuple(nodes), len(nodes) - 1, num_vars)


def test_rank_table_past_the_small_int_cache():
    """Fixed weights with more than 256 distinct degrees, two of them equal
    but distinct objects, and one literal unlisted: the program's rank
    table rises strictly from ZERO to ONE, holds only degrees it was
    given, and every single refuted leaf's cone, and the whole program,
    answer ``pi_evaluate``; every cone shares the table, and a
    ``ProgramPipeline`` answers with its elements."""
    rng = SplitMix64(0x52414E4B)
    d = wide_dag(WIDE_VARS)
    lits = [lit for v in range(1, WIDE_VARS + 1) for lit in (v, -v)]
    w = {lit: Degree(1 + rng.next_below(SCALE - 1)) for lit in lits[:-1]}
    w[2] = Degree(w[1].num)
    assert w[2] is not w[1] and len(set(w.values())) > 256
    program, leaves = max_min_program(d, w)
    table = program.degrees
    assert len(table) == len(set(w.values())) + 2 > 258
    assert table[0] is ZERO and table[-1] is ONE
    assert all(a.num < b.num for a, b in zip(table, table[1:]))
    given = {id(deg) for deg in (ZERO, ONE, *w.values())}
    assert all(id(deg) in given for deg in table)
    assert max(program.template) == len(table) - 1
    assert slot_nums(program, program.template, d) == reference_node_values(d, w)
    changed = 0
    for lit in lits:
        slot = leaves[lit]
        expected = pi_evaluate(d, refuting(w, [lit]))
        c = cone(program, [slot])
        assert c.degrees is table
        values = program.template.copy()
        got = run_program(c, values, [slot])
        assert got == expected and any(got is deg for deg in table)
        whole = program.template.copy()
        assert run_program(program, whole, [slot]) == expected
        assert values == whole
        changed += expected != pi_evaluate(d, w)
    assert changed > 0
    names = [f"V{v}" for v in range(1, WIDE_VARS + 1)]
    net = parse_network(
        "network wide\n"
        + "".join(f"var {n} t f\n" for n in names)
        + "".join(f"cpt {n}\nt : 1\nf : 0.5\n" for n in names)
    )
    zeroes = {(n, val): [-v if val == "t" else v] for v, n in enumerate(names, 1) for val in "tf"}
    pipeline = nnf.ProgramPipeline(net, d, w, zeroes)
    assert pipeline.program.degrees == table
    for v, n in enumerate(names[:40], 1):
        for val, lit in (("t", -v), ("f", v)):
            got = pipeline.possibility({n: val})
            assert got == pi_evaluate(d, refuting(w, [lit]))
            assert any(got is deg for deg in pipeline.program.degrees)
        x, e = {n: "t"}, {names[-1]: "f"}
        got = pipeline.query(x, e)
        assert any(got is deg for deg in pipeline.program.degrees)
    assert all(c.degrees is pipeline.program.degrees for c in pipeline.cones.values())


def test_resumed_pass_equals_a_fresh_one_on_pipeline_dags():
    """Fixed weights and the held refuted term are random; the new run
    refutes either another random term or a few more literals, as a
    target adds."""
    rng = SplitMix64(0x52455355)
    changed = 0
    for net in kernel_networks():
        for build in (PfPipeline, LogicalPipeline, PkbPipeline):
            d = build(net).dag
            for _ in range(4):
                w = random_weights(rng, d.num_vars)
                held = random_refuted(rng, d.num_vars)
                more = [lit for lit in random_weights(rng, d.num_vars) if lit % 3 == 0]
                for new in (random_refuted(rng, d.num_vars), more):
                    changed += check_resumed(d, w, held, new)
    assert changed > 100


def every_term(net: PossNetwork, size: int) -> list[dict]:
    """Every term on ``size`` distinct variables, size 0, 1 or 2."""
    if size == 0:
        return [{}]
    singles = [{v.name: val} for v in net.variables for val in v.domain]
    if size == 1:
        return singles
    return [
        {**a, **b} for i, a in enumerate(singles) for b in singles[i + 1 :] if a.keys() != b.keys()
    ]


@pytest.mark.parametrize("kind", ["binary", "multivalued", "coarse", "zero"])
def test_resumed_joint_matches_a_fresh_pass_and_the_oracle(kind):
    """Every evidence term of 0-2 variables, each with every one-variable
    target (on the evidence variables too, with their value and another)
    and some two-variable ones: pf and logical answer the oracle's
    conditional, and the joint, the target's cones run on a copy of the
    memoised evidence pass, is the fresh ``possibility`` of x and e."""
    resumed = 0
    for net in family(kind)[::2]:
        oracle: dict = {}

        def possibility(term):
            key = frozenset(term.items())
            if key not in oracle:
                oracle[key] = oracle_possibility(net, term)
            return oracle[key]

        names = net.var_names
        targets = every_term(net, 1) + [
            {a: net.domain_of(a)[-1], b: net.domain_of(b)[0]} for a, b in zip(names, names[1:])
        ]
        for pipeline in (PfPipeline(net), LogicalPipeline(net)):
            for e in (t for size in range(3) for t in every_term(net, size)):
                for x in targets:
                    got = conditional(net, pipeline._joint, x, e, pipeline._evidence)
                    assert got == conditional(net, possibility, x, e)
                    assert pipeline.query(x, e) == got.degree
                    if not conflicts(x, e):
                        assert got.joint == pipeline.possibility({**e, **x})
                        resumed += not x.items() <= e.items()
    assert resumed > 1000


ONE_LEAF_NETS = (
    "network z\nvar X x1 x2\ncpt X\nx1 : 1\nx2 : 0",
    "network z\nvar X x1 x2 x3\ncpt X\nx1 : 1\nx2 : 0\nx3 : 0",
)
"""Networks whose pf circuit is the one leaf x1."""


@pytest.mark.parametrize("text", ONE_LEAF_NETS)
def test_joint_that_refutes_the_only_leaf(text):
    """A one-leaf circuit's program, and so the leaf's cone, has no
    instruction: a joint that refutes the leaf must still write the 0 and
    read the root, not answer Pi(e)."""
    net = parse_network(text)
    pf = PfPipeline(net)
    assert not pf.program.out
    for pipeline in (pf, LogicalPipeline(net)):
        for x in every_term(net, 1):
            for e in every_term(net, 0) + every_term(net, 1):
                assert pipeline.query(x, e) == oracle_conditional(net, x, e)
    assert pf.cones and not any(c.out for c in pf.cones.values())


def impossible_evidence(net: PossNetwork) -> dict | None:
    """A term of one or two variables with Pi(term) = 0, if the net has one."""
    for a in net.variables:
        for b in net.variables:
            for va in a.domain:
                for vb in b.domain:
                    term = {a.name: va, b.name: vb}
                    if oracle_possibility(net, term) == ZERO:
                        return term
    return None


def interleaved(net: PossNetwork, seed: int) -> list[tuple[dict, dict]]:
    """e1, e1, e2, e1, no evidence, impossible evidence (when the net has
    one), then a target that conflicts with e1."""
    rng = SplitMix64(seed)
    e1 = random_term(rng, net, 1 + rng.next_below(2))
    e2 = random_term(rng, net, 1 + rng.next_below(2))
    evidence = [e1, e1, e2, e1, {}]
    impossible = impossible_evidence(net)
    if impossible is not None:
        evidence.append(impossible)
    out = [(random_term(rng, net, 1), e) for e in evidence]
    var, val = next(iter(e1.items()))
    other = next(v for v in net.variable(var).domain if v != val)
    out.append(({var: other}, e1))
    return out


@pytest.mark.parametrize("kind", ["binary", "multivalued", "coarse", "zero"])
def test_evidence_memo_on_interleaved_evidence(kind):
    """One set of pipelines per network answers a run of queries whose
    evidence repeats, changes and comes back, so each pipeline's memo is
    hit, replaced and hit again; every answer must still be the oracle's."""
    impossible = 0
    for i, net in enumerate(family(kind)):
        pf, logical, kb = PfPipeline(net), LogicalPipeline(net), PkbPipeline(net)
        for x, e in interleaved(net, seed=100 + i):
            expected = oracle_conditional(net, x, e)
            assert pf.query(x, e) == expected
            assert logical.query(x, e) == expected
            detail = kb.query_detail(x, e)
            assert detail == reference_query_detail(kb, x, e)
            assert detail[0] == expected
            impossible += oracle_possibility(net, e) == ZERO
    if kind == "zero":
        assert impossible > 0


@pytest.mark.parametrize("build", [PfPipeline, LogicalPipeline, PkbPipeline])
def test_evidence_memo_keys_a_snapshot_and_survives_invalid_terms(alarm, build):
    pipeline = build(alarm)
    x = {"F": "f2"}
    e = {"D": "d1"}
    assert pipeline.query(x, e) == oracle_conditional(alarm, x, e)
    e["D"] = "d2"  # the caller reuses its dict
    assert pipeline.query(x, e) == oracle_conditional(alarm, x, e)
    e["B"] = "b2"
    assert pipeline.query(x, e) == oracle_conditional(alarm, x, e)
    held = pipeline.evidence.entry
    cones = dict(getattr(pipeline, "cones", {}))
    assert ("F", "f1") not in cones  # a bad term's valid first item builds no cone
    for bad in ({"Q": "q1"}, {"D": "d3"}, {"F": "f1", "D": "d3"}):
        for ask in (lambda: pipeline.query(x, bad), lambda: pipeline.possibility(bad)):
            with pytest.raises(QueryError):
                ask()
            assert pipeline.evidence.entry is held
            assert getattr(pipeline, "cones", {}) == cones
    if build is not PkbPipeline:
        items = {(v.name, val) for v in alarm.variables for val in v.domain}
        assert set(pipeline.refutes) == items
    assert pipeline.query({"F": "f1"}, e) == oracle_conditional(alarm, {"F": "f1"}, e)
    assert pipeline.query(x, {}) == oracle_conditional(alarm, x, {})


ALARM_TARGETS = ({"F": "f2"}, {"F": "f1"}, {"B": "b2"}, {"B": "b1"})
"""Asked in this order, each under the evidence D=d1."""


def counting(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name``."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("module", [circuits, logical_module])
def test_repeated_evidence_costs_one_pass_per_query(alarm, monkeypatch, module):
    """pf and logical run through the one ``nnf.ProgramPipeline._run``."""
    pipeline = (PfPipeline if module is circuits else LogicalPipeline)(alarm)
    calls = counting(monkeypatch, nnf, "run_program")
    per_query = []
    for x in ALARM_TARGETS:
        before = len(calls)
        assert pipeline.query(x, {"D": "d1"}) == oracle_conditional(alarm, x, {"D": "d1"})
        per_query.append(len(calls) - before)
    assert per_query == [2, 1, 1, 1]


def test_repeated_evidence_skips_pkb_evidence_checks(alarm, monkeypatch):
    kb = PkbPipeline(alarm)
    calls = counting(monkeypatch, pkb_module, "entails_clause")
    per_query = []
    details = []
    for x in ALARM_TARGETS:
        before = len(calls)
        details.append(kb.query_detail(x, {"D": "d1"}))
        per_query.append(len(calls) - before)
        if before:
            # every check after the first query refutes the target
            not_x = {-l for l in kb.imap.term_literals(x)}
            assert all(not_x <= set(clause) for _, clause in calls[before:])
    # Pi(D=d1) = 0.7 sets the evidence stratum at i = 3 of L = 4 (weights
    # 0.8, 0.6, 0.3, 0.2): one hard check and two bisection steps, once.
    assert details == [(parse_degree("0.4"), 2), (ONE, 3), (parse_degree("0.4"), 2), (ONE, 3)]
    assert per_query == [3 + 3, 3, 3, 3]
