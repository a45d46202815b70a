"""Acceptance gate: seven criteria, one verdict line each.

Every degree comparison below is exact integer-rational equality — there
is no numeric tolerance anywhere.  The only pinned slacks are wall-clock
bars (criteria 1 and 7) and the evaluation-scaling ratio of criterion 7,
fixed as module constants.  Each test records a single
"criterion N (...): PASS/FAIL" line that the terminal summary echoes.
"""

import random
import statistics
import time

from posskc.bench import (
    GenConfig,
    cross_validate,
    default_query,
    random_network,
    run_comparison,
)
from posskc.circuits import PfPipeline, encode_pf
from posskc.cnf import cnf_stats
from posskc.compiler import compile_cnf
from posskc.degrees import parse_degree
from posskc.logical import LogicalPipeline, encode_logical
from posskc.network import chain_rule_joint, enumerate_worlds, oracle_conditional
from posskc.nnf import (
    NnfBuilder,
    condition,
    entails_clause,
    forget,
    pi_evaluate,
    structural_properties,
)
from posskc.pkb import PkbPipeline, encode_pkb, pi_sigma, to_possibilistic_base

from helpers import (
    baseline_counts,
    conditioned_models,
    dag_model_mask,
    dag_model_set,
    model_mask,
    random_cnf,
    subcube_patterns,
)

D = parse_degree

FIXTURE_RUNTIME_BUDGET_S = 1.0
DESK_SCALE_BUDGET_S = 60.0
EVAL_DOUBLING_RATIO = 2.5


def record(log, number, name, ok, detail):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    log.append(line)
    print(line)
    assert ok, line


def test_criterion_1_golden_fixture(alarm, acceptance_log):
    t0 = time.perf_counter()
    engines = {
        "oracle": lambda x, e: oracle_conditional(alarm, x, e),
        "pf": PfPipeline(alarm).query,
        "logical": LogicalPipeline(alarm).query,
        "pkb": PkbPipeline(alarm).query,
    }
    checks = [
        ({"D": "d1", "B": "b1"}, {}, D("0.7")),
        ({"F": "f2", "D": "d1"}, {}, D("0.4")),
        ({"F": "f2"}, {"D": "d1"}, D("0.4")),
    ]
    bad = []
    for x, e, want in checks:
        for name, fn in engines.items():
            got = fn(x, e)
            if got != want:
                bad.append(f"{name} Pi({x}|{e}) = {got}, want {want}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < FIXTURE_RUNTIME_BUDGET_S
    detail = (
        f"4 engines x 3 queries exact, {elapsed * 1000:.0f} ms"
        if not bad
        else "; ".join(bad)
    )
    record(acceptance_log, 1, "golden fixture", ok, detail)


def test_criterion_2_stratum_descent_trace(alarm, acceptance_log):
    degree, iterations = PkbPipeline(alarm).query_detail({"F": "f2"}, {"D": "d1"})
    ok = degree == D("0.4") and iterations == 2
    record(
        acceptance_log,
        2,
        "stratum descent trace",
        ok,
        f"Pi(f2|d1) = {degree} in {iterations} iterations (want 0.4 in 2)",
    )


def test_criterion_3_encoding_size_laws(acceptance_log):
    total = 100
    equal_kb_logical = strict_pf_over_kb = pf_within_baseline = 0
    logical_within_baseline = 0
    for i in range(total):
        n = 10 + (i * 40) // (total - 1)
        net = random_network(GenConfig(n_nodes=n, max_parents=3, seed=9000 + i))
        pf = cnf_stats(encode_pf(net, local_structure=True))
        lg = cnf_stats(encode_logical(net))
        kb = cnf_stats(encode_pkb(net))
        circuit_base = baseline_counts(net, "circuit")
        logical_base = baseline_counts(net, "logical")
        equal_kb_logical += kb == lg
        strict_pf_over_kb += pf["vars"] > kb["vars"] and pf["clauses"] > kb["clauses"]
        pf_within_baseline += pf["clauses"] <= circuit_base["clauses"]
        logical_within_baseline += (
            lg["vars"] <= logical_base["vars"]
            and lg["clauses"] <= logical_base["clauses"]
        )
    counts = (
        equal_kb_logical,
        strict_pf_over_kb,
        pf_within_baseline,
        logical_within_baseline,
    )
    ok = all(c == total for c in counts)
    record(
        acceptance_log,
        3,
        "encoding size laws",
        ok,
        f"pkb=logical {counts[0]}/100, pf>pkb strict {counts[1]}/100, "
        f"pf<=circuit-baseline {counts[2]}/100, logical<=baseline {counts[3]}/100",
    )


def test_criterion_4_size_trend(acceptance_log):
    sizes = [10, 20, 30, 40, 50]
    rows, aggregates = run_comparison(sizes, per_size=20, seed=2024)
    busted = sum(r.status != "ok" for r in rows)
    failures = []
    for size in sizes:
        pf = aggregates[(size, "pf")]
        kb = aggregates[(size, "pkb")]
        for col in ("cnf_vars", "cnf_clauses", "nnf_nodes", "nnf_edges"):
            if not kb[col] < pf[col]:
                failures.append(f"n={size} {col}: pkb {kb[col]:.1f} >= pf {pf[col]:.1f}")
    ok = not failures and busted == 0
    detail = (
        f"pkb means below pf means on all 4 columns at all 5 sizes "
        f"(20 nets/size, {busted} over budget)"
        if ok
        else "; ".join(failures) or f"{busted} runs over budget"
    )
    record(acceptance_log, 4, "size trend reproduction", ok, detail)


def test_criterion_5_oracle_equivalence(acceptance_log):
    result = cross_validate(nets=200, max_vars=10, queries=5, seed=31337)
    tally = result.report.splitlines()[1]
    clean = result.checked == 1000 and not result.mismatches

    worlds = 0
    sigma_bad = 0
    for i in range(50):
        net = random_network(
            GenConfig(n_nodes=2 + (i % 7), max_parents=3, seed=40_000 + i)
        )
        base = to_possibilistic_base(net)
        for w in enumerate_worlds(net):
            worlds += 1
            if pi_sigma(base, w) != chain_rule_joint(net, w):
                sigma_bad += 1
    ok = clean and sigma_bad == 0
    record(
        acceptance_log,
        5,
        "oracle equivalence",
        ok,
        f"{tally}; base distribution exact on {worlds - sigma_bad}/{worlds} worlds"
        f" of 50 nets",
    )


def test_criterion_6_compiler_soundness(acceptance_log):
    rng = random.Random(606)
    model_ok = props_ok = ops_checked = ops_ok = 0
    total = 200
    for _ in range(total):
        n = rng.randint(2, 15)
        f = random_cnf(rng, n, rng.randint(1, 2 * n))
        d = compile_cnf(f)
        model_ok += dag_model_mask(d, n) == model_mask(f)
        props_ok += structural_properties(d)["decomposable"]
        if n <= 12:
            k = rng.randint(1, min(3, n))
            term = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), k)
            ]
            got = dag_model_set(condition(d, term), n)
            ops_ok += got == conditioned_models(f, term, n)
            ops_checked += 1

            vs = rng.sample(range(1, n + 1), rng.randint(1, n))
            full, pos = subcube_patterns(n)
            want = model_mask(f)
            for v in vs:
                b = 1 << (n - v)
                want = want | ((want & pos[v]) >> b) | ((want & full & ~pos[v]) << b)
                want &= full
            ops_ok += dag_model_mask(forget(d, vs), n) == want
            ops_checked += 1

            lits = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            ]
            violate = full
            for l in lits:
                violate &= ~pos[abs(l)] if l > 0 else pos[abs(l)]
            want_entails = (dag_model_mask(d, n) & violate) == 0
            ops_ok += entails_clause(d, lits) == want_entails
            ops_checked += 1
    ok = model_ok == total and props_ok == total and ops_ok == ops_checked
    record(
        acceptance_log,
        6,
        "compiler soundness",
        ok,
        f"model sets {model_ok}/{total}, decomposable {props_ok}/{total}, "
        f"condition/forget/entailment {ops_ok}/{ops_checked}",
    )


def _shifted_copy(builder, dag, shift):
    out = []
    for op, arg, kids in dag.nodes:
        if op == "L":
            out.append(builder.literal(arg + shift if arg > 0 else arg - shift))
        elif op == "A":
            out.append(builder.conj([out[c] for c in kids]))
        elif op == "O":
            out.append(builder.disj([out[c] for c in kids]))
        else:
            raise TypeError(f"unknown node {(op, arg, kids)!r}")
    return out[dag.root]


def _eval_ms(dag, weights, reps=3):
    t0 = time.perf_counter()
    for _ in range(reps):
        pi_evaluate(dag, weights)
    return (time.perf_counter() - t0) * 1000 / reps


def _paired_eval_ms(single, doubled, pairs=20):
    """Median ms of each (dag, weights) and the median of the per-pair
    doubled/single ratios.  The two are timed back to back in each pair,
    first one then the other in turn, so that a change of host speed
    between pairs moves both halves of a pair alike."""
    samples = []
    for k in range(pairs):
        if k % 2:
            d, s = _eval_ms(*doubled), _eval_ms(*single)
        else:
            s, d = _eval_ms(*single), _eval_ms(*doubled)
        samples.append((s, d))
    ratios = [d / s if s > 0 else float("inf") for s, d in samples]
    return (
        statistics.median(s for s, _ in samples),
        statistics.median(d for _, d in samples),
        statistics.median(ratios),
    )


def test_criterion_7_desk_scale_performance(acceptance_log):
    t0 = time.perf_counter()
    net = random_network(GenConfig(n_nodes=50, max_parents=3, seed=7777))
    kb = PkbPipeline(net)
    x, e = default_query(net, 7777)
    kb.query(x, e)
    elapsed = time.perf_counter() - t0
    within_budget = elapsed < DESK_SCALE_BUDGET_S

    # evaluation scaling: a DAG with exactly doubled edge count (two
    # variable-disjoint copies under one Or) may cost at most 2.5x
    single = kb.dag
    nv = single.num_vars
    b = NnfBuilder()
    r1 = _shifted_copy(b, single, 0)
    r2 = _shifted_copy(b, single, nv)
    doubled = b.freeze(b.disj([r1, r2]), 2 * nv)
    assert doubled.edge_count() == 2 * single.edge_count() + 2
    weights_single = {vid: w for vid, w in kb.level_vars}
    weights_doubled = dict(weights_single)
    weights_doubled.update({vid + nv: w for vid, w in kb.level_vars})
    med_single, med_doubled, ratio = _paired_eval_ms(
        (single, weights_single), (doubled, weights_doubled)
    )
    scaling_ok = ratio <= EVAL_DOUBLING_RATIO

    ok = within_budget and scaling_ok
    record(
        acceptance_log,
        7,
        "desk scale performance",
        ok,
        f"50-node pkb encode+compile+query {elapsed:.2f} s"
        f" (budget {DESK_SCALE_BUDGET_S:.0f} s);"
        f" doubled-edge evaluation ratio {ratio:.2f} (median of per-pair ratios)"
        f" ({med_single:.2f} ms -> {med_doubled:.2f} ms, bound"
        f" {EVAL_DOUBLING_RATIO})",
    )
