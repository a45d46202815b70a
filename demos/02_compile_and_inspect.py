"""A guided tour of the compilation layer.

Walks one network through its CNF encodings (logical and pkb share
one), compiles each to a decomposable NNF DAG, and then pulls the DAGs apart: statistics,
structural properties, conditioning, forgetting, max-min
evaluation, and clause entailment against the compiled knowledge base.
"""

from pathlib import Path

from posskc import (
    LogicalPipeline,
    PkbPipeline,
    cnf_stats,
    compile_cnf,
    condition,
    encode_pf,
    encode_pkb,
    entails_clause,
    forget,
    nnf_stats,
    parse_network,
    pi_evaluate,
    serialize_base,
    structural_properties,
    to_dimacs,
    to_possibilistic_base,
    write_nnf,
)

NET_PATH = Path(__file__).resolve().parent.parent / "fixtures" / "alarm.pnet"


def main() -> None:
    net = parse_network(NET_PATH.read_text())

    print("=== the CNF encodings ===")
    encodings = {
        "pf (local structure)": encode_pf(net, local_structure=True),
        "pf (one parameter per entry)": encode_pf(net, local_structure=False),
        "logical = pkb": encode_pkb(net),
    }
    for name, cnf in encodings.items():
        s = cnf_stats(cnf)
        print(f"  {name:<30} {s['vars']:>3} vars {s['clauses']:>3} clauses")
    print()

    print("=== DIMACS form of the knowledge-base encoding ===")
    print(to_dimacs(encodings["logical = pkb"]))

    print("=== compiling each encoding ===")
    for name, cnf in encodings.items():
        dag = compile_cnf(cnf)
        s = nnf_stats(dag)
        props = structural_properties(dag)
        tags = ",".join(k for k, v in props.items() if v)
        print(f"  {name:<30} {s['nodes']:>4} nodes {s['edges']:>4} edges  [{tags}]")
    print()

    print("=== the knowledge base behind the pkb encoding ===")
    base = to_possibilistic_base(net)
    print(serialize_base(base), end="")
    print(f"  level weights, strongest first: {[str(w) for w in base.levels]}")
    print()

    kb = PkbPipeline(net)
    a1, a2 = kb.level_vars[0][0], kb.level_vars[1][0]
    d1_lit, f1_lit = 3, 1

    print("=== entailment on the compiled base ===")
    print("  does the base force d2 once the strongest stratum is active?")
    print(f"    entails (A1 or d2): {entails_clause(kb.dag, [a1, -d1_lit])}")
    print("  switch off the two strongest strata and assert d1:")
    conditioned = condition(kb.dag, [-a1, -a2, d1_lit])
    print(f"    now entails f1: {entails_clause(conditioned, [f1_lit])}")
    print()

    print("=== condition / forget / evaluate, step by step ===")
    logical = LogicalPipeline(net)
    dag = logical.dag
    print(f"  compiled logical DAG: {nnf_stats(dag)}")
    term = {"F": "f2", "D": "d1"}
    lits = logical.imap.term_literals(term)
    step1 = condition(dag, lits)
    print(f"  condition on {term} -> {nnf_stats(step1)}")
    step2 = forget(step1, logical.imap.all_vars())
    print(f"  forget the instance layer -> {nnf_stats(step2)}")
    degree = pi_evaluate(step2, logical.theta_weights)
    print(f"  max-min evaluation -> Pi{tuple(term.items())} = {degree}")
    one_pass = logical.possibility(term)
    print(f"  the same as one pass over the compiled DAG -> {one_pass}")
    print()

    print("=== serialized NNF (first lines) ===")
    text = write_nnf(step2)
    for line in text.splitlines()[:8]:
        print(f"  {line}")
    print("  ...")


if __name__ == "__main__":
    main()
