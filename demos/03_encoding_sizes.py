"""Comparing the three pipelines on generated networks.

Runs a small randomized sweep, prints per-size mean encoding and
compiled-DAG sizes for each method, and finishes with a cross-validation
pass that checks every pipeline against the brute-force oracle.

The full-size sweep used for reporting is the same call with
sizes=[10, 20, 30, 40, 50] and per_size=20; this demo keeps the sizes
small so it finishes in a few seconds.
"""

import io

from posskc import cross_validate, run_comparison


def main() -> None:
    sizes = [5, 10, 15, 20]
    per_size = 5
    print(f"sweep: sizes {sizes}, {per_size} networks per size")
    rows, aggregates = run_comparison(sizes, per_size=per_size, seed=404)
    print(f"  {len(rows)} pipeline runs, "
          f"{sum(r.status != 'ok' for r in rows)} over budget")
    print()

    header = (
        f"  {'size':>4} {'method':<8} {'cnf_vars':>9} {'cnf_clauses':>11} "
        f"{'nnf_nodes':>10} {'nnf_edges':>10}"
    )
    print(header)
    for size in sizes:
        for method in ("pf", "logical", "pkb"):
            m = aggregates[(size, method)]
            print(
                f"  {size:>4} {method:<8} {m['cnf_vars']:>9.1f} "
                f"{m['cnf_clauses']:>11.1f} {m['nnf_nodes']:>10.1f} "
                f"{m['nnf_edges']:>10.1f}"
            )
        print()

    print("note: the knowledge-base route needs no indicator block, so its")
    print("CNF stays below the circuit encoding at every size; the logical")
    print("and knowledge-base encodings coincide in vars and clauses.")
    print()

    print("the same sweep as CSV (first lines):")
    buf = io.StringIO()
    run_comparison([4], per_size=2, seed=11, out=buf)
    for line in buf.getvalue().splitlines()[:7]:
        print(f"  {line}")
    print("  ...")
    print()

    print("cross-validating compiled answers against the oracle:")
    result = cross_validate(nets=20, max_vars=7, queries=4, seed=2718)
    for line in result.report.splitlines()[:2]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
