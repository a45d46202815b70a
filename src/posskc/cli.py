"""Batch command line front end.

Subcommands cover the whole toolkit: validate and query networks, run
the brute-force oracle, emit the three CNF encodings, compile and
transform DIMACS files, tabulate per-method sizes, and drive the sweep
and cross-validation harnesses.

Exit codes: 0 success, 1 runtime failure (compile budget, size guard,
I/O, a failed assertion or cross-check), 2 invalid input file or query,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import FINE_POOL_SIZE, METHODS, cross_validate, even_pool, run_comparison
from .cnf import cnf_stats, parse_dimacs, to_dimacs
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .errors import (
    CompileBudgetError,
    PosskcError,
    QueryError,
    SizeGuardError,
)
from .network import PossNetwork, conditional, oracle_conditional, parse_network
from .nnf import nnf_stats, smooth, structural_properties, write_nnf

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_term(text: str) -> dict:
    """VAR=val[,VAR=val...] into an event term."""
    term: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        var, sep, val = part.partition("=")
        var, val = var.strip(), val.strip()
        if not sep or not var or not val:
            raise QueryError(f"expected VAR=val, got {part!r}")
        if var in term and term[var] != val:
            raise QueryError(f"variable {var} assigned twice in one term")
        term[var] = val
    return term


def _load_network(path: str) -> PossNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _int_range(low: int, high: int | None = None):
    """argparse type: an integer from ``low`` up to ``high`` (no upper
    end when None), so every range is checked once, at parse time."""
    span = f"at least {low}" if high is None else f"between {low} and {high}"

    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value

    return integer


def _parse_sizes(spec: str) -> list[int]:
    """argparse type: a comma list (10,20,30) or an inclusive range
    (10:50:10) of network sizes, each at least 1."""
    try:
        if ":" in spec:
            parts = [int(tok) for tok in spec.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError
            step = parts[2] if len(parts) == 3 else 1
            sizes = list(range(parts[0], parts[1] + 1, step)) if step > 0 else []
        else:
            sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"bad sizes {spec!r}: expected start:stop[:step] or a comma list, each size at least 1"
        )
    return sizes


def _cmd_validate(args) -> int:
    net = _load_network(args.network)
    entries = sum(len(net.cpt[v.name]) for v in net.variables)
    print(
        f"ok: {net.name}: {len(net.variables)} variables, "
        f"{sum(len(net.parents[v.name]) for v in net.variables)} edges, "
        f"{entries} table entries"
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    net = _load_network(args.network)
    x = parse_term(args.target)
    e = parse_term(args.evidence)
    print(oracle_conditional(net, x, e))
    return EXIT_OK


def _cmd_query(args) -> int:
    net = _load_network(args.network)
    x = parse_term(args.target)
    e = parse_term(args.evidence)
    t0 = time.perf_counter()
    pipeline = METHODS[args.method][0](net)
    compile_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    degree = pipeline.query(x, e)
    query_ms = (time.perf_counter() - t1) * 1000.0
    if not args.json:
        print(degree)
        return EXIT_OK
    answer = conditional(net, pipeline.possibility, x, e)  # the two marginals, untimed
    payload = {
        "degree": str(degree),
        "joint": str(answer.joint),
        "evidence": str(answer.evidence),
        "method": args.method,
        "compile_ms": round(compile_ms, 3),
        "query_ms": round(query_ms, 3),
    }
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_encode(args) -> int:
    if args.no_local_structure and args.method != "pf":
        print("encode: --no-local-structure applies to --method pf only", file=sys.stderr)
        return EXIT_USAGE
    net = _load_network(args.network)
    cnf = METHODS[args.method][1](net, not args.no_local_structure)
    _write_out(args.output, to_dimacs(cnf))
    return EXIT_OK


def _cmd_compile(args) -> int:
    with open(args.cnf, "r", encoding="utf-8") as fh:
        f = parse_dimacs(fh.read())
    dag = compile_cnf(f, node_budget=args.node_budget)
    if args.smooth:
        dag = smooth(dag)
    if args.assert_deterministic:
        if not structural_properties(dag)["deterministic"]:
            print("compiled DAG is not deterministic", file=sys.stderr)
            return EXIT_RUNTIME
    _write_out(args.output, write_nnf(dag))
    return EXIT_OK


def _cmd_stats(args) -> int:
    net = _load_network(args.network)
    header = f"{'method':<8} {'cnf_vars':>8} {'cnf_clauses':>11} {'nnf_nodes':>9} {'nnf_edges':>9}"
    print(header)
    for method, (build, _) in METHODS.items():
        try:
            pipeline = build(net, node_budget=args.node_budget)
            n = nnf_stats(pipeline.dag)
        except CompileBudgetError:
            print(f"{method:<8} {'budget exceeded':>40}")
            continue
        c = cnf_stats(pipeline.cnf)
        print(
            f"{method:<8} {c['vars']:>8} {c['clauses']:>11} "
            f"{n['nodes']:>9} {n['edges']:>9}"
        )
    return EXIT_OK


def _cmd_bench(args) -> int:
    to_file = args.output not in (None, "-")
    out = args.output if to_file else sys.stdout
    rows, _ = run_comparison(
        args.sizes,
        per_size=args.per_size,
        seed=args.seed,
        out=out,
        degree_pool=None if args.degrees is None else even_pool(args.degrees),
        node_budget=args.node_budget,
    )
    if to_file:
        busted = sum(r.status != "ok" for r in rows)
        note = f" ({busted} over budget)" if busted else ""
        print(f"wrote {len(rows)} rows to {args.output}{note}")
    return EXIT_OK


def _cmd_check(args) -> int:
    result = cross_validate(
        nets=args.nets,
        max_vars=args.max_vars,
        queries=args.queries,
        seed=args.seed,
        degree_pool=None if args.degrees is None else even_pool(args.degrees),
    )
    _write_out(args.output, result.report)
    if args.output not in (None, "-"):
        print(result.report.splitlines()[1])
    return EXIT_RUNTIME if result.mismatches else EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="posskc", description=__doc__.splitlines()[0])
    degrees_help = "draw degrees from K evenly spaced values in (0,1) (default: the fine pool)"
    positive, degrees = _int_range(1), _int_range(1, FINE_POOL_SIZE)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and validate a network file")
    sp.add_argument("network")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("oracle", help="brute-force conditional possibility")
    sp.add_argument("network")
    sp.add_argument("--target", required=True, help="VAR=val[,VAR=val...]")
    sp.add_argument("--evidence", default="", help="VAR=val[,VAR=val...]")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("query", help="answer a conditional query by compilation")
    sp.add_argument("network")
    sp.add_argument("--method", required=True, choices=sorted(METHODS))
    sp.add_argument("--target", required=True, help="VAR=val[,VAR=val...]")
    sp.add_argument("--evidence", default="", help="VAR=val[,VAR=val...]")
    sp.add_argument("--json", action="store_true", help="emit a JSON record, with the two marginals")
    sp.set_defaults(fn=_cmd_query)

    sp = sub.add_parser("encode", help="write a CNF encoding in DIMACS form")
    sp.add_argument("network")
    sp.add_argument("--method", required=True, choices=sorted(METHODS))
    sp.add_argument(
        "--no-local-structure",
        action="store_true",
        help="pf only: one parameter per table entry",
    )
    sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=_cmd_encode)

    sp = sub.add_parser("compile", help="compile a DIMACS file to an NNF DAG")
    sp.add_argument("cnf")
    sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    sp.add_argument("--smooth", action="store_true", help="smooth the result")
    sp.add_argument(
        "--assert-deterministic",
        action="store_true",
        help="fail unless the result is deterministic",
    )
    sp.add_argument("--node-budget", type=positive, default=DEFAULT_NODE_BUDGET)
    sp.set_defaults(fn=_cmd_compile)

    sp = sub.add_parser("stats", help="per-method CNF and NNF size table")
    sp.add_argument("network")
    sp.add_argument("--node-budget", type=positive, default=DEFAULT_NODE_BUDGET)
    sp.set_defaults(fn=_cmd_stats)

    sp = sub.add_parser("bench", help="random-network comparison sweep to CSV")
    sp.add_argument("--sizes", required=True, type=_parse_sizes, help="10:50:10 or 10,20,30")
    sp.add_argument("--per-size", type=positive, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--degrees", type=degrees, help=degrees_help)
    sp.add_argument("--node-budget", type=positive, default=DEFAULT_NODE_BUDGET)
    sp.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("check", help="cross-validate pipelines against the oracle")
    sp.add_argument("--nets", type=positive, default=100)
    sp.add_argument("--max-vars", type=_int_range(2), default=10)
    sp.add_argument("--queries", type=positive, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--degrees", type=degrees, help=degrees_help)
    sp.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    sp.set_defaults(fn=_cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (CompileBudgetError, SizeGuardError) as exc:
        print(f"posskc: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"posskc: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except PosskcError as exc:
        print(f"posskc: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
