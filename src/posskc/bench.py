"""Random networks and the comparison sweep.

All randomness flows through a splitmix64 generator so sweeps reproduce
bit-for-bit across platforms: the 64-bit state advances by
0x9E3779B97F4A7C15 per draw and each output is finalized by two
xorshift-multiply rounds (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) followed by a final 31-bit xorshift.  Bounded draws
take the remainder of one output, which is plenty uniform for sampling
benchmark instances.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from statistics import fmean
from typing import IO, Callable, Iterable, Protocol, Sequence

from .circuits import PfPipeline, encode_pf
from .cnf import CnfFormula, cnf_stats
from .compiler import DEFAULT_NODE_BUDGET
from .degrees import Degree, ONE, SCALE
from .errors import CompileBudgetError
from .logical import LogicalPipeline, encode_logical
from .network import (
    EventTerm,
    NetVariable,
    PossNetwork,
    oracle_conditional,
    parse_network,
    serialize_network,
)
from .nnf import NnfDag, nnf_stats
from .pkb import PkbPipeline, encode_pkb

MASK64 = (1 << 64) - 1

_QUERY_SALT = 0x9D2C5680_5F356495
"""Seed perturbation separating query draws from structure draws."""


class SplitMix64:
    """The splitmix64 stream documented in the module docstring."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-enough draw from range(n)."""
        if n <= 0:
            raise ValueError("next_below needs a positive bound")
        return self.next_u64() % n

    def choice(self, xs: Sequence):
        return xs[self.next_below(len(xs))]

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates driven by next_below."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.next_below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


FINE_POOL_SIZE = 9999


@functools.cache
def even_pool(k: int) -> frozenset:
    """k evenly spaced degrees strictly inside (0, 1): i / (k + 1) for
    i = 1..k.  Nine gives the scale 0.1 .. 0.9.  Each pool is built on
    first use and then shared.

    The fine pool (k = FINE_POOL_SIZE, degrees 0.0001 .. 0.9999) is the
    generator's default.  It is deliberately fine-grained: sub-1 degrees
    then rarely repeat across families, so the parameter/level variables
    of the encodings stay local to one clause each and compiled sizes
    reflect network structure.  Coarse pools (say ten values) make one
    level variable span dozens of clauses across unrelated families;
    that coupling blows compiled bases up by orders of magnitude and
    drowns the structural signal the size sweep is after.
    """
    if not 1 <= k <= FINE_POOL_SIZE:
        raise ValueError(f"a pool has 1..{FINE_POOL_SIZE} degrees, got {k}")
    return frozenset(Degree(i * SCALE // (k + 1)) for i in range(1, k + 1))


def _pool(degree_pool: frozenset | None) -> frozenset:
    return even_pool(FINE_POOL_SIZE) if degree_pool is None else degree_pool


@functools.lru_cache(maxsize=16)
def _ordered_pool(degree_pool: frozenset | None) -> tuple:
    """The pool sorted by numerator, sorted once per pool."""
    return tuple(sorted(_pool(degree_pool), key=lambda d: d.num))


@dataclass(frozen=True)
class GenConfig:
    """Shape of one random-network draw."""

    n_nodes: int
    max_parents: int = 3
    degree_pool: frozenset | None = None
    """None draws from the fine pool, ``even_pool(FINE_POOL_SIZE)``."""
    seed: int = 0
    binary_only: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if self.max_parents < 0:
            raise ValueError("max_parents must be non-negative")
        if self.degree_pool is None:
            return  # the fine pool is valid by construction
        if not self.degree_pool:
            raise ValueError("degree_pool must not be empty")
        # By numerator: Degree's generated comparisons take about five
        # times as long on a large pool.
        for d in self.degree_pool:
            if not 0 < d.num < SCALE:
                raise ValueError(f"degree_pool entries must lie strictly in (0,1): {d}")


_DOMAIN_VALUES = ("a", "b", "c", "d")


def random_network(cfg: GenConfig) -> PossNetwork:
    """Deterministic random network: same config, same network.

    Variable declaration order is a random topological order; each node
    draws parents among the already-declared nodes, the parent count
    being the minimum of two uniform draws on 0..min(i, max_parents) so
    nets stay sparse while still reaching max_parents.  Per parent
    configuration one value is forced to degree 1 and the rest draw from
    the pool, so normalization holds by construction.
    """
    rng = SplitMix64(cfg.seed)
    names = [f"X{i}" for i in range(1, cfg.n_nodes + 1)]
    rng.shuffle(names)
    pool = _ordered_pool(cfg.degree_pool)
    domains: dict[str, tuple[str, ...]] = {}
    variables: list[NetVariable] = []
    parents: dict[str, tuple[str, ...]] = {}
    cpt: dict[str, dict] = {}
    declared: list[str] = []
    for name in names:
        if cfg.binary_only:
            dom = _DOMAIN_VALUES[:2]
        else:
            dom = _DOMAIN_VALUES[: 2 + rng.next_below(3)]
        cap = min(len(declared), cfg.max_parents) + 1
        k = min(rng.next_below(cap), rng.next_below(cap))
        candidates = list(declared)
        rng.shuffle(candidates)
        ps = tuple(sorted(candidates[:k], key=declared.index))
        entries: dict = {}
        pdoms = [domains[p] for p in ps]
        for rev in itertools.product(*reversed(pdoms)):
            pcfg = tuple(reversed(rev))
            forced = rng.next_below(len(dom))
            for j, val in enumerate(dom):
                entries[(val, pcfg)] = ONE if j == forced else rng.choice(pool)
        variables.append(NetVariable(name, dom))
        domains[name] = dom
        parents[name] = ps
        cpt[name] = entries
        declared.append(name)
    return PossNetwork("random", variables, parents, cpt)


@dataclass
class ComparisonRow:
    """One measured (network, method) pair of the sweep."""

    seed: int
    n_nodes: int
    method: str
    cnf_vars: int
    cnf_clauses: int
    nnf_nodes: int
    nnf_edges: int
    compile_ms: float
    query_ms: float
    status: str = "ok"

    def csv_line(self) -> str:
        return (
            f"{self.seed},{self.n_nodes},{self.method},{self.cnf_vars},"
            f"{self.cnf_clauses},{self.nnf_nodes},{self.nnf_edges},"
            f"{self.compile_ms:.3f},{self.query_ms:.3f},{self.status}"
        )


CSV_HEADER = "seed,n_nodes,method,cnf_vars,cnf_clauses,nnf_nodes,nnf_edges,compile_ms,query_ms,status"


class Pipeline(Protocol):
    """What every method offers once built on a network: its CNF, the DAG
    compiled from it, Pi(term) and Pi(x|e)."""

    cnf: CnfFormula
    dag: NnfDag

    def possibility(self, term: EventTerm) -> Degree: ...

    def query(self, x: EventTerm, e: EventTerm) -> Degree: ...


METHODS: dict[str, tuple[Callable[..., Pipeline], Callable[..., CnfFormula]]] = {
    "pf": (PfPipeline, encode_pf),
    "logical": (LogicalPipeline, lambda net, local: encode_logical(net)),
    "pkb": (PkbPipeline, lambda net, local: encode_pkb(net)),
}
"""Method name -> (pipeline class, CNF encoder), in the paper's order.

Every pipeline class takes the network and a ``node_budget`` keyword.
The encoder's flag selects pf's local-structure mode; the other two
methods have one encoding and ignore it.
"""


def default_query(net: PossNetwork, seed: int) -> tuple[dict, dict]:
    """Deterministic single-variable target and evidence for timing."""
    rng = SplitMix64(seed ^ _QUERY_SALT)
    xi = rng.next_below(len(net.variables))
    xv = net.variables[xi]
    x = {xv.name: rng.choice(xv.domain)}
    if len(net.variables) == 1:
        return x, {}
    ej = rng.next_below(len(net.variables) - 1)
    if ej >= xi:
        ej += 1
    ev = net.variables[ej]
    return x, {ev.name: rng.choice(ev.domain)}


def compare_network(
    net: PossNetwork,
    seed: int = 0,
    query: tuple[EventTerm, EventTerm] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[ComparisonRow]:
    """Measure all three methods on one network.

    compile_ms covers encoding plus compilation; query_ms covers one
    conditional query (the same query for every method).  Each method
    builds on its own re-parse of the network, so its compile_ms times its
    own encoding and compilation: on one network object the logical and
    pkb pipelines share one compiled base (``pkb.compile_base``).  A
    compiler budget failure downgrades the row (status "budget", zero DAG
    stats) instead of aborting the sweep.
    """
    x, e = query if query is not None else default_query(net, seed)
    text = serialize_network(net)
    rows = []
    for method, (build, encode) in METHODS.items():
        own = parse_network(text)
        t0 = time.perf_counter()
        try:
            pipeline = build(own, node_budget=node_budget)
            compile_ms = (time.perf_counter() - t0) * 1000.0
            nstats = nnf_stats(pipeline.dag)
        except CompileBudgetError:
            elapsed = (time.perf_counter() - t0) * 1000.0
            stats = cnf_stats(encode(net, True))
            rows.append(
                ComparisonRow(
                    seed, len(net.variables), method,
                    stats["vars"], stats["clauses"], 0, 0, elapsed, 0.0, "budget",
                )
            )
            continue
        t1 = time.perf_counter()
        pipeline.query(x, e)
        query_ms = (time.perf_counter() - t1) * 1000.0
        cstats = cnf_stats(pipeline.cnf)
        rows.append(
            ComparisonRow(
                seed, len(net.variables), method,
                cstats["vars"], cstats["clauses"],
                nstats["nodes"], nstats["edges"],
                compile_ms, query_ms,
            )
        )
    return rows


def aggregate_means(rows: Iterable[ComparisonRow]) -> dict:
    """Per-(size, method) means of the four size columns over ok rows."""
    groups: dict[tuple[int, str], list[ComparisonRow]] = {}
    for r in rows:
        if r.status == "ok":
            groups.setdefault((r.n_nodes, r.method), []).append(r)
    out = {}
    for key in sorted(groups):
        rs = groups[key]
        out[key] = {
            "cnf_vars": fmean(r.cnf_vars for r in rs),
            "cnf_clauses": fmean(r.cnf_clauses for r in rs),
            "nnf_nodes": fmean(r.nnf_nodes for r in rs),
            "nnf_edges": fmean(r.nnf_edges for r in rs),
            "count": len(rs),
        }
    return out


def write_comparison_csv(
    out: IO[str], rows: Sequence[ComparisonRow], aggregates: dict, config_note: str
) -> None:
    out.write("# posskc comparison sweep\n")
    out.write(f"# {config_note}\n")
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(r.csv_line() + "\n")
    for (size, method), m in aggregates.items():
        out.write(
            f"# mean n_nodes={size} method={method} count={m['count']}"
            f" cnf_vars={m['cnf_vars']:.2f} cnf_clauses={m['cnf_clauses']:.2f}"
            f" nnf_nodes={m['nnf_nodes']:.2f} nnf_edges={m['nnf_edges']:.2f}\n"
        )


def run_comparison(
    sizes: Sequence[int],
    per_size: int,
    seed: int = 0,
    out: IO[str] | str | None = None,
    max_parents: int = 3,
    degree_pool: frozenset | None = None,
    binary_only: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[ComparisonRow], dict]:
    """The size sweep: per_size random networks at each size, three rows
    each, written as CSV (config in a header comment, per-size means in a
    trailing comment block) when out is given."""
    seeder = SplitMix64(seed)
    rows: list[ComparisonRow] = []
    for n in sizes:
        for _ in range(per_size):
            inst_seed = seeder.next_u64()
            cfg = GenConfig(
                n_nodes=n,
                max_parents=max_parents,
                degree_pool=degree_pool,
                seed=inst_seed,
                binary_only=binary_only,
            )
            rows.extend(
                compare_network(random_network(cfg), seed=inst_seed, node_budget=node_budget)
            )
    aggregates = aggregate_means(rows)
    if out is not None:
        ordered = sorted(_pool(degree_pool))
        if len(ordered) <= 12:
            pool_note = "{" + ",".join(str(d) for d in ordered) + "}"
        else:
            pool_note = f"{{{ordered[0]}..{ordered[-1]} ({len(ordered)} values)}}"
        note = (
            f"config: seed={seed} sizes={list(sizes)} per_size={per_size}"
            f" max_parents={max_parents} degree_pool={pool_note}"
            f" binary_only={binary_only} node_budget={node_budget}"
        )
        if isinstance(out, str):
            with open(out, "w", encoding="utf-8") as fh:
                write_comparison_csv(fh, rows, aggregates, note)
        else:
            write_comparison_csv(out, rows, aggregates, note)
    return rows, aggregates


@dataclass(frozen=True)
class CrossValidation:
    """Queries checked, one text per mismatch (query, answers, network),
    and the printable report."""

    checked: int
    mismatches: tuple[str, ...]
    report: str


def cross_validate(
    nets: int,
    max_vars: int = 10,
    queries: int = 5,
    seed: int = 0,
    max_parents: int = 3,
    degree_pool: frozenset | None = None,
    binary_only: bool = True,
) -> CrossValidation:
    """Run all three pipelines against the brute-force oracle.

    Random networks of 2..max_vars nodes, `queries` conditional queries
    each (the first with empty evidence so marginals are covered).  The
    report's second line tallies the mismatches, and every mismatch text
    follows it verbatim.
    """
    if max_vars < 2:
        raise ValueError(f"max_vars must be at least 2, got {max_vars}")
    if nets < 1 or queries < 1:
        raise ValueError(f"nets and queries must be at least 1, got {nets} and {queries}")
    seeder = SplitMix64(seed)
    mismatches: list[str] = []
    total = 0
    for _ in range(nets):
        inst_seed = seeder.next_u64()
        n = 2 + SplitMix64(inst_seed ^ 0xA5A5).next_below(max_vars - 1)
        cfg = GenConfig(
            n_nodes=n,
            max_parents=max_parents,
            degree_pool=degree_pool,
            seed=inst_seed,
            binary_only=binary_only,
        )
        net = random_network(cfg)
        pipelines = {m: build(net) for m, (build, _) in METHODS.items()}
        qrng = SplitMix64(inst_seed ^ _QUERY_SALT)
        for qi in range(queries):
            xv = qrng.choice(net.variables)
            x = {xv.name: qrng.choice(xv.domain)}
            if qi == 0 or len(net.variables) == 1:
                e: dict = {}
            else:
                ev = qrng.choice(net.variables)
                e = {ev.name: qrng.choice(ev.domain)}
            expected = oracle_conditional(net, x, e)
            got = {m: p.query(x, e) for m, p in pipelines.items()}
            total += 1
            if any(v != expected for v in got.values()):
                mismatches.append(
                    f"mismatch on seed={inst_seed} x={x} e={e}:"
                    f" oracle={expected} pf={got['pf']}"
                    f" logical={got['logical']} pkb={got['pkb']}\n"
                    + serialize_network(net)
                )
    lines = [
        f"cross-validation: {nets} networks (2..{max_vars} nodes),"
        f" {queries} queries each, seed {seed}",
        f"checked {total} queries: {len(mismatches)} mismatches",
    ]
    lines.extend(mismatches)
    return CrossValidation(total, tuple(mismatches), "\n".join(lines) + "\n")
