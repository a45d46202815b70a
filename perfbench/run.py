"""Benchmark: set-up time and per-method query latency of posskc.

Run from the repository root:

    python3 perfbench/run.py --workload binary-serve --seed 3 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the same metrics for a reader, with the p90 latencies
and the failure share.  ``--trace 0`` reports the end-to-end metrics of
an untraced run; ``--trace 1`` reports the per-layer metrics of a traced
run, checks that its counts repeat exactly in a second process, and
writes its spans to ``.perfbench/``.  Every answer is checked against a
reference that never goes through the compiler.  Reported times are
scaled to the reference host speed (see host.py); with ``--trace 0`` the
line before the result gives the same timed metrics unscaled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
from host import HostSpeed
from inputs import SplitMix64, inputs_digest
from spans import METHODS, Tracer, layer_metrics
from workloads import CANARY_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_ROUNDS = 5
STREAM_SALT = 0x5157
UNSCALED_TAG = "# unscaled "
"""Prefixes the line of the same timed metrics before host-speed scaling."""
P90_MIN_QUERIES = 100
"""Per method per pass, so that at least ten samples lie beyond the p90."""


def load_package():
    if not (SRC / "posskc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import posskc

    if Path(posskc.__file__).resolve().parent != (SRC / "posskc").resolve():
        raise SystemExit(f"perfbench: posskc imported from {posskc.__file__}, not {SRC}")
    return posskc


def _untraced(name, fn, *args, sizes=None):
    return fn(*args)


def _entries(args, net) -> dict:
    return {"entries": sum(len(t) for t in net.cpt.values())}


def settle_heap() -> None:
    """Collect, then freeze what is left alive, outside the timed region.

    The cyclic collector stays on while timing, as the program runs, so
    each build and query pays for collecting what it allocates.  Set-up
    settles the heap after each network's pipelines are built, so that a
    collection never rescans the inputs or the other networks' pipelines:
    a user compiles one network per call, while the benchmark keeps dozens
    alive, and rescanning them would charge a random method's constructor
    with the benchmark's own heap."""
    gc.collect()
    gc.freeze()


def fresh_heap() -> None:
    """Release the last slice's frozen pipelines and collect them."""
    gc.unfreeze()
    settle_heap()


def query_stream(items, answers, seed: int) -> list:
    """(network index, x, e, expected) for every query, in an order shuffled
    by the seed, so that a run cut short at its deadline still asks a
    representative mix."""
    stream = [
        (i, *q, answers[i][k]) for i, it in enumerate(items) for k, q in enumerate(it.queries)
    ]
    return SplitMix64(seed ^ STREAM_SALT).sample(stream, len(stream))


class Bench:
    """One run: the package, the workload's inputs, the operations attempted
    and failed (an operation is a pipeline build or a query), and the host
    speed that every reported time is scaled by."""

    def __init__(self, pk, wl, items, stream):
        self.pk, self.wl, self.items, self.stream = pk, wl, items, stream
        self.attempted = self.failed = self.wrong = 0
        self.host = HostSpeed()
        self.call = _untraced
        self.tracer: Tracer | None = None

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        print(f"perfbench: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def set_up(self):
        """Parse every network and build all three pipelines, each with the
        workload's node budget.  Returns the pipelines and the seconds spent
        in total and in each method's constructor, scaled and unscaled."""
        pk, budget = self.pk, self.wl.node_budget
        builders = {
            "pf": lambda net: pk.PfPipeline(net, node_budget=budget),
            "logical": lambda net: pk.LogicalPipeline(net, node_budget=budget),
            "pkb": lambda net: pk.PkbPipeline(net, node_budget=budget),
        }
        raw = []
        built = []
        for i, it in enumerate(self.items):
            probe = self.host.mark()
            times = dict.fromkeys(("total", *METHODS), 0.0)
            start = perf_counter()
            net = self.call("network.parse", pk.parse_network, it.pnet, sizes=_entries)
            row = {}
            for m in METHODS:
                self.attempted += 1
                t = perf_counter()
                try:
                    row[m] = self.call(f"setup.{m}", builders[m], net)
                except Exception as exc:  # a budget blow-up or a crash: counted, not fatal
                    row[m] = None
                    self.fail(f"{m} build of network {i}", exc)
                times[m] = perf_counter() - t
            times["total"] = perf_counter() - start
            raw.append((probe, times))
            built.append(row)
            settle_heap()
        self.host.probe()
        scaled = dict.fromkeys(("total", *METHODS), 0.0)
        unscaled = dict.fromkeys(("total", *METHODS), 0.0)
        for probe, times in raw:
            scale = self.host.scale(probe)
            for k, v in times.items():
                scaled[k] += v * scale
                unscaled[k] += v
        return built, scaled, unscaled

    def ask(self, built, lat: dict, start: int, stop: int, deadline=None) -> int:
        """Ask queries start..stop-1 of the endless repetition of the
        stream, each to every method in turn, appending (probe, raw
        seconds) to lat; stop early at the deadline.  Returns the position
        reached."""
        for k in range(start, stop):
            if deadline is not None and perf_counter() >= deadline:
                return k
            i, x, e, expected = self.stream[k % len(self.stream)]
            if self.tracer is not None:
                self.tracer.query_id = k
            probe = self.host.mark()
            for m in METHODS:
                self.attempted += 1
                pipeline = built[i][m]
                if pipeline is None:
                    self.failed += 1
                    continue
                t = perf_counter()
                try:
                    got = pipeline.query(x, e)
                except Exception as exc:  # counted as a failed operation
                    self.fail(f"{m} query {x} | {e} on network {i}", exc)
                    continue
                lat[m].append((probe, perf_counter() - t))
                if expected is not None and got.num != expected:
                    self.failed += 1
                    self.wrong += 1
                    print(
                        f"perfbench: wrong answer from {m} on network {i}, {x} | {e}:"
                        f" got {got}, expected {expected}",
                        file=sys.stderr,
                    )
        return stop

    def scaled(self, lat: dict) -> dict:
        """Latencies in reference seconds; closes the last probe bracket."""
        self.host.probe()
        return {m: [t * self.host.scale(p) for p, t in samples] for m, samples in lat.items()}

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics of an untraced run.

        The run's seconds are split into SETUP_ROUNDS slices.  Each slice
        sets the workload up afresh, then asks the query stream where the
        previous slice left off, so set-up and queries both sample the
        whole run.  The last slice finishes the first pass if the deadline
        came before it."""
        rounds, unscaled_rounds, lat = [], [], {m: [] for m in METHODS}
        start = perf_counter()
        pos = 0
        for r in range(SETUP_ROUNDS):
            built = None
            fresh_heap()
            built, times, unscaled = self.set_up()
            rounds.append(times)
            unscaled_rounds.append(unscaled)
            deadline = start + seconds * (r + 1) / SETUP_ROUNDS
            while perf_counter() < deadline:
                pos = self.ask(built, lat, pos, pos + len(self.stream), deadline)
        if pos < len(self.stream):
            self.ask(built, lat, pos, len(self.stream))
        unscaled = medians(unscaled_rounds, {m: [t for _, t in v] for m, v in lat.items()})
        lat = self.scaled(lat)
        metrics = medians(rounds, lat)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for m in METHODS:
            note = f"{len(lat[m])} samples"
            if len(self.stream) >= P90_MIN_QUERIES:
                note += f", p90 {statistics.quantiles(lat[m], n=10)[8] * 1000.0:.3f} ms"
            print(f"# query {m}: {note}")
        print(f"# host probe median {self.host.median_probe() * 1000.0:.4f} ms")
        print(f"{UNSCALED_TAG}{json.dumps(unscaled)}")
        return metrics

    def one_pass(self) -> float:
        """One set-up and one pass of the stream; returns the scaled seconds
        spent inside the timed operations."""
        lat = {m: [] for m in METHODS}
        fresh_heap()
        built, times, _ = self.set_up()
        self.ask(built, lat, 0, len(self.stream))
        return times["total"] + sum(sum(v) for v in self.scaled(lat).values())

    def traced_pass(self) -> tuple[Tracer, float]:
        tracer = Tracer()
        self.tracer, self.call = tracer, tracer.call
        tracer.install()
        try:
            seconds = self.one_pass()
        finally:
            tracer.uninstall()
            self.tracer, self.call = None, _untraced
        return tracer, seconds

    def measure_traced(self, args) -> tuple[dict, list]:
        """Per-layer metrics of a traced pass, its overhead against an
        untraced pass of the same work, and the counts that differ when a
        second process repeats the traced pass.  A first, discarded pass
        warms the interpreter up, which would otherwise slow the untraced
        pass alone."""
        self.one_pass()
        untraced = self.one_pass()
        tracer, traced = self.traced_pass()
        metrics = layer_metrics(tracer.spans)
        counts = {k: v for k, v in metrics.items() if is_count(k)}
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        metrics["host.probe_ms"] = self.host.median_probe() * 1000.0
        metrics["fail_frac"] = self.failed / self.attempted
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{self.wl.name}-{args.seed}.jsonl")
        other = counts_in_subprocess(args)
        drift = sorted(k for k in counts if counts[k] != other.get(k))
        for k in drift:
            print(f"perfbench: count {k} differs: {counts[k]} vs {other.get(k)}", file=sys.stderr)
        return metrics, drift


def medians(rounds: list, lat: dict) -> dict:
    """The timed end-to-end metrics: median set-up seconds over the rounds,
    in total and per method, and median query latency per method."""
    metrics = {"setup_s": statistics.median(r["total"] for r in rounds)}
    for m in METHODS:
        metrics[f"setup_s.{m}"] = statistics.median(r[m] for r in rounds)
    for m in METHODS:
        metrics[f"query_p50_ms.{m}"] = statistics.median(lat[m]) * 1000.0
    return metrics


def expected_answers(pk, items, with_oracle: bool):
    """Reference answer per query, plus the count of oracle disagreements."""
    answers, disagreements = [], 0
    for i, it in enumerate(items):
        net = pk.parse_network(it.pnet) if with_oracle else None
        row = []
        for x, e in it.queries:
            ref = reference.conditional(it.net, x, e)
            if with_oracle:
                oracle = pk.oracle_conditional(net, x, e).num
                if oracle != ref:
                    disagreements += 1
                    print(
                        f"perfbench: reference {ref} != oracle {oracle} on network {i},"
                        f" {x} | {e}",
                        file=sys.stderr,
                    )
                ref = oracle
            row.append(ref)
        answers.append(row)
    return answers, disagreements


def is_count(name: str) -> bool:
    """Counts repeat exactly across runs of one seed; times do not."""
    return not any(part.endswith("ms") for part in name.split("."))


def counts_in_subprocess(args) -> dict:
    """The traced pass's counts, from a second process with another hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") != "1" else "2"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1", "--counts-only",
    ]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name.startswith("setup_s"):
        return "s"
    if name == "peak_rss_mib":
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    return "count" if is_count(name) else "ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pk = load_package()
    wl = WORKLOADS[args.workload]
    items = wl.generate(args.seed)

    if args.counts_only:
        unchecked = [[None] * len(it.queries) for it in items]
        tracer, _ = Bench(pk, wl, items, query_stream(items, unchecked, args.seed)).traced_pass()
        metrics = layer_metrics(tracer.spans)
        print(json.dumps({k: v for k, v in metrics.items() if is_count(k)}))
        return 0

    problems = []
    canary = inputs_digest(wl.generate(CANARY_SEED))
    if canary != wl.canary_digest:
        problems.append(f"inputs drifted: seed {CANARY_SEED} digest {canary} != {wl.canary_digest}")
    answers, disagreements = expected_answers(pk, items, with_oracle=wl.oracle)
    if disagreements:
        problems.append(f"{disagreements} reference answers disagree with the oracle")
    bench = Bench(pk, wl, items, query_stream(items, answers, args.seed))
    if args.trace:
        metrics, drift = bench.measure_traced(args)
        if drift:
            problems.append(f"{len(drift)} counts differ between two runs of seed {args.seed}")
    else:
        metrics = bench.measure(args.seconds)
    if bench.wrong:
        problems.append(f"{bench.wrong} wrong answers")

    print(f"# workload {wl.name}, seed {args.seed}, inputs sha256 {inputs_digest(items)}")
    print(f"# {len(items)} networks, {len(bench.stream)} queries per method per pass")
    print(f"# fail_frac {bench.failed / bench.attempted:.6f}"
          f" ({bench.failed} of {bench.attempted} operations)")
    for name, value in metrics.items():
        print(f"# {name} = {value} {unit_of(name)}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
