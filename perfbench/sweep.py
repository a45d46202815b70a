"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload binary-serve --seeds 1-10 --seconds 30 [-o out.json]

Runs are sequential, one process each.  For every metric it prints the
median over the runs, the quartiles and the spread (distance between the
quartiles as a share of the median), the figures a change is judged by.
The timed metrics are also summarised before host-speed scaling, as
``unscaled <metric>``, so the scaling's effect on the spreads shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import UNSCALED_TAG

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="1-10 or 3,5,8")
    ap.add_argument("--seconds", required=True)
    ap.add_argument("-o", "--out", help="write the summary as JSON")
    args = ap.parse_args(argv)
    values: dict = {}
    units: dict = {}
    runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
            "--seconds", args.seconds, "--trace", "0",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit code {done.returncode}")
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in lines:
            if line.startswith(UNSCALED_TAG):
                for name, v in json.loads(line[len(UNSCALED_TAG):]).items():
                    values.setdefault(f"unscaled {name}", []).append(v)
                    units[f"unscaled {name}"] = units[name]
    summary = {}
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vs}
        print(f"{name:34s} {median:14.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g}"
              f" spread {spread:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": float(args.seconds),
             "runs": runs, "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
