"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 servebench/spread.py --workload cold_batch --seeds 1-10 --seconds 15

Runs ``run.py`` once per seed (one after another), then prints, for every
metric, the median, the first and third quartile (``statistics.quantiles``
with ``n=4``) and the spread -- the interquartile distance as a share of
the median -- beside the metric's bound from ``BENCHMARK.json``.  The last
line is the same table as JSON, with the first run's environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="servebench-spread")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m.get("bound") for m in json.load(handle)["end_to_end"]}

    values, environment, wall = {}, None, []
    for seed in _seeds(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=CHECKOUT, capture_output=True, text=True,
        )
        wall.append(time.perf_counter() - started)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        environment = environment or report["environment"]
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: {wall[-1]:.1f}s", file=sys.stderr, flush=True)

    table = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(name), "values": series}
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:36s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:7.4f}  bound {bound}  {flag}")
    print(json.dumps({"workload": args.workload, "environment": environment,
                      "run_wall_s": wall, "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
