"""Run-to-run spread of the benchmark: one run per seed, one after another.

    python3 perfbench/spread.py --workload deep-single --seeds 1-10 --seconds 40

For every metric of the last result line it prints the median over runs and
the distance between first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  With ``--trace 1`` it also
checks that the deterministic counts repeat exactly across runs with the
same seed (give a seed twice, e.g. ``--seeds 3,3``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib.layers import DETERMINISTIC  # noqa: E402
from benchlib.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    results = []
    for seed in seeds:
        t0 = time.perf_counter()
        res = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(res)
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
            flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if len(values) >= 2 and statistics.median(values):
            print(f"{name:40s} median {statistics.median(values):<12.6g} "
                  f"spread {quartile_spread(values):.4f}")

    ok = True
    if args.trace:
        by_seed: dict[int, list[dict]] = {}
        for seed, res in zip(seeds, results):
            by_seed.setdefault(seed, []).append(res["metrics"])
        for seed, runs in by_seed.items():
            for name in DETERMINISTIC:
                counts = {m[name]["value"] for m in runs}
                if len(counts) > 1:
                    ok = False
                    print(f"seed {seed}: {name} differs between runs: {counts}")
            if len(runs) > 1 and ok:
                print(f"seed {seed}: deterministic counts repeat over "
                      f"{len(runs)} runs: " + ", ".join(
                          f"{n}={runs[0][n]['value']}" for n in DETERMINISTIC))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
