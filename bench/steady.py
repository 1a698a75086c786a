"""Steadiness check: run each workload over several seeds and compare
each end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 bench/steady.py [--workloads decompose,member] [--seeds 10]
                            [--seconds S]

Seeds run from 1 upwards; runs are sequential, one process at a time.
The spread of a metric is the distance between the first and third
quartile of its per-seed values (``statistics.quantiles(values, n=4)``)
as a share of their median.  A metric is ``ok`` below a third of its
bound, ``near`` below the bound and ``over`` beyond it.  The share of
failed operations must be the same in every run.  The last line of
output is a JSON summary; the exit code is 1 if any metric is ``over``,
any run is not correct or the failed shares differ, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    summary, steady = {}, True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.seeds + 1):
            t0 = time.perf_counter()
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            print(f"{workload} seed={seed} wall_s={time.perf_counter() - t0:.1f} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            verdict = "ok" if s < bound / 3 else "near" if s <= bound else "over"
            steady = steady and verdict != "over"
            rows[name] = {"median": statistics.median(values), "spread": s,
                          "bound": bound, "verdict": verdict}
            print(f"  {name:18s} median={statistics.median(values):<12.5g} "
                  f"spread={s:.3f} bound={bound} {verdict}")
        print(f"  correct={all(r['correct'] for r in results)} "
              f"failed_share_same={same_share} shares={sorted(shares)}")
        steady = steady and same_share and all(r["correct"] for r in results)
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_share_same": same_share,
            "metrics": rows,
        }
    print(json.dumps(summary))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
