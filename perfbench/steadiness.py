"""Repeat the benchmark over seeds and report each end-to-end metric's
spread, as the quartile distance over the median.

    python3 perfbench/steadiness.py [--out F]

Runs every workload of BENCHMARK.json with seeds 1 to 10.  Run from the
root of a checkout.  With --out,
writes the runs, the spreads and an environment record (interpreter and
library versions, CPU, caches, BLAS threads) as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": len(os.sched_getaffinity(0))}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return env
    for line in lscpu.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            env[key.strip().lower().replace(" ", "_")] = val.strip()
    return env


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"environment": environment(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            t0 = time.perf_counter()
            p = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                check=True)
            res = json.loads(p.stdout.splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(name, json.dumps(runs[-1]), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            med, spr = statistics.median(vals), spread(vals)
            summary[m["name"]] = {"median": med, "spread": spr,
                                  "bound": m["bound"]}
            print(f"{name} {m['name']}: median {med:.4g} spread {spr:.4f}"
                  f" (bound {m['bound']})", flush=True)
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
