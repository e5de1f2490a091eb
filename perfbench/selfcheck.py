"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--out F]

1. Injected failures must be counted: verify of a certificate whose
   lambda0 was nudged must exit 4 and fail the certificate gate; planar on
   a non-convex polygon must exit nonzero, and the planar gate must fail a
   non-convex radial profile.
2. Counters must repeat exactly: two traced runs of each workload
   with the same seed must report identical counts (the first run's full
   result is kept as the per-layer baseline).  cli.bytes_written is
   left out: the certificate's meta block records the run time, whose
   printed length varies by a digit or two.

Run from the root of a checkout.  Exits 0 when every check passes.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs
import run as bench

NOT_REPEATABLE = {"cli.bytes_written"}


def injected_failures(work: Path) -> dict:
    r = bench.Run(work, seed=1, seconds=0)
    ref = json.loads((bench.BENCH / "reference.json").read_text())[
        "certify-n5"]
    out = {}
    rc, _, _ = r.cli(["construct", "--n", "5", "--outdir", str(work / "c")],
                     False)
    cert = json.loads((work / "c" / "certificate.json").read_text())
    out["clean_certificate_gate_failures"] = inputs.certificate_failures(
        cert, ref)
    cert["lambda0"] *= 1.0 + 1e-3
    nudged = work / "nudged.json"
    nudged.write_text(json.dumps(cert))
    rc_verify, _, _ = r.cli(["verify", str(nudged)], False)
    gate = inputs.certificate_failures(cert, ref)
    out["nudged_verify_exit"] = rc_verify
    out["nudged_gate_failures"] = gate
    ok = rc == 0 and not out["clean_certificate_gate_failures"] \
        and rc_verify == 4 and bool(gate)

    arrow = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5],
                      [0.0, 2.0]])
    (work / "arrow.csv").write_text(inputs.polygon_csv(arrow))
    rc_arrow, _, _ = r.cli(["planar", "--input", str(work / "arrow.csv")],
                           False, "polygon")
    out["nonconvex_polygon_exit"] = rc_arrow    # a chain fails on nonzero
    ok &= rc_arrow != 0

    sys.path.insert(0, str(bench.SRC))
    from centroid_sections import planar
    star = inputs.FourierProfile({1: (0.1, 0.0), 3: (0.2, 0.0)})
    try:
        res = planar.bisected_chords(planar.radial_body(star))
        payload = {"count": ("symmetric_all" if res["symmetric_all"]
                             else res["count"]),
                   "directions": res["directions"]}
        fails = inputs.planar_failures("radial", star, payload)
    except RuntimeError as exc:
        fails = [repr(exc)]
    out["nonconvex_radial_failures"] = fails
    ok &= bool(fails)
    out["ok"] = ok
    return out


def repeat_counts(workload: str) -> dict:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and m["name"] not in NOT_REPEATABLE]
    runs, first = [], None
    for _ in range(2):
        p = subprocess.run(
            [sys.executable, str(bench.BENCH / "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", str(spec["run_seconds"]),
             "--trace", "1"], cwd=bench.ROOT, capture_output=True, text=True,
            check=True)
        result = json.loads(p.stdout.splitlines()[-1])
        first = first or result
        runs.append({m: result["metrics"][m]["value"] for m in counts})
    differ = sorted(m for m in counts if runs[0][m] != runs[1][m])
    return {"ok": not differ and first["failed"] == 0, "differing": differ,
            "traced_run": first}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=bench.BENCH))
    try:
        record = {"injected_failures": injected_failures(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    record["repeat_counts"] = {w["name"]: repeat_counts(w["name"])
                               for w in spec["workloads"]}
    ok = record["injected_failures"]["ok"] and all(
        r["ok"] for r in record["repeat_counts"].values())
    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
