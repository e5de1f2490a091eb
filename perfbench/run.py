"""Benchmark of the centroid-sections package.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Workloads (see README.md next to this
file for why each was chosen):

  certify-n5     construct (n = 5), verify, intersection-test and planar on
                 a seeded polygon, the blob and the ellipse demo, each a
                 fresh CLI process, the way users run them
  sweep-warm-n6  one process builds the n = 6 context, then runs seeded
                 select_eps -> find_root -> identity_sweep -> kappa_min

--trace 0 measures for T seconds and reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs a fixed seeded list of operations once
untraced and once traced and reports its per-layer metrics.  The last line
of stdout is the result object; diagnostics go to stderr.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

import inputs
import tracer as tr
from worker import fits

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT = 170.0
# fresh-interpreter set-ups per run; an import costs ~0.6 s, the n = 6
# context build ~9 s
SETUP_SAMPLES = {"none": 21, "n6": 3}
# a traced run covers one certify chain, or the context build and this
# many sweep rounds
TRACE_ROUNDS = 2
STAGE_METRICS = ("stage.construct_s", "stage.verify_s", "stage.intersection_s",
                 "stage.planar_polygon_s", "stage.planar_radial_s",
                 "stage.planar_control_s", "stage.sweep_s")


class Run:
    """Child processes of one benchmark run, all inside a scratch
    directory of the checkout."""

    def __init__(self, work: Path, seed: int, seconds: float):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH")
                                          else [])),
                        OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        self.info = {"seed": seed, "blas_threads": int(threads)}
        self._files = 0
        # set-ups that exited nonzero; each counts as a failed operation
        self.setup_failures = 0

    def file(self, stem: str) -> Path:
        self._files += 1
        return self.work / f"{stem}-{self._files}"

    def child(self, argv):
        """(returncode, wall seconds, t_spawn, stdout) of a python child.
        A child killed at CHILD_TIMEOUT returns -9."""
        t0 = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, *argv], cwd=self.work,
                               env=self.env, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {argv[:2]} killed after {CHILD_TIMEOUT} s",
                  file=sys.stderr)
            return -9, time.perf_counter() - t0, t0, ""
        wall = time.perf_counter() - t0
        if p.returncode != 0 and p.stderr:
            sys.stderr.write(p.stderr[-2000:])
        return p.returncode, wall, t0, p.stdout

    def worker(self, argv):
        """Run worker.py: its JSON report (None if it exited nonzero),
        spawn time and wall seconds."""
        out = self.file("report")
        rc, wall, t0, _ = self.child([str(BENCH / "worker.py"), argv[0],
                                      str(out), *argv[1:]])
        report = json.loads(out.read_text()) if rc == 0 else None
        return report, t0, wall

    def setup(self, build: str) -> float:
        """Seconds from spawning a fresh interpreter until it has imported
        the package (and built the n = 6 context, for build "n6").  A
        set-up that exits nonzero is counted in setup_failures and gives
        its wall time."""
        rc, wall, t0, out = self.child([str(BENCH / "worker.py"), "setup",
                                        build])
        if rc != 0:
            self.setup_failures += 1
            return wall
        return json.loads(out.splitlines()[-1])["t_ready"] - t0

    def cli(self, args, traced: bool, kind: str = "none"):
        """One CLI command in a fresh process: (rc, wall, trace or None).
        kind labels planar spans of a traced run."""
        if not traced:
            rc, wall, _, _ = self.child(["-m", "centroid_sections.cli",
                                         *args])
            return rc, wall, None
        out = self.file("trace")
        rc, wall, t0, _ = self.child([str(BENCH / "worker.py"), "cli",
                                      str(out), kind, "--", *args])
        return rc, wall, (json.loads(out.read_text()) if out.is_file()
                          else None)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# certify-n5

# CLI planar runs of a chain: body kind, arguments; --input is the seeded
# polygon, blob and ellipse are the CLI's own demos
PLANAR_STEPS = (("polygon", ["planar", "--input", "polygon.csv"]),
                ("radial", ["planar", "--demo", "blob"]),
                ("control", ["planar", "--demo", "ellipse"]))


def _certify_op(run, ref, op_input, traced):
    """One chain of fresh CLI processes: construct, verify,
    intersection-test and the planar runs.  Returns step walls, gate
    failures, traces, the bytes construct wrote and the certificate
    digest."""
    construct_seed, polygon = op_input
    out = run.file("op")
    walls, failures, traces = {}, [], []

    def step(name, args, kind="none"):
        rc, walls[name], trace = run.cli(args, traced, kind)
        if trace is not None:
            traces.append(trace)
        if rc != 0:
            failures.append(f"{name} exited {rc}")
        return rc

    step("construct", ["construct", "--n", "5", "--seed",
                       str(construct_seed), "--outdir", str(out)])
    cert_path = out / "certificate.json"
    digest = None
    if cert_path.is_file():
        cert = json.loads(cert_path.read_text())
        failures += inputs.certificate_failures(cert, ref)
        digest = inputs.certificate_digest(cert)
        step("verify", ["verify", str(cert_path)])
    else:
        failures.append("construct wrote no certificate")
    written = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    if step("intersection", ["intersection-test", "--n", "5", "--outdir",
                             str(out / "intersection")]) == 0:
        res = json.loads((out / "intersection" / "intersection.json")
                         .read_text())
        if res["is_intersection"] is not False:
            failures.append("base body reported as an intersection body")
    (out / "polygon.csv").write_text(inputs.polygon_csv(polygon))
    data = {"polygon": polygon, "radial": inputs.BLOB, "control": None}
    for kind, args in PLANAR_STEPS:
        args = [str(out / a) if a.endswith(".csv") else a for a in args]
        if step(f"planar_{kind}", [*args, "--outdir", str(out / kind)],
                kind) == 0:
            payload = json.loads((out / kind / "planar.json").read_text())
            failures += inputs.planar_failures(kind, data[kind], payload)
    return walls, failures, traces, written, digest


def certify(run, traced):
    ref = json.loads((BENCH / "reference.json").read_text())["certify-n5"]
    op_inputs = inputs.certify_inputs(run.seed)
    if not traced:
        setups = [run.setup("none") for _ in range(SETUP_SAMPLES["none"])]
        ops, failed, digests = [], 0, []
        t0 = time.perf_counter()
        while fits(t0, len(ops), run.seconds):
            walls, fails, _, _, digest = _certify_op(run, ref,
                                                     next(op_inputs), False)
            ops.append(sum(walls.values()))
            failed += bool(fails)
            digests.append(digest)
            _report_failures(fails)
        run.info["digest_matches_reference"] = all(
            d == ref["digest"] for d in digests)
        return ({"setup_s": median(setups), "op_s": median(ops),
                 "peak_rss_mb": _peak_rss_mb()},
                len(ops) + run.setup_failures, failed + run.setup_failures)

    op_input = next(op_inputs)
    plain, fails0, _, _, _ = _certify_op(run, ref, op_input, False)
    walls, fails1, traces, written, digest = _certify_op(run, ref, op_input,
                                                         True)
    _report_failures(fails0 + fails1)
    run.info["digest_matches_reference"] = digest == ref["digest"]
    values = _layer_values(traces, traced_wall=sum(walls.values()),
                           untraced_wall=sum(plain.values()))
    values["cli.bytes_written"] = written
    for name, wall in plain.items():
        values[f"stage.{name}_s"] = wall
    return values, 2, bool(fails0) + bool(fails1)


# ---------------------------------------------------------------------------
# sweep-warm-n6

def _op_time(op):
    return op["t1"] - op["t0"]


def sweep(run, traced):
    if not traced:
        setups = [run.setup("n6") for _ in range(SETUP_SAMPLES["n6"] - 1)]
        report, t0, wall = run.worker(["sweep", "--seed", str(run.seed),
                                       "--seconds", str(run.seconds)])
        if report is None:
            # a worker that died wrote no report: its operations are lost,
            # so it counts as one failed operation lasting the whole worker
            return ({"setup_s": median(setups), "op_s": wall,
                     "peak_rss_mb": _peak_rss_mb()},
                    1 + run.setup_failures, 1 + run.setup_failures)
        setups.append(report["t_ready"] - t0)
        ops = report["ops"]
        # a round is one operation per grid size; its mean is the seconds
        # per sweep operation at a fixed grid mix
        times = [_op_time(o) for o in ops]
        per_op = [sum(times[i:i + 3]) / 3 for i in range(0, len(times), 3)]
        return ({"setup_s": median(setups), "op_s": median(per_op),
                 "peak_rss_mb": _peak_rss_mb()},
                len(ops) + run.setup_failures,
                _count_failures(ops) + run.setup_failures)

    plain_setup = run.setup("n6")
    report, t0, wall = run.worker(["sweep", "--seed", str(run.seed),
                                   "--trace-rounds", str(TRACE_ROUNDS)])
    if report is None:
        # one failed untraced operation lasting the whole worker
        report = {"t_ready": t0, "spans": [], "counters": {}, "maxima": {},
                  "ops": [{"traced": False, "t0": t0, "t1": t0 + wall,
                           "failures": ["sweep worker exited nonzero"]}]}
    ops = report["ops"]
    plain = [_op_time(o) for o in ops if not o["traced"]]
    values = _layer_values(
        [report],
        traced_wall=report["t_ready"] - t0
        + sum(_op_time(o) for o in ops if o["traced"]),
        untraced_wall=plain_setup + sum(plain))
    values["stage.sweep_s"] = median(plain)
    return (values, len(ops) + run.setup_failures,
            _count_failures(ops) + run.setup_failures)


def _count_failures(ops):
    fails = [f for o in ops for f in o["failures"]]
    _report_failures(fails)
    return sum(bool(o["failures"]) for o in ops)


def _report_failures(fails):
    for f in fails[:20]:
        print(f"perfbench: failed: {f}", file=sys.stderr)


# ---------------------------------------------------------------------------
# per-layer reduction

def _layer_values(traces, traced_wall, untraced_wall):
    """Self time per layer span, counts, and the trace's own accounting:
    traced wall = sum of self times + time no span covers.  traces holds
    one report per traced process."""
    self_s = sum((tr.self_times(t["spans"]) for t in traces), Counter())
    covered = sum(self_s.values())
    # stage walls come from the untraced pass of the workload that has
    # them; 0 elsewhere
    values = dict.fromkeys(STAGE_METRICS, 0.0)
    for span, metric in tr.SELF_TIME_METRICS.items():
        values[metric] = self_s.pop(span, 0.0)
    for kind in tr.KINDS:
        for name in tr.PLANAR_SPANS:
            values[f"planar.{kind}.{name}_s"] = self_s.pop(
                f"planar.{kind}.{name}", 0.0)
    if self_s:
        raise RuntimeError(f"spans without a metric: {sorted(self_s)}")
    for name in tr.COUNT_METRICS:
        values[name] = sum(t["counters"].get(name, 0) for t in traces)
    values["spherical_core.gauss_jacobi_max_order"] = max(
        (t["maxima"].get("spherical_core.gauss_jacobi_max_order", 0)
         for t in traces), default=0)
    calls = values["counterexample.select_eps_calls"]
    values["counterexample.select_eps_accept_ratio"] = (
        calls / (calls + values["counterexample.eps_halvings"])
        if calls else 0.0)
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "trace.self_s": covered,
        "trace.uncovered_s": traced_wall - covered,
    })
    return values


WORKLOADS = {"certify-n5": certify, "sweep-warm-n6": sweep}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "centroid_sections" / "cli.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        run = Run(work, args.seed, args.seconds)
        values, attempted, failed = WORKLOADS[args.workload](
            run, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(f"perfbench: {json.dumps(run.info)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
