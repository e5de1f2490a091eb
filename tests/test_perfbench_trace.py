"""The benchmark's traced mode still finds the entry points it patches.

perfbench/tracer.py wraps package functions by name; a renamed function or
a caller that stops going through the patched name would silently drop a
layer from every traced run.  A fresh interpreter installs the tracer and
runs one CLI command, as the benchmark's worker does, or runs the worker
itself.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CODE = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
from tracer import Tracer
from centroid_sections import cli
tracer = Tracer()
tracer.install()
try:
    rc = cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
dump = tracer.dump()
print(json.dumps({{"rc": rc, "spans": sorted({{s[0] for s in dump["spans"]}}),
                   "counters": dump["counters"]}}))
"""


def _run(subprocess_env, *argv):
    # no bytecode cache is left inside the benchmark's directory
    env = dict(subprocess_env, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res


def _traced(subprocess_env, *argv):
    res = _run(subprocess_env, "-c", CODE, *argv)
    got = json.loads(res.stdout.splitlines()[-1])
    assert got["rc"] == 0
    return got


def test_traced_intersection_test_records_its_layers(subprocess_env):
    got = _traced(subprocess_env, "intersection-test", "--n", "5")
    assert {"cli.intersection_test",
            "revolution_bodies.intersection_body_test",
            "spherical_core.ft_homogeneous",
            "spherical_core.expand"} <= set(got["spans"])
    assert got["counters"]["spherical_core.expand_terms"] > 0


def test_traced_construct_records_its_layers(subprocess_env, tmp_path):
    got = _traced(subprocess_env, "construct", "--n", "5",
                  "--outdir", str(tmp_path))
    assert {"cli.construct", "counterexample.run_construction",
            "counterexample.context_build", "counterexample.select_eps",
            "counterexample.find_root", "counterexample.identity_sweep",
            "counterexample.kappa_min", "revolution_bodies.curvature",
            "revolution_bodies.body_to_dict"} <= set(got["spans"])
    # the root's iterations are the certificate's (26); the centroid calls
    # are the context build's 4 (its eps bracket's two full probes),
    # select_eps's 2, find_root's 4 and certify's 1, where a find_root that
    # evaluated every midpoint made 28 and 39 in all
    cert = json.loads((tmp_path / "certificate.json").read_text())
    counters = got["counters"]
    assert counters["counterexample.root_iterations"] == \
        cert["meta"]["root_iterations"]
    assert 0 < counters["counterexample.centroid_calls"] <= 20


def test_verify_worker_traces_the_construction_it_reruns(subprocess_env,
                                                         cli_outdir, tmp_path):
    # verify runs construct again through run_construction, which the
    # tracer wraps: the worker's trace holds its span under cli.verify.
    # Both ask get_context for the automatic a, which is chosen once: one
    # auto_select_a span, and its two curvature passes (a = 0.5 rejected,
    # then 0.4)
    out = tmp_path / "verify.json"
    _run(subprocess_env, str(PERFBENCH / "worker.py"), "cli", str(out),
         "none", "--", "verify", str(cli_outdir / "certificate.json"))
    report = json.loads(out.read_text())
    assert report["rc"] == 0
    spans = report["spans"]
    assert any(name == "counterexample.run_construction"
               and spans[parent][0] == "cli.verify"
               for name, _, _, parent, _ in spans)
    assert [s[0] for s in spans].count("counterexample.auto_select_a") == 1
    assert report["counters"]["revolution_bodies.curvature_calls"] == 2


def test_sweep_worker_round_has_no_failures(subprocess_env, tmp_path):
    # the sweep-warm-n6 worker holds each operation to the package's
    # tolerances, which it reads as ctx.config.tolerances; one traced round
    # is three operations, each run untraced and then traced
    out = tmp_path / "sweep.json"
    _run(subprocess_env, str(PERFBENCH / "worker.py"), "sweep", str(out),
         "--seed", "1", "--trace-rounds", "1")
    ops = json.loads(out.read_text())["ops"]
    assert [op["traced"] for op in ops] == [False, True] * 3
    assert [op["failures"] for op in ops] == [[]] * 6


def test_planar_worker_traces_the_radial_scan(subprocess_env, tmp_path):
    # the planar worker's trace of a radial body holds both planar spans
    # and counts its radius calls; the scan takes plain radius calls with
    # no solve inside them, so the profile is evaluated at fewer than
    # 100,000 points
    out = tmp_path / "planar.json"
    _run(subprocess_env, str(PERFBENCH / "worker.py"), "cli", str(out),
         "radial", "--", "planar", "--demo", "blob")
    report = json.loads(out.read_text())
    assert report["rc"] == 0
    assert {"planar.radial.bisected_chords",
            "planar.radial.planar_centroid"} <= {s[0] for s in report["spans"]}
    counters = report["counters"]
    assert counters["planar.radial.radius_calls"] > 0
    assert counters["planar.profile_points"] < 100_000
