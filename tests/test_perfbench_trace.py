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
    assert got["counters"]["counterexample.centroid_calls"] > 0


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
