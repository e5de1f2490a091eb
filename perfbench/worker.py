"""One fresh interpreter of a benchmark run.

    worker.py setup {none|n6}         import (and build the n = 6 context),
                                      then print when it was ready
    worker.py cli OUT KIND -- ARGS    one CLI command, traced; KIND names
                                      the planar body kind, if any
    worker.py sweep OUT --seed S (--seconds T | --trace-rounds K)

Reports are JSON, on stdout for setup and in OUT otherwise.  Times are
time.perf_counter() readings, one clock for all processes of a run.  Run
with the repository's src directory on PYTHONPATH.
"""

import argparse
import json
import sys
import time


def _setup(build):
    import centroid_sections
    if build == "n6":
        from centroid_sections import counterexample
        counterexample.get_context(centroid_sections.RunConfig(n=6))
    print(json.dumps({"t_ready": time.perf_counter()}))
    return 0


def _traced_import(tracer):
    tracer.start("cli.import")
    import centroid_sections  # noqa: F401
    tracer.stop()


def _cli(out, kind, argv):
    from tracer import Tracer
    tracer = Tracer()
    tracer.op_kind = kind
    _traced_import(tracer)
    from centroid_sections import cli
    tracer.install()
    rc = None
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"rc": rc, **tracer.dump()}, fh)
    return rc


def fits(t0, done, seconds):
    """Whether one more unit, taking the mean time of the done units so
    far, ends within the budget; the first unit always runs."""
    elapsed = time.perf_counter() - t0
    return not done or elapsed + elapsed / done <= seconds


def _sweep(seed, seconds, trace_rounds):
    """Rounds of three sweeps after one context build.  Untraced, rounds
    run while they fit in the time budget; traced, a fixed number of
    rounds runs with every operation first untraced, then traced."""
    import numpy as np
    tracer = None
    if trace_rounds:
        from tracer import Tracer
        tracer = Tracer()
        _traced_import(tracer)
        tracer.install()
    import centroid_sections
    from centroid_sections import counterexample
    import inputs
    ctx = counterexample.get_context(centroid_sections.RunConfig(n=6))
    if tracer is not None:
        tracer.uninstall()
    t_ready = time.perf_counter()
    tol = ctx.config.tolerances

    def operation(grid, eps_start):
        sel = ctx.select_eps(eps_start)
        root = ctx.find_root(sel["eps"])
        sweep = ctx.identity_sweep(root["lambda0"], sel["eps"],
                                   np.linspace(-1.0, 1.0, grid))
        return {"sweep": sweep,
                "kappa_min": ctx.kappa_min(root["lambda0"], sel["eps"])}

    ops = []
    for i, unit in enumerate(inputs.sweep_rounds(seed)):
        if (i >= trace_rounds if tracer is not None
                else not fits(t_ready, i, seconds)):
            break
        for grid, eps_start in unit:
            for traced in (False,) if tracer is None else (False, True):
                if traced:
                    tracer.op_id = len(ops)
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    result, error = operation(grid, eps_start), None
                except Exception as exc:    # counted as a failed operation
                    result, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall()
                failures = ([error] if error
                            else inputs.sweep_failures(result, tol))
                ops.append({"traced": traced, "t0": t0, "t1": t1,
                            "failures": failures})
    report = {"t_ready": t_ready, "ops": ops}
    if tracer is not None:
        report.update(tracer.dump())
    return report


def main(argv):
    if argv[0] == "setup":
        return _setup(argv[1])
    if argv[0] == "cli":
        return _cli(argv[1], argv[2], argv[4:])
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=("sweep",))
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-rounds", type=int, default=0)
    args = ap.parse_args(argv)
    report = _sweep(args.seed, args.seconds, args.trace_rounds)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
