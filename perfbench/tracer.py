"""Outside-in layer tracing for the benchmark.

Spans wrap the public entry points of each package module by replacing the
names that callers look up (module globals and class attributes), so the
program itself carries no instrumentation.  Counters are taken at the same
boundaries.  Spans stay in memory until the process that recorded them
writes them out.
"""

import functools
import time
from collections import Counter

import numpy as np

KINDS = ("radial", "polygon", "control")

# span name -> per-layer metric holding its summed self time
SELF_TIME_METRICS = {
    "cli.import": "cli.import_s",
    "cli.construct": "cli.construct_self_s",
    "cli.verify": "cli.verify_self_s",
    "cli.intersection_test": "cli.intersection_test_self_s",
    "spherical_core.gauss_jacobi": "spherical_core.gauss_jacobi_s",
    "spherical_core.expand": "spherical_core.expand_s",
    "spherical_core.eval_spectrum": "spherical_core.eval_spectrum_s",
    "spherical_core.ft_homogeneous": "spherical_core.ft_homogeneous_s",
    "spherical_core.parseval": "spherical_core.parseval_s",
    "counterexample.context_build": "counterexample.context_build_s",
    "counterexample.auto_select_a": "counterexample.auto_select_a_s",
    "counterexample.select_eps": "counterexample.select_eps_s",
    "counterexample.find_root": "counterexample.find_root_s",
    "counterexample.identity_sweep": "counterexample.identity_sweep_s",
    "counterexample.kappa_min": "counterexample.kappa_min_s",
    "counterexample.run_construction":
        "counterexample.run_construction_self_s",
    "revolution_bodies.curvature": "revolution_bodies.curvature_s",
    "revolution_bodies.intersection_body_test":
        "revolution_bodies.intersection_body_test_s",
    "revolution_bodies.body_to_dict": "revolution_bodies.body_to_dict_s",
}
# planar spans are reported per body kind
PLANAR_SPANS = ("bisected_chords", "planar_centroid")

COUNT_METRICS = (
    "cli.bytes_written",
    "spherical_core.gauss_jacobi_calls",
    "spherical_core.gauss_jacobi_max_order",
    "spherical_core.expand_terms",
    "spherical_core.eval_spectrum_calls",
    "spherical_core.eval_spectrum_terms",
    "counterexample.select_eps_calls",
    "counterexample.eps_halvings",
    "counterexample.root_iterations",
    "counterexample.centroid_calls",
    "counterexample.identity_sweep_points",
    "revolution_bodies.curvature_calls",
    "planar.profile_calls",
    "planar.profile_points",
) + tuple(f"planar.{k}.{c}" for k in KINDS
          for c in ("radius_calls", "radius_points"))


class Tracer:
    """Spans and counters of one process.

    A span is [name, start, end, parent index, operation id]; the operation
    id and the planar body kind are set by the caller.  Radial profiles
    passed to planar.radial_body are counted per call and per point.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.maxima = Counter()
        self.op_id = None
        self.op_kind = None
        self._stack = []
        self._undo = []
        self._tallies = []

    def start(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None,
                           self.op_id])
        self._stack.append(len(self.spans) - 1)

    def stop(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        """fn inside a span; count(tracer, args, kwargs, result) runs after.
        name is a string or a callable that returns one at call time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.start(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    # -- patching --------------------------------------------------------

    def _replace(self, modules, orig, new):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        """Patch every traced entry point of the package."""
        import centroid_sections as pkg
        from centroid_sections import (cli, counterexample, planar,
                                       revolution_bodies, spherical_core)
        mods = (pkg, cli, counterexample, planar, revolution_bodies,
                spherical_core)
        sc, cx, rb = spherical_core, counterexample, revolution_bodies
        for orig, name, count in (
                (sc.gauss_jacobi, "spherical_core.gauss_jacobi",
                 _count_gauss_jacobi),
                (sc.expand, "spherical_core.expand", _count_expand),
                (sc.eval_spectrum, "spherical_core.eval_spectrum",
                 _count_eval(0)),
                (sc.eval_spectrum_deriv, "spherical_core.eval_spectrum",
                 _count_eval(1)),
                (sc.ft_homogeneous, "spherical_core.ft_homogeneous", None),
                (sc.parseval_residual, "spherical_core.parseval", None),
                (cx.auto_select_a, "counterexample.auto_select_a", None),
                (cx.run_construction, "counterexample.run_construction",
                 None),
                (rb.curvature, "revolution_bodies.curvature",
                 _count_calls("revolution_bodies.curvature_calls")),
                (rb.intersection_body_test,
                 "revolution_bodies.intersection_body_test", None),
                (rb.body_to_dict, "revolution_bodies.body_to_dict", None),
                (cli.cmd_construct, "cli.construct", None),
                (cli.cmd_verify, "cli.verify", None),
                (cli.cmd_intersection_test, "cli.intersection_test", None)):
            self._replace(mods, orig, self.wrap(name, orig, count))

        ctx = cx.ConstructionContext
        for attr, name, count in (
                ("__init__", "context_build", None),
                ("select_eps", "select_eps", _count_select_eps),
                ("find_root", "find_root", _count_find_root),
                ("identity_sweep", "identity_sweep", _count_identity_sweep),
                ("kappa_min", "kappa_min", None)):
            self._replace_method(ctx, attr, self.wrap(
                f"counterexample.{name}", ctx.__dict__[attr], count))
        centroid = ctx.__dict__["centroid"]

        @functools.wraps(centroid)
        def counted_centroid(*args, **kwargs):
            self.counters["counterexample.centroid_calls"] += 1
            return centroid(*args, **kwargs)
        self._replace_method(ctx, "centroid", counted_centroid)

        for name in PLANAR_SPANS:
            orig = getattr(planar, name)
            self._replace(mods, orig, self.wrap(
                lambda name=name: f"planar.{self.op_kind}.{name}", orig))
        radial_body = planar.radial_body

        @functools.wraps(radial_body)
        def counting_radial_body(fn, *args, **kwargs):
            tally = [0, 0]              # profile calls, points
            self._tallies.append(tally)

            def counted(theta):
                tally[0] += 1
                tally[1] += getattr(theta, "size", 1)
                return fn(theta)
            return radial_body(counted, *args, **kwargs)
        self._replace(mods, radial_body, counting_radial_body)

        radius = planar.PlanarBody.__dict__["radius"]

        @functools.wraps(radius)
        def counted_radius(body, theta):
            self.counters[f"planar.{self.op_kind}.radius_calls"] += 1
            self.counters[f"planar.{self.op_kind}.radius_points"] += \
                int(np.size(theta))
            return radius(body, theta)
        self._replace_method(planar.PlanarBody, "radius", counted_radius)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction -------------------------------------------------------

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["planar.profile_calls"] = sum(t[0] for t in self._tallies)
        counters["planar.profile_points"] = sum(t[1] for t in self._tallies)
        return {"spans": self.spans, "counters": counters,
                "maxima": dict(self.maxima)}


def _count_calls(name):
    def count(tr, args, kwargs, result):
        tr.counters[name] += 1
    return count


def _count_gauss_jacobi(tr, args, kwargs, result):
    tr.counters["spherical_core.gauss_jacobi_calls"] += 1
    order = int(result.order)
    if order > tr.maxima["spherical_core.gauss_jacobi_max_order"]:
        tr.maxima["spherical_core.gauss_jacobi_max_order"] = order


def _count_expand(tr, args, kwargs, result):
    # (degree + 1) x quadrature order, with expand's own default order
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    order = args[3] if len(args) > 3 else kwargs.get("order")
    if order is None:
        order = max(256, max_degree + 64)
    tr.counters["spherical_core.expand_terms"] += (max_degree + 1) * order


def _count_eval(default_k):
    def count(tr, args, kwargs, result):
        k = args[2] if len(args) > 2 else kwargs.get("k", default_k)
        if default_k and k == 0:
            return          # delegated to eval_spectrum, which counts
        tr.counters["spherical_core.eval_spectrum_calls"] += 1
        spectrum, u = args[0], args[1]
        tr.counters["spherical_core.eval_spectrum_terms"] += \
            int(np.size(u)) * max(0, len(spectrum.coeffs) - k)
    return count


def _count_select_eps(tr, args, kwargs, result):
    tr.counters["counterexample.select_eps_calls"] += 1
    tr.counters["counterexample.eps_halvings"] += int(result["halvings"])


def _count_find_root(tr, args, kwargs, result):
    tr.counters["counterexample.root_iterations"] += int(result["iterations"])


def _count_identity_sweep(tr, args, kwargs, result):
    ctx = args[0]
    tr.counters["counterexample.identity_sweep_points"] += \
        int(np.size(result["u_grid"])) * int(ctx.config.section_quad_order)


def self_times(spans) -> Counter:
    """Summed self time per span name: duration minus child durations.
    Planar span names carry the body kind already."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for i, (name, start, end, parent, op) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out
