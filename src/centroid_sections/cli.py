"""Command line front end.

Subcommands: construct (build the body and emit the certificate with
its data files: profiles.csv, sections.csv and body.json), verify
(recompute a certificate's checks from its parameters),
intersection-test, planar.  Exit codes: 0 success, 2 invalid input, 3
construction or check failure, 4 certificate verification failure.  All
files are written atomically (temp file + rename) so a crash never
leaves a half-written certificate.

The construction modules are imported inside the subcommands that use
them, and they run on numpy alone: the only scipy import is the periodic
spline of `planar --input` with a theta,rho CSV, made when it is read.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .config import ConstructionError, RunConfig
from .planar import PlanarBody, bisected_chords, polygon_body, radial_body

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONSTRUCT = 3
EXIT_VERIFY = 4

ENV_OUTDIR = "CENTROID_SECTIONS_OUTDIR"

# rows of profiles.csv, uniform in u on [-1, 1]
PROFILE_GRID = 1001


def _outdir(args) -> str:
    out = getattr(args, "outdir", None) or os.environ.get(ENV_OUTDIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# construct

def _profiles_rows(res):
    """Rows of profiles.csv.  The perturbed radius is the body's
    (rho_base^n + eps phi)^{1/n}, and the blended transform ghat is
    ghat(0) + u phi, ghat(0) = (1 - lambda0) b(0) (the gap's transform
    vanishes at the equator), both from the same rho_base and phi
    columns, so phi is summed once per row."""
    from .counterexample import _root_jet
    ctx, lam0 = res["context"], res["root"]["lambda0"]
    u = np.linspace(-1.0, 1.0, PROFILE_GRID)
    rho = np.asarray(ctx.base.rho(u), dtype=float)
    phi = ctx.perturbation(lam0)(u)
    rho_pert = _root_jet(ctx.n, res["body"].params["eps"], (rho,), (phi,))[0]
    columns = (u, rho, phi, rho_pert, ctx.seed_value(u, lam0),
               (1.0 - lam0) * ctx.bump_ft_at_zero + u * phi)
    return zip(*(np.asarray(c, dtype=float).tolist() for c in columns))


def cmd_construct(args) -> int:
    from . import counterexample as cx
    from .revolution_bodies import body_to_dict
    out = _outdir(args)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        res = cx.run_construction(cfg)
    except ConstructionError as exc:
        _write_atomic(os.path.join(out, "diagnostic.json"),
                      _json_text({"stage": "construction",
                                  "error": str(exc)}))
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    cert, columns = res["certificate"], ("u_grid", "centroid_quadrature",
                                         "centroid_analytic", "rel_err")
    files = {
        "certificate.json": _json_text(cert),
        "profiles.csv": _csv_text(
            ["u", "rho_base", "perturbation", "rho_perturbed", "blend",
             "blend_transform"], _profiles_rows(res)),
        "sections.csv": _csv_text(
            ["u_xi", *columns[1:]],
            zip(*(res["sweep"][c].tolist() for c in columns))),
        "body.json": _json_text(body_to_dict(res["body"])),
    }
    for name, text in files.items():
        _write_atomic(os.path.join(out, name), text)
    status = "valid" if cert["valid"] else "INVALID"
    print(f"certificate {status}: lambda0={cert['lambda0']:.9e} "
          f"eps0={cert['eps0']:.3e} "
          f"identity={cert['identity_max_relerr']:.3e} "
          f"margin={cert['min_section_margin']:.3e}")
    for name in cert["failures"]:
        print(f"  failed: {name}")
    return EXIT_OK if cert["valid"] else EXIT_CONSTRUCT


# ---------------------------------------------------------------------------
# verify

def _check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _unusable(why):
    """Name on stderr why verify cannot use a certificate."""
    print(f"error: {why}", file=sys.stderr)


def _load_certificate(args):
    """(config, read) for the certificate that verify checks, or None
    after printing why it cannot be used.  One pass reads each value that
    verify takes from the file once, and read maps its name ("lambda0",
    "params.cap_u0", "checks", ...) to it.

    Every value that verify reads must be present and a finite number
    (an integer for an integer field; a bool is neither).  The recorded
    parameters set the geometry, and a stored configuration field replaces
    its default (a = None asks for the automatic choice).  Grid sizes are
    package constants, never read from the file; grids.alpha_grid only
    names the sweep directions of the certificate's record, which verify
    refines to at least twice the package's grid.  Tolerances are package
    constants too: the file's tolerances records only what construct
    used, so a certificate cannot loosen, tighten or coarsen its own
    checks.
    """
    from . import counterexample as cx
    try:
        with open(args.certificate) as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _unusable(f"cannot read certificate: {exc}")
    schema = cert.get("schema") if isinstance(cert, dict) else None
    if schema != cx.CERTIFICATE_SCHEMA:
        return _unusable(f"unsupported certificate schema {schema!r}")
    params, grids, checks = (cert.get(k)
                             for k in ("params", "grids", "checks"))
    stored = cert.get("config", {})
    if not all(isinstance(x, dict) for x in (params, stored, checks, grids)):
        return _unusable("invalid certificate: params, checks, grids and "
                         "config must be objects")
    fields = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
    reads = [("params.n", params.get("n"), int),
             ("grids.alpha_grid", grids.get("alpha_grid"), int)]
    reads += [(f"params.{k}", params.get(k), float) for k in
              ("a", "cap_u0", "cap_margin", "eps", "lambda")]
    reads += [(k, cert.get(k), float) for k in
              ("lambda0", "eps0", "kappa_min_perturbed", "min_section_margin")]
    reads += [(f"config.{k}", stored[k], float if k == "a" else kind)
              for k, kind in fields.items()
              if k in stored and not (k == "a" and stored[k] is None)]
    for name, value, kind in reads:
        types = (int,) if kind is int else (int, float)
        if not (isinstance(value, types) and not isinstance(value, bool)
                and math.isfinite(value)):
            what = "an integer" if kind is int else "a finite number"
            return _unusable(f"invalid certificate: {name} must be {what}, "
                             f"not {value!r}")
    read = {name: value for name, value, _ in reads}
    cfg = RunConfig(**{k: stored[k] for k in fields if k in stored})
    try:
        cfg.validate()
        cfg.alpha_grid = read["grids.alpha_grid"]
        cfg.validate()
    except ValueError as exc:
        return _unusable(f"invalid certificate configuration: {exc}")
    cfg.n, cfg.a = read["params.n"], read["params.a"]
    return cfg, dict(read, checks=checks)


def cmd_verify(args) -> int:
    loaded = _load_certificate(args)
    if loaded is None:
        return EXIT_USAGE
    try:
        ok = _recheck(*loaded)
    except ConstructionError as exc:
        # a precondition that fails on the recorded parameters (as one that
        # admits no body) refutes the certificate; no construction failed
        ok = _check("recheck_completes", False, str(exc))
    print("verification " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY


# how far, relative to the file's lambda0, the root bisected again may lie
# from it: bisection from the file's eps0 gives its bits back
_ROOT_REPRODUCES_REL = 1e-6

# the record entry that each of the certificate's checks bounds
_CHECK_READS = {
    "lambda0_interior": "lambda0",
    "root_within_tolerance": "centroid_at_root",
    "bracket_sign_change": "bracket",
    "base_convex": "kappa_min_base",
    "perturbed_convex": "kappa_min_perturbed",
    "identity_within_tolerance": "identity_max_relerr",
    "margin_positive": "min_section_margin",
    "equator_within_tolerance": "equator_residual_rel",
}


def _recheck(cfg, read) -> bool:
    """Recompute the certificate's checks at its (lambda0, eps0) with
    construct's own code (ConstructionContext.certify), one PASS/FAIL line
    each, then verify's own: the root found again, lhs by the quadrature
    route, and the file's record (read, see _load_certificate) against the
    recomputed one."""
    from .counterexample import _mirrored_grid, get_context
    try:
        ctx = get_context(cfg, read["params.cap_u0"])
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc
    lam0, eps0 = read["lambda0"], read["eps0"]
    # the sweep directions of the file's record, refined stride/2-fold to
    # at least twice the package's grid: every stride-th direction is one
    size = cfg.alpha_grid
    stride = 2 * -(-(RunConfig.alpha_grid - 1) // (size - 1))
    grid = _mirrored_grid(stride * (size - 1) + 1)
    record, sweep = ctx.certify(lam0, eps0, grid)
    ok = True
    for name, passed in record["checks"].items():
        key = _CHECK_READS[name]
        ok &= _check(name, passed, f"{key} = {record[key]!r}")

    root = ctx.find_root(eps0)
    ok &= _check("root_reproduces", abs(root["lambda0"] - lam0)
                 <= _ROOT_REPRODUCES_REL * abs(lam0),
                 f"recomputed lambda0 = {root['lambda0']:.9e}")

    # the other route for lhs, at the 4 worst directions and the 2 interior
    # ones nearest each pole, in ascending order
    picked = np.zeros(grid.size, dtype=bool)
    picked[np.argsort(sweep["rel_err"])[-4:]] = True
    picked[[1, 2, grid.size - 3, grid.size - 2]] = True
    picks = picked.nonzero()[0]
    dev = (np.max(np.abs(ctx.quadrature_lhs(lam0, eps0, grid[picks])
                         - sweep["lhs"][picks]))
           / max(sweep["rhs_max"], 1e-300))
    ok &= _check("identity_by_quadrature",
                 dev <= RunConfig.tolerances["identity_rel"] / 10.0,
                 f"max |lhs difference| = {dev:.3e} of max |rhs| at "
                 f"{picks.size} directions")

    # the file's flags, and two of its values to 1e-6 relative, the margin
    # over the record's own directions
    recomputed = {"kappa_min_perturbed": record["kappa_min_perturbed"],
                  "min_section_margin": float(np.min(
                      sweep["centroid_quadrature"][stride:-stride:stride])
                      / record["diameter"])}
    differ = [f"checks.{name}" for name, flag in record["checks"].items()
              if read["checks"].get(name) is not flag]
    differ += [key for key, value in recomputed.items()
               if not abs(value - read[key]) <= 1e-6 * abs(value)]
    ok &= _check("record_matches_recomputation", not differ,
                 "differ: " + ", ".join(differ) if differ else
                 "checks, kappa_min_perturbed and min_section_margin agree")
    return ok


# ---------------------------------------------------------------------------
# intersection test

def cmd_intersection_test(args) -> int:
    from .counterexample import auto_select_a
    from .revolution_bodies import intersection_body_test, make_base_body
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    a = cfg.a if cfg.a is not None else auto_select_a(cfg.n)
    body = make_base_body(cfg.n, a)
    res = intersection_body_test(body)
    verdict = ("IS an intersection body" if res["is_intersection"]
               else "NOT an intersection body")
    print(f"base body n={cfg.n} a={a}: {verdict}; "
          f"transform min {res['min_value']:.6e} at u={res['argmin_u']:.4f}")
    out = getattr(args, "outdir", None) or os.environ.get(ENV_OUTDIR)
    if out:
        os.makedirs(out, exist_ok=True)
        payload = {"n": cfg.n, "a": a, **{k: res[k] for k in
                   ("min_value", "argmin_u", "is_intersection")}}
        _write_atomic(os.path.join(out, "intersection.json"),
                      _json_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# planar

_DEMOS = {}


def _demo_triangle() -> PlanarBody:
    return polygon_body([(0.0, 0.0), (2.0, 0.0), (0.6, 1.5)])


def _demo_ellipse() -> PlanarBody:
    def rho(th):
        return 2.0 / np.sqrt(np.cos(th) ** 2 + 4 * np.sin(th) ** 2)
    return radial_body(rho)


def _demo_blob() -> PlanarBody:
    def rho(th):
        return 1.0 + 0.3 * np.cos(th) + 0.1 * np.sin(2 * th)
    return radial_body(rho)


_DEMOS.update(triangle=_demo_triangle, ellipse=_demo_ellipse,
              blob=_demo_blob)


def _planar_from_csv(path: str) -> PlanarBody:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("CSV needs a header and at least one data row")
    header = [c.strip().lower() for c in rows[0]]
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    if header[:2] == ["x", "y"]:
        return polygon_body(data[:, :2])
    if header[:2] == ["theta", "rho"]:
        th, r = data[:, 0], data[:, 1]
        order = np.argsort(th)
        th, r = th[order], r[order]
        # drop samples that already sit on the wrap point so the knot
        # sequence stays strictly increasing after closing the period
        keep = th < th[0] + 2 * np.pi - 1e-12
        th, r = th[keep], r[keep]
        from scipy.interpolate import CubicSpline
        spl = CubicSpline(np.append(th, th[0] + 2 * np.pi),
                          np.append(r, r[0]), bc_type="periodic")

        def rho(t):
            return spl(np.mod(t, 2 * np.pi))

        return radial_body(rho)
    raise ValueError("CSV must have header x,y or theta,rho")


def cmd_planar(args) -> int:
    try:
        if args.demo:
            body = _DEMOS[args.demo]()
        elif args.input:
            body = _planar_from_csv(args.input)
        else:
            print("error: provide --input CSV or --demo name",
                  file=sys.stderr)
            return EXIT_USAGE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    res = bisected_chords(body)
    if res["symmetric_all"]:
        payload = {"count": "symmetric_all", "directions": []}
        print("every chord through the centroid is bisected "
              "(centrally symmetric)")
    else:
        payload = {"count": res["count"],
                   "directions": [float(t) for t in res["directions"]]}
        dirs = ", ".join(f"{t:.6f}" for t in res["directions"])
        print(f"{res['count']} bisected chords through the centroid "
              f"at angles [{dirs}]")
    out = getattr(args, "outdir", None) or os.environ.get(ENV_OUTDIR)
    if out:
        os.makedirs(out, exist_ok=True)
        _write_atomic(os.path.join(out, "planar.json"), _json_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="centroid-sections",
        description="Convex body whose centroid is the centroid of exactly "
                    "one hyperplane section: construction and checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, default=None,
                       help="ambient dimension (>= 5)")
        p.add_argument("--a", type=float, default=None,
                       help="flattening parameter in (0,1); default auto")
        p.add_argument("--outdir", default=None,
                       help=f"output directory (or ${ENV_OUTDIR})")

    pc = sub.add_parser("construct", help="build the body and certificate")
    add_common(pc)
    pc.add_argument("--eps", type=float, default=None,
                    help="starting perturbation size")
    pc.add_argument("--alpha-grid", dest="alpha_grid", type=int, default=None,
                    help="number of section directions")
    pc.add_argument("--seed", type=int, default=None,
                    help="accepted and ignored: the construction is "
                         "deterministic")
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="recheck a certificate")
    pv.add_argument("certificate", help="path to certificate.json")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("intersection-test",
                        help="transform-sign test for the base body")
    add_common(pi)
    pi.set_defaults(func=cmd_intersection_test)

    pp = sub.add_parser("planar", help="bisected chords of a planar body")
    pp.add_argument("--input", default=None,
                    help="CSV with header x,y (polygon) or theta,rho")
    pp.add_argument("--demo", choices=sorted(_DEMOS), default=None)
    pp.add_argument("--outdir", default=None)
    pp.set_defaults(func=cmd_planar)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT


if __name__ == "__main__":
    sys.exit(main())
