"""Command line front end.

Subcommands: construct (build the body and emit the certificate with
its data files: profiles.csv, sections.csv and body.json), verify
(recompute a certificate's checks at the point it claims, then run
construct again on the request it records and compare every entry),
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


def _config_from_args(values) -> RunConfig:
    """The validated RunConfig of a request, a mapping from field names
    (the parsed options of construct or intersection-test, or the config
    block of a certificate); a field it leaves out or sets to None keeps
    its default, and other keys are ignored."""
    return RunConfig(**{f.name: values[f.name]
                        for f in dataclasses.fields(RunConfig)
                        if values.get(f.name) is not None}).validate()


# ---------------------------------------------------------------------------
# construct

def _profiles_rows(res):
    """Rows of profiles.csv.  The perturbed radius is the body's own
    profile, and the blended transform ghat is ghat(0) + u phi, ghat(0) =
    (1 - lambda0) b(0) (the gap's transform vanishes at the equator), from
    the phi column."""
    ctx, lam0 = res["context"], res["root"]["lambda0"]
    u = np.linspace(-1.0, 1.0, PROFILE_GRID)
    phi = ctx.perturbation(lam0)(u)
    columns = (u, ctx.base.rho(u), phi, res["body"].rho(u),
               ctx.seed_value(u, lam0),
               (1.0 - lam0) * ctx.bump_ft_at_zero + u * phi)
    return zip(*(np.asarray(c, dtype=float).tolist() for c in columns))


def cmd_construct(args) -> int:
    from . import counterexample as cx
    from .revolution_bodies import body_to_dict
    out = _outdir(args)
    try:
        cfg = _config_from_args(vars(args))
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


def _load_certificate(path):
    """(cert, config) for the certificate that verify checks, or None
    after printing why it cannot be used.  Its inputs are the request that
    construct received, the config block, and the point it claims, lambda0
    and eps0: each must be present and a finite number (an integer for an
    integer field; a bool is neither), except that config.a = None asks
    for the automatic choice, and the config must be one that construct
    accepts.  Every other entry is compared, not read (_recheck)."""
    from . import counterexample as cx
    try:
        with open(path) as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _unusable(f"cannot read certificate: {exc}")
    schema = cert.get("schema") if isinstance(cert, dict) else None
    if schema != cx.CERTIFICATE_SCHEMA:
        return _unusable(f"unsupported certificate schema {schema!r}")
    stored = cert.get("config")
    if not isinstance(stored, dict):
        return _unusable("invalid certificate: config must be an object")
    reads = [(f"config.{f.name}", stored.get(f.name), f.type)
             for f in dataclasses.fields(RunConfig)
             if not (f.name == "a" and stored.get("a") is None)]
    reads += [(k, cert.get(k), float) for k in ("lambda0", "eps0")]
    for name, value, kind in reads:
        types = (int,) if kind is int else (int, float)
        if not (isinstance(value, types) and not isinstance(value, bool)
                and math.isfinite(value)):
            what = "an integer" if kind is int else "a finite number"
            return _unusable(f"invalid certificate: {name} must be {what}, "
                             f"not {value!r}")
    try:
        return cert, _config_from_args(stored)
    except ValueError as exc:
        return _unusable(f"invalid certificate configuration: {exc}")


def cmd_verify(args) -> int:
    loaded = _load_certificate(args.certificate)
    if loaded is None:
        return EXIT_USAGE
    try:
        ok = _recheck(*loaded)
    except ConstructionError as exc:
        # a recorded request whose context cannot be built (as at n = 3000)
        # refutes the certificate; no construction failed
        ok = _check("recheck_completes", False, str(exc))
    print("verification " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY


# how far a number the file records may lie from construct's, relatively
_RECORD_REL = 1e-6

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


def _differences(stored, redone, name="") -> list:
    """Dotted names of the entries of redone that stored lacks or
    contradicts: a number (a bool is none) must lie within _RECORD_REL of
    redone's, relative to it, anything else be equal.  Keys that only
    stored has are ignored."""
    if isinstance(redone, dict):
        if not isinstance(stored, dict):
            return [name]
        names = {key: f"{name}.{key}" if name else key for key in redone}
        return [d for key, value in redone.items() for d in (
            _differences(stored[key], value, names[key]) if key in stored
            else [names[key]])]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool)
           for x in (stored, redone)):
        same = abs(stored - redone) <= _RECORD_REL * abs(redone)
    else:
        same = type(stored) is type(redone) and stored == redone
    return [] if same else [name]


def _recheck(cert, cfg) -> bool:
    """Recompute the certificate's checks at its (lambda0, eps0) with
    construct's own code (ConstructionContext.certify), one PASS/FAIL line
    each, then verify's own two: lhs by the quadrature route, and the file
    against the certificate that construct writes for its config
    (run_construction), every entry but meta."""
    from .counterexample import _mirrored_grid, get_context, run_construction
    ctx = get_context(cfg)
    lam0, eps0 = cert["lambda0"], cert["eps0"]
    # construct's sweep directions and one between each pair
    grid = _mirrored_grid(2 * RunConfig.alpha_grid - 1)
    record, sweep = ctx.certify(lam0, eps0, grid)
    ok = True
    for name, passed in record["checks"].items():
        key = _CHECK_READS[name]
        ok &= _check(name, passed, f"{key} = {record[key]!r}")

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

    try:
        redone = run_construction(cfg)["certificate"]
        differ = _differences(cert, {k: v for k, v in redone.items()
                                     if k != "meta"})
        detail = ("differ: " + ", ".join(differ) if differ else
                  "every entry outside meta agrees")
    except ConstructionError as exc:
        differ, detail = True, str(exc)
    ok &= _check("record_matches_recomputation", not differ, detail)
    return ok


# ---------------------------------------------------------------------------
# intersection test

def cmd_intersection_test(args) -> int:
    from .counterexample import auto_select_a
    from .revolution_bodies import intersection_body_test, make_base_body
    try:
        cfg = _config_from_args(vars(args))
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
    """The body of a CSV whose header is x,y (polygon vertices) or
    theta,rho (a radial profile); blank lines are skipped, and a row
    whose field count is not the header's, or whose angle an earlier row
    has, is named by its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r]
    if len(rows) < 2:
        raise ValueError("CSV needs a header and at least one data row")
    header = [c.strip().lower() for c in rows[0][1]]
    for line, r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(f"CSV line {line} has {len(r)} fields, "
                             f"the header {len(header)}")
    data = np.array([[float(x) for x in r] for _, r in rows[1:]])
    if header[:2] == ["x", "y"]:
        return polygon_body(data[:, :2])
    if header[:2] == ["theta", "rho"]:
        th, r = data[:, 0], data[:, 1]
        order = np.argsort(th, kind="stable")
        th, r = th[order], r[order]
        repeats = np.flatnonzero(th[1:] == th[:-1])
        if repeats.size:
            i = repeats[0]
            raise ValueError(f"CSV line {rows[1 + order[i + 1]][0]} repeats "
                             f"the angle {float(th[i])!r} of line "
                             f"{rows[1 + order[i]][0]}")
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
