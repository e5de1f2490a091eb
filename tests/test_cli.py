import argparse
import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from centroid_sections import RunConfig, cli

C5 = 16.0 * np.pi ** 2


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# construct outputs


def test_construct_writes_expected_files(cli_outdir):
    for name in ("certificate.json", "profiles.csv", "sections.csv",
                 "body.json"):
        assert (cli_outdir / name).is_file()


def test_profiles_csv_shape(cli_outdir):
    header, rows = _read_csv(cli_outdir / "profiles.csv")
    assert header == ["u", "rho_base", "perturbation", "rho_perturbed",
                      "blend", "blend_transform"]
    assert len(rows) == 1001
    u = np.array([float(r[0]) for r in rows])
    assert u[0] == -1.0 and u[-1] == 1.0
    assert np.all(np.diff(u) > 0)
    rho = np.array([float(r[3]) for r in rows])
    assert np.all(rho > 0)


def test_sections_csv_shape(cli_outdir):
    header, rows = _read_csv(cli_outdir / "sections.csv")
    assert header == ["u_xi", "centroid_quadrature", "centroid_analytic",
                      "rel_err"]
    assert len(rows) == 721
    rel = np.array([float(r[3]) for r in rows])
    assert np.max(rel) <= 1e-6


def test_body_json_describes_perturbed_body(cli_outdir):
    body = json.loads((cli_outdir / "body.json").read_text())
    assert body["n"] == 5
    assert body["kind"] == "perturbed"
    assert body["params"]["eps"] == 2.44140625e-07
    assert 0.0 < body["params"]["lambda"] < 1.0
    samples = np.asarray(body["profile_samples"], dtype=float)
    assert samples.shape[1] == 2
    assert np.all(samples[:, 1] > 0)


def test_profiles_rows_run_no_gegenbauer_recurrence(construct_result,
                                                    monkeypatch):
    # the blended transform is ghat(0) + u phi from the perturbation
    # column, ghat(0) = (1 - lambda0) b(0) the context's extended precision
    # value, so profiles.csv sums no series by its three-term recurrence
    from centroid_sections import spherical_core

    def refused(*args, **kwargs):
        raise AssertionError("Gegenbauer recurrence run")

    monkeypatch.setattr(spherical_core, "_rolling_accumulate", refused)
    rows = np.array(list(cli._profiles_rows(construct_result)))
    lam0 = construct_result["root"]["lambda0"]
    ghat0 = (1.0 - lam0) * construct_result["context"].bump_ft_at_zero
    assert np.array_equal(rows[:, 5], ghat0 + rows[:, 0] * rows[:, 2])


def test_profiles_rows_sum_the_perturbation_once(construct_result,
                                                 monkeypatch):
    # rho_perturbed comes from the perturbation column through the body's
    # chain rule, so profiles.csv sums the bump quotient's series once (a
    # second pass inside the body's radius took it to two), and the column
    # keeps the body's bits
    from centroid_sections import counterexample as cx
    ctx = construct_result["context"]
    quotient = [ctx.bump_quotient, getattr(ctx, "quotient_cosine", None)]
    calls = []
    # every name the construction sums a series through
    for name in ("eval_spectrum", "_cosine_sum"):
        real = getattr(cx, name, None)
        if real is None:
            continue

        def counted(series, u, *args, real=real):
            if any(series is q for q in quotient):
                calls.append(np.size(u))
            return real(series, u, *args)

        monkeypatch.setattr(cx, name, counted)
    rows = np.array(list(cli._profiles_rows(construct_result)))
    assert calls == [cli.PROFILE_GRID]
    monkeypatch.undo()
    assert np.array_equal(rows[:, 3],
                          construct_result["body"].rho(rows[:, 0]))


def _construct_files(tmp_path, env, name):
    out = tmp_path / name
    res = subprocess.run([sys.executable, "-m", "centroid_sections.cli",
                          "construct", "--n", "5", "--outdir", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    cert = json.loads((out / "certificate.json").read_text())
    del cert["meta"]
    return cert, [(out / f).read_bytes()
                  for f in ("profiles.csv", "sections.csv", "body.json")]


def test_construct_output_independent_of_blas_threads(tmp_path,
                                                      subprocess_env):
    # the float64 sums fix their own summation order: one BLAS thread and
    # the default write the same certificate outside meta and the same
    # files
    default = {k: v for k, v in subprocess_env.items()
               if k != "OPENBLAS_NUM_THREADS"}
    one = dict(default, OPENBLAS_NUM_THREADS="1")
    assert (_construct_files(tmp_path, one, "one")
            == _construct_files(tmp_path, default, "default"))


def test_construct_idempotent(cli_outdir, tmp_path, capsys):
    out2 = tmp_path / "again"
    rc = cli.main(["construct", "--outdir", str(out2)])
    assert rc == 0
    assert "certificate valid" in capsys.readouterr().out

    a = json.loads((cli_outdir / "certificate.json").read_text())
    b = json.loads((out2 / "certificate.json").read_text())
    assert set(a.pop("meta")) == set(b.pop("meta")) \
        == {"created_utc", "runtime_seconds"}
    assert a == b
    for name in ("profiles.csv", "sections.csv", "body.json"):
        assert (cli_outdir / name).read_bytes() == (out2 / name).read_bytes()


def test_construct_eps_too_large_exits_3(tmp_path, capsys):
    rc = cli.main(["construct", "--eps", "10", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "eps too large" in capsys.readouterr().err
    diag = json.loads((tmp_path / "diagnostic.json").read_text())
    assert diag["stage"] == "construction"
    assert "eps too large" in diag["error"]
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("command,n", [
    pytest.param("construct", 28, id="construct-28"),
    pytest.param("intersection-test", 27, id="intersection-test-27"),
    pytest.param("intersection-test", 100, id="intersection-test-100")])
def test_large_n_outcomes_are_named(command, n, tmp_path, subprocess_env):
    # no rule limits a large n: construct at n = 28 ends where n = 9 to 27
    # do, on lost positivity at the eps floor, and the intersection test
    # at n = 27 and 100 either gives a verdict or names an unresolved
    # transform.  A named construction failure (exit 3), not a traceback
    res = subprocess.run([sys.executable, "-m", "centroid_sections.cli",
                          command, "--n", str(n), "--outdir", str(tmp_path)],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=120)
    assert "Traceback" not in res.stderr
    if command == "construct":
        assert res.returncode == 3
        assert "construction failed: eps too large" in res.stderr
        diag = json.loads((tmp_path / "diagnostic.json").read_text())
        assert diag["stage"] == "construction"
        assert "eps too large" in diag["error"]
    else:
        assert res.returncode in (0, 3)
        if res.returncode == 3:
            assert res.stderr.startswith("construction failed: intersection "
                                         "test unresolved")
        else:
            assert "an intersection body" in res.stdout


@pytest.mark.parametrize("n,verdict", [(5, "NOT an intersection body"),
                                       (20, None)])
def test_intersection_test_gives_no_verdict_on_an_unresolved_transform(
        n, verdict, tmp_path, subprocess_env):
    # at n = 20 the degree-120 transform is off by about 1e3 times its max
    # (the closed form's min is -3.3e15); the verdict it gave is refused,
    # named, with exit 3.  At n = 5 the degree-120 and degree-60
    # transforms agree to 1.1e-6 against a min of -158, and the verdict
    # stands
    res = subprocess.run([sys.executable, "-m", "centroid_sections.cli",
                          "intersection-test", "--n", str(n), "--outdir",
                          str(tmp_path)],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=120)
    assert "Traceback" not in res.stderr
    if verdict is None:
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr.startswith("construction failed: intersection "
                                     "test unresolved at n = 20")
        assert not (tmp_path / "intersection.json").exists()
    else:
        assert res.returncode == 0 and verdict in res.stdout


@pytest.mark.parametrize("n", [8, 200, 3000])
def test_large_n_failure_is_one_named_line(n, tmp_path, subprocess_env):
    # n = 8 has no bracket; at n = 200 the bump's float64 series overflow
    # near the poles; at n = 3000 the transform constant c_n overflows
    # even longdouble.  Either way the only stderr line names the failure:
    # no numpy warning on the way
    res = subprocess.run([sys.executable, "-m", "centroid_sections.cli",
                          "construct", "--n", str(n), "--outdir",
                          str(tmp_path)],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 3
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("construction failed: ")
    if n == 3000:
        assert "c_n overflows" in lines[0]


def test_construct_and_verify_n7(tmp_path, capsys):
    # n = 7 certifies, and its certificate verifies
    assert cli.main(["construct", "--n", "7", "--outdir", str(tmp_path)]) == 0
    assert cli.main(["verify", str(tmp_path / "certificate.json")]) == 0
    assert "verification PASSED" in capsys.readouterr().out


def test_verify_holds_the_root_relative_to_lambda0(tmp_path, capsys):
    # at n = 7, lambda0 = 1.8e-7 and bisection resolves it to 2^-24: a
    # root nudged by 1 % still has |c| below root_abs, and it lies 1.8e-9
    # from the recomputed one, which the absolute 1e-8 of root_reproduces
    # let pass; the bound is now 1e-6 lambda0
    assert cli.main(["construct", "--n", "7", "--outdir", str(tmp_path)]) == 0
    path = tmp_path / "certificate.json"
    cert = json.loads(path.read_text())
    cert["lambda0"] *= 1.01
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert "PASS root_within_tolerance" in out
    assert "FAIL root_reproduces: " in out


def test_construct_coarse_grid_is_valid(tmp_path, capsys):
    # 101 directions put only u = +-0.98 and +-1 in the caps |u| > 0.97987;
    # the identity's scale includes the bump's peaks, so the error is
    # measured as on the default grid (8.74e-9 against 8.77e-9), not
    # against the grid's own max |rhs| (5.0e-5)
    rc = cli.main(["construct", "--alpha-grid", "101",
                   "--outdir", str(tmp_path)])
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert rc == 0 and cert["valid"]
    assert 8e-9 <= cert["identity_max_relerr"] <= 1e-8
    assert "identity=8.74" in capsys.readouterr().out


def test_construct_low_dimension_exits_2(tmp_path, capsys):
    rc = cli.main(["construct", "--n", "4", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--alpha-grid", "0"], "alpha_grid must be at least 3"),
    (["--alpha-grid", "2"], "alpha_grid must be at least 3"),
    (["--eps", "nan"], "eps must be positive and finite"),
], ids=["alpha_grid_0", "alpha_grid_2", "nan_eps"])
def test_construct_rejects_invalid_setting(argv, message, tmp_path, capsys):
    # each is invalid input, named on stderr, before any construction work
    rc = cli.main(["construct", *argv, "--outdir", str(tmp_path)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "diagnostic.json").exists()


def test_construct_seed_is_accepted_and_ignored():
    # the construction is deterministic; --seed stays for older scripts
    args = cli._build_parser().parse_args(["construct", "--seed", "-1"])
    assert cli._config_from_args(args) == RunConfig()


@pytest.mark.parametrize("command", ["construct", "intersection-test"])
def test_too_large_a_exits_2(command, tmp_path, capsys):
    # at n = 5, 1 - 2 a^3 < 0 for a = 0.8: no base body exists, although
    # a lies in (0, 1) and the base transform still changes sign
    rc = cli.main([command, "--a", "0.8", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "error: profile not positive" in capsys.readouterr().err


# verify


def test_verify_fresh_certificate_passes(cli_outdir, capsys):
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verification PASSED" in out
    assert out.count("PASS ") == 11 and "FAIL" not in out


def _tampered(cli_outdir, tmp_path, mutate):
    cert = json.loads((cli_outdir / "certificate.json").read_text())
    mutate(cert)
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(cert))
    return path


def test_verify_rejects_shifted_root(cli_outdir, tmp_path, capsys):
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c.update(lambda0=c["lambda0"] + 0.1))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL root_within_tolerance" in out
    assert "verification FAILED" in out


def test_verify_holds_nudged_root_to_package_tolerance(cli_outdir, tmp_path,
                                                      capsys):
    # a root_abs of 1e-6 would pass |c| ~ 2.4e-13 at a root nudged by
    # 0.1 %; stored in the tolerances record, or in the config block that
    # older certificates carried, it does not replace the package's 1e-13
    def mutate(cert):
        cert["lambda0"] *= 1.0 + 1e-3
        cert["tolerances"]["root_abs"] = 1e-6
        cert["config"]["tolerances"] = dict(cert["tolerances"])
    path = _tampered(cli_outdir, tmp_path, mutate)
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL root_within_tolerance" in out


def test_verify_fails_when_recheck_precondition_fails(cli_outdir, tmp_path,
                                                      capsys):
    # at n = 5 a base body needs 2 a^3 < 1, so a recorded a = 0.8 admits
    # none: the recheck cannot start, which refutes the certificate (exit
    # 4) on one named line; it is no construction failure
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["params"].update(a=0.8))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 4
    assert out.splitlines() == [
        "FAIL recheck_completes: profile not positive: a too large for "
        "this n", "verification FAILED"]


def _stored_identity_rel(cert):
    cert["tolerances"]["identity_rel"] = 1e-30
    cert["config"]["tolerances"] = dict(cert["tolerances"])


@pytest.mark.parametrize("mutate", [lambda c: None, _stored_identity_rel],
                         ids=["shipped", "stored_identity_rel_1e-30"])
def test_verify_prints_the_same_lines_fresh_and_warm(
        cli_outdir, tmp_path, ctx5, subprocess_env, capsys, mutate):
    # in a new process, and after the session has built the default
    # context, verify prints the same lines: every check reads the
    # package's tolerances, and a tolerance stored in the file, in its
    # tolerances record or in an older config block, changes none of them
    path = _tampered(cli_outdir, tmp_path, mutate)
    fresh = subprocess.run(
        [sys.executable, "-m", "centroid_sections.cli", "verify", str(path)],
        env=subprocess_env, capture_output=True, text=True, timeout=120)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0 == fresh.returncode
    warm = capsys.readouterr().out
    assert warm == fresh.stdout
    assert warm.count("PASS ") == 11 and "verification PASSED" in warm


def test_verify_quadrature_route_refutes_a_scaled_seed_series(
        cli_outdir, monkeypatch, capsys, cold):
    # the bump series' cosine coefficients that the sweep reads lhs from,
    # scaled by 1 + 1e-6: the section quadrature over the quotient's
    # Gegenbauer series disagrees.  The copy's sweep store starts empty, or
    # it would give back the unscaled series' sums
    from centroid_sections import counterexample as cx
    cert = json.loads((cli_outdir / "certificate.json").read_text())
    p = cert["params"]
    ctx = cold(cx.get_context(RunConfig(n=p["n"], a=p["a"]), p["cap_u0"]))
    ctx.bump_cosine = ctx.bump_cosine * (1.0 + 1e-6)
    monkeypatch.setitem(cx._CTX_CACHE, (ctx.n, ctx.a, ctx.cap_u0), ctx)
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL identity_by_quadrature" in out


def test_verify_sweeps_a_grid_mirrored_bit_for_bit(cli_outdir, monkeypatch,
                                                   capsys):
    # the doubled grid has 1441 directions and 721 distinct |u|, where
    # linspace(-1, 1, 1441) has 1116
    from centroid_sections import counterexample as cx
    grids = []
    real = cx.ConstructionContext.identity_sweep

    def recorded(self, lam, eps, u_grid=None):
        grids.append(u_grid)
        return real(self, lam, eps, u_grid)

    monkeypatch.setattr(cx.ConstructionContext, "identity_sweep", recorded)
    assert cli.main(["verify", str(cli_outdir / "certificate.json")]) == 0
    (grid,) = grids
    assert grid.size == 1441 and np.array_equal(grid, -grid[::-1])
    assert np.unique(np.abs(grid)).size == 721


def test_verify_does_not_read_the_pole_series(cli_outdir, tmp_path, capsys):
    # the pole block records; it is not a check, and verify reads none of
    # it: replaced by nonsense, the same eleven lines pass
    cli.main(["verify", str(cli_outdir / "certificate.json")])
    want = capsys.readouterr().out
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c.update(pole_series="not a record"))
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == want
    assert want.count("PASS ") == 11


def test_verify_fails_when_no_base_body_exists(cli_outdir, tmp_path,
                                               capsys):
    # a = 0.9 makes the n = 5 base profile negative, so no context can be
    # built for the recorded parameters
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["params"].update(a=0.9))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL recheck_completes: profile not positive" in out
    assert "verification FAILED" in out


@pytest.mark.parametrize("kappa", ["half_margin", "nan"])
def test_verify_holds_perturbed_convexity_to_margin(cli_outdir, monkeypatch,
                                                    capsys, kappa):
    # a curvature above 0 but below the convexity margin, or NaN, refutes
    # the certificate's perturbed_convex check
    from centroid_sections import counterexample as cx
    real = cx.ConstructionContext.kappa_report

    def report(self, lam, eps):
        rep = real(self, lam, eps)
        k = rep.margin / 2 if kappa == "half_margin" else float("nan")
        return dataclasses.replace(rep, kappa_min=k,
                                   is_convex=cx._clears(k, rep.margin))

    monkeypatch.setattr(cx.ConstructionContext, "kappa_report", report)
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL perturbed_convex" in out


def test_verify_rejects_forged_margin(cli_outdir, tmp_path, capsys):
    # the stored margin is no operand of margin_positive, which passes on
    # the recomputation; the line that holds the file to it fails
    path = _tampered(
        cli_outdir, tmp_path,
        lambda c: c.update(min_section_margin=-c["min_section_margin"]))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 4
    assert "PASS margin_positive" in out
    assert ("FAIL record_matches_recomputation: differ: min_section_margin"
            in out)


def _flip_check(cert):
    cert["checks"]["base_convex"] = False


@pytest.mark.parametrize("mutate,line", [
    (lambda c: c.update(lambda0=1.5), "lambda0_interior"),
    (lambda c: c.update(lambda0=-0.5), "margin_positive"),
    (lambda c: c.update(eps0=c["eps0"] * 1e3), "perturbed_convex"),
    (lambda c: c.update(eps0=c["eps0"] * 1e4), "bracket_sign_change"),
    (_flip_check, "record_matches_recomputation"),
], ids=["lambda0_above_1", "lambda0_below_0", "eps0_times_1e3",
        "eps0_times_1e4", "flipped_flag"])
def test_verify_refutes_forged_certificate(cli_outdir, tmp_path, capsys,
                                           mutate, line):
    # each forgery fails verify on its own named line.  At lambda0 = -0.5
    # the seed is negative near the equator, and so is the recomputed
    # margin; eps0 times 1e3 keeps the bracket (c(0) = -1.2e-7) but bends
    # the body concave, times 1e4 moves c(0) to +6.4e-5
    path = _tampered(cli_outdir, tmp_path, mutate)
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 4
    assert f"FAIL {line}: " in out
    assert "verification FAILED" in out


def test_verify_refutes_a_negative_sweep_margin(cli_outdir, monkeypatch,
                                                capsys):
    # a negative margin from the recomputed sweep fails its check
    from centroid_sections import counterexample as cx
    real = cx.ConstructionContext.identity_sweep

    def sweep(self, lam, eps, u_grid=None):
        out = real(self, lam, eps, u_grid)
        out["min_margin"] = -out["min_margin"]
        return out

    monkeypatch.setattr(cx.ConstructionContext, "identity_sweep", sweep)
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL margin_positive: " in out


def test_verify_refutes_a_base_body_below_the_margin(cli_outdir, monkeypatch,
                                                     capsys, cold):
    # verify recomputes the base body's curvature from the context's
    # theta-jet of rho_b: forged to a curvature of half the convexity
    # margin at the node u = 0 (where r_t = 0, so kappa = (r - r_tt) / r^2),
    # it fails base_convex
    from centroid_sections import counterexample as cx
    cert = json.loads((cli_outdir / "certificate.json").read_text())
    p = cert["params"]
    ctx = cold(cx.get_context(RunConfig(n=p["n"], a=p["a"]), p["cap_u0"]))
    r, r_t, r_tt = (f.copy() for f in ctx._rho)
    i = r.size // 2
    assert ctx._x[i] == 0.0 == r_t[i]
    r_tt[i] = r[i] - RunConfig.tolerances["convexity_margin"] / 2 * r[i] ** 2
    ctx._rho = (r, r_t, r_tt)
    monkeypatch.setitem(cx._CTX_CACHE, (ctx.n, ctx.a, ctx.cap_u0), ctx)
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL base_convex: kappa_min_base = " in out


def test_verify_lines_are_the_certificate_checks(construct_result,
                                                 cli_outdir, capsys):
    # verify prints one line per check of construct's table, under its
    # name and in its order, then its own three
    checks = construct_result["certificate"]["checks"]
    assert cli.main(["verify", str(cli_outdir / "certificate.json")]) == 0
    names = [line.split(":")[0].split()[1]
             for line in capsys.readouterr().out.splitlines()[:-1]]
    assert names == [*checks, "root_reproduces", "identity_by_quadrature",
                     "record_matches_recomputation"]
    assert set(cli._CHECK_READS) == set(checks)


# configuration keys, grids, tolerances and records that certificates
# carried while the package still had them, or while they were
# configuration rather than package constants (config.tolerances among
# them); nothing reads them now
DROPPED_CONFIG = {"cap_margin": 0.5, "quad_order": 256, "max_degree": 120,
                  "plot_grid": 1001, "planar_resolution": 4096,
                  "planar_theta_tol": 1e-10, "u_switch": 0.05, "gl_order": 96,
                  "bump_max_degree": 3200, "bump_quad_pad": 192,
                  "section_quad_order": 1728, "dense_eval_grid": 80001,
                  "curvature_grid": 4001, "equator_grid": 2001,
                  "eps_max_halvings": 20, "root_max_iter": 200,
                  "auto_a_candidates": [0.5, 0.4, 0.3, 0.2, 0.1, 0.05],
                  "seed": 24301}
DROPPED_GRIDS = {"u_switch": 0.05, "gl_order": 96, "bump_quad_order": 3392,
                 "dense_eval_grid": 40001}
DROPPED_KEYS = {"transform_slope_near_equator": 1.0,
                "transform_slope_note": "grid-verified",
                "parseval_residual": 8.0e-18,
                "checks.pairing_within_tolerance": True}
DROPPED_TOLERANCES = {"quadrature_exactness": 1e-12, "roundtrip_rel": 1e-8,
                      "route_agreement_rel": 1e-7, "symmetric_rel": 1e-10,
                      "branch_consistency_rel": 1e-9, "tail_warn_rel": 1e-6,
                      "parseval_rel": 1e-8}


def test_verify_accepts_certificate_with_dropped_keys(cli_outdir, tmp_path,
                                                      capsys):
    def mutate(cert):
        cert["config"].update(DROPPED_CONFIG)
        cert["grids"].update(DROPPED_GRIDS)
        cert["tolerances"].update(DROPPED_TOLERANCES)
        cert["config"]["tolerances"] = dict(cert["tolerances"])
        for key, value in DROPPED_KEYS.items():
            *path, name = key.split(".")
            target = cert
            for part in path:
                target = target[part]
            target[name] = value
    path = _tampered(cli_outdir, tmp_path, mutate)
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verification PASSED" in out


def test_verify_rejects_invalid_stored_config(cli_outdir, tmp_path, capsys):
    # a stored setting that construct would reject is invalid input
    for key, value, message in (("a", 0.9, "profile not positive"),
                                ("alpha_grid", 0,
                                 "alpha_grid must be at least 3")):
        path = _tampered(cli_outdir, tmp_path,
                         lambda c: c["config"].update({key: value}))
        assert cli.main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err
    # and so are two sweep directions recorded in grids
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["grids"].update(alpha_grid=2))
    assert cli.main(["verify", str(path)]) == 2
    assert "alpha_grid must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("stored", [
    {"curvature_grid": 41, "section_quad_order": 1000}, {"alpha_grid": 3},
], ids=["grid_constants", "alpha_grid_3"])
def test_verify_ignores_coarse_stored_grids(cli_outdir, tmp_path, capsys,
                                            monkeypatch, stored):
    # grid sizes are package constants, and a stored alpha_grid may raise
    # the doubled sweep grid but never lower it: coarse grids in the file
    # change no line of the verdict
    from centroid_sections import counterexample as cx
    assert cli.main(["verify", str(cli_outdir / "certificate.json")]) == 0
    want = capsys.readouterr().out
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["config"].update(stored))
    # a fresh build, as in a new process, so no cached table hides a grid
    monkeypatch.setattr(cx, "_CTX_CACHE", {})
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == want


def test_verify_holds_the_margin_over_the_certificate_directions(
        tmp_path, monkeypatch, capsys):
    # a certificate swept at 361 directions records the margin over them;
    # verify sweeps them refined 4-fold, 1441 directions, and reads the
    # stored margin back from every 4th
    from centroid_sections import counterexample as cx
    assert cli.main(["construct", "--alpha-grid", "361", "--outdir",
                     str(tmp_path)]) == 0
    grids = []
    real = cx.ConstructionContext.identity_sweep

    def recorded(self, lam, eps, u_grid=None):
        grids.append(u_grid)
        return real(self, lam, eps, u_grid)

    monkeypatch.setattr(cx.ConstructionContext, "identity_sweep", recorded)
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "certificate.json")]) == 0
    assert "PASS record_matches_recomputation" in capsys.readouterr().out
    (grid,) = grids
    assert grid.size == 1441
    assert np.max(np.abs(grid[::4] - cx._mirrored_grid(361))) <= 1e-16


def _drop_params(cert):
    del cert["params"]


def _string_lambda0(cert):
    cert["lambda0"] = "x"


def _string_a(cert):
    cert["params"]["a"] = "0.4"


def _fractional_grid(cert):
    cert["config"]["alpha_grid"] = 721.5


@pytest.mark.parametrize("mutate", [_drop_params, _string_lambda0, _string_a,
                                    _fractional_grid],
                         ids=["no_params", "string_lambda0", "string_a",
                              "fractional_grid"])
def test_verify_rejects_malformed_certificate(cli_outdir, tmp_path, capsys,
                                              mutate):
    # a value verify reads that is missing or not a number is invalid
    # input, named on stderr, not a traceback
    path = _tampered(cli_outdir, tmp_path, mutate)
    assert cli.main(["verify", str(path)]) == 2
    assert "error: invalid certificate: " in capsys.readouterr().err


def test_verify_rejects_unknown_schema(cli_outdir, tmp_path, capsys):
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c.update(schema="v0"))
    assert cli.main(["verify", str(path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


# intersection test


def test_intersection_test_reports_failure_at_poles(tmp_path, capsys):
    rc = cli.main(["intersection-test", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "NOT an intersection body" in out
    payload = json.loads((tmp_path / "intersection.json").read_text())
    assert payload["is_intersection"] is False
    assert abs(payload["min_value"] + C5) <= 1e-6 * C5
    assert abs(payload["argmin_u"]) == 1.0


# planar


def test_planar_demo_triangle(tmp_path, capsys):
    rc = cli.main(["planar", "--demo", "triangle", "--outdir",
                   str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 bisected chords" in out
    payload = json.loads((tmp_path / "planar.json").read_text())
    assert payload["count"] == 3
    got = np.sort(payload["directions"])
    want = np.array([0.0, 1.1902899, 2.3217254])
    assert np.max(np.abs(got - want)) <= 1e-6


def test_planar_demo_ellipse(tmp_path, capsys):
    rc = cli.main(["planar", "--demo", "ellipse", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "centrally symmetric" in out
    payload = json.loads((tmp_path / "planar.json").read_text())
    assert payload["count"] == "symmetric_all"


def test_planar_demo_blob(capsys):
    rc = cli.main(["planar", "--demo", "blob"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 bisected chords" in out


def test_planar_polygon_csv_input(tmp_path, capsys):
    path = tmp_path / "tri.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        w.writerows([(0.0, 0.0), (2.0, 0.0), (0.6, 1.5)])
    rc = cli.main(["planar", "--input", str(path)])
    assert rc == 0
    assert "3 bisected chords" in capsys.readouterr().out


def test_planar_tiny_polygon_csv_input(tmp_path, capsys):
    # legs of 1e-10: no vertex is taken for a repeated closing vertex
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n0,0\n1e-10,0\n0,1e-10\n")
    assert cli.main(["planar", "--input", str(path)]) == 0
    assert "3 bisected chords" in capsys.readouterr().out


def test_planar_radial_csv_with_wrap_duplicate(tmp_path, capsys):
    # a full-period sample including theta = 2*pi, which coincides with
    # theta = 0 after closing the spline
    th = np.linspace(0.0, 2.0 * np.pi, 721)
    r = 1.0 + 0.3 * np.cos(th) + 0.1 * np.sin(2.0 * th)
    path = tmp_path / "blob.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "rho"])
        w.writerows(zip(th, r))
    rc = cli.main(["planar", "--input", str(path), "--outdir",
                   str(tmp_path)])
    assert rc == 0
    assert "3 bisected chords" in capsys.readouterr().out


def test_planar_bad_header_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("r,t\n1.0,0.0\n")
    assert cli.main(["planar", "--input", str(path)]) == 2
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["x,y", "theta,rho"])
def test_planar_header_without_data_exits_2(tmp_path, capsys, header):
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    assert cli.main(["planar", "--input", str(path)]) == 2
    assert "data row" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_planar_nonfinite_vertex_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y\n0.0,0.0\n2.0,0.0\n0.6,{bad}\n")
    assert cli.main(["planar", "--input", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["1e110", "1e300"])
def test_planar_huge_coordinates_exit_2(tmp_path, capsys, size):
    # finite, but the polygon's cubic centroid sums would overflow
    path = tmp_path / "huge.csv"
    path.write_text(f"x,y\n0,0\n{size},0\n0,{size}\n")
    assert cli.main(["planar", "--input", str(path)]) == 2
    assert "at most" in capsys.readouterr().err


def test_planar_unresolved_thin_triangle_exits_3(tmp_path, capsys):
    # three crossings within ~2e-16 rad that no float64 scan can separate
    path = tmp_path / "thin.csv"
    path.write_text("x,y\n0,0\n1,0\n0.5,1e-16\n")
    assert cli.main(["planar", "--input", str(path)]) == 3
    assert ("construction failed: could not resolve"
            in capsys.readouterr().err)


def test_planar_requires_a_source(capsys):
    assert cli.main(["planar"]) == 2
    assert "provide" in capsys.readouterr().err


def test_planar_missing_input_file_exits_2(tmp_path, capsys):
    assert cli.main(["planar", "--input", str(tmp_path / "no.csv")]) == 2
    capsys.readouterr()


# plumbing


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CENTROID_SECTIONS_OUTDIR", str(tmp_path))
    assert cli.main(["planar", "--demo", "triangle"]) == 0
    assert (tmp_path / "planar.json").is_file()


def test_unknown_flag_exits_2(capsys):
    # flags the CLI had before their settings became package constants are
    # unknown now, like any other
    for argv in (["construct", "--bogus"],
                 ["construct", "--cap-margin", "0.5"],
                 ["construct", "--quad-order", "2"],
                 ["construct", "--max-degree", "0"],
                 ["planar", "--demo", "blob", "--resolution", "0"],
                 ["planar", "--demo", "blob", "--theta-tol", "nan"]):
        assert cli.main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


# every option string of every subcommand; a flag is added or removed
# together with this table
SUBCOMMAND_OPTIONS = {
    "construct": {"--n", "--a", "--outdir", "--eps", "--alpha-grid",
                  "--seed"},
    "verify": set(),
    "intersection-test": {"--n", "--a", "--outdir"},
    "planar": {"--input", "--demo", "--outdir"},
}


def test_subcommand_options_are_pinned():
    ap = cli._build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt for a in p._actions for opt in a.option_strings
                  if not isinstance(a, argparse._HelpAction)}
           for name, p in sub.choices.items()}
    assert got == SUBCOMMAND_OPTIONS


def test_no_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_console_script_help(subprocess_env):
    res = subprocess.run([sys.executable, "-m", "centroid_sections.cli",
                          "--help"], env=subprocess_env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    for word in ("construct", "verify", "intersection-test", "planar"):
        assert word in res.stdout
