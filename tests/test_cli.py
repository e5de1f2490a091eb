import argparse
import csv
import dataclasses
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from centroid_sections import RunConfig, cli, planar

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


def test_profiles_rows_rho_perturbed_is_the_body_profile(construct_result):
    # the rho_perturbed column is the perturbed body's own profile, bit for
    # bit, at the rows' u
    rows = np.array(list(cli._profiles_rows(construct_result)))
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
        == {"created_utc", "runtime_seconds", "eps_bracket"}
    assert a == b
    for name in ("profiles.csv", "sections.csv", "body.json"):
        assert (cli_outdir / name).read_bytes() == (out2 / name).read_bytes()


def _construct_fails(tmp_path, capsys, argv) -> str:
    """The error of a construct that exits 3 with no certificate, as
    stderr and diagnostic.json both give it."""
    rc = cli.main(["construct", *argv, "--outdir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    diag = json.loads((tmp_path / "diagnostic.json").read_text())
    assert diag["stage"] == "construction"
    assert f"construction failed: {diag['error']}" in err
    assert not (tmp_path / "certificate.json").exists()
    return diag["error"]


def test_construct_eps_too_large_exits_3(tmp_path, capsys):
    # at n = 8 the centroid at lam = 0 is positive already at the bottom of
    # the context's eps search, so there is no bracket, and the error names
    # that end and the centroid that failed it
    error = _construct_fails(tmp_path, capsys, ["--n", "8"])
    assert re.fullmatch(r"no eps bracket: eps_pos 2\^-20 = \S+, the bottom "
                        r"end, fails: centroid does not bracket zero: "
                        r"c\(0\) = \S+ >= 0", error), error


def test_construct_eps_ok_below_the_ladder_exits_3(tmp_path, capsys):
    # at n = 7 and a = 0.3 the bracket lies below the ladder's last rung,
    # eps_start 2^-20
    error = _construct_fails(tmp_path, capsys, ["--n", "7", "--a", "0.3"])
    assert error == ("eps too large: eps_ok = 4.585e-11 lies below the last "
                     "rung, 9.537e-10 after 20 halvings of 1.000e-03")


def test_construct_names_the_rung_that_fails_its_probe(tmp_path, capsys,
                                                       monkeypatch):
    # a ladder from 1e-300 lies below the bracket: its first rung is probed,
    # and the centroid at lam = 0, lost in rounding there, lies within its
    # rounding floor, which fails it; eps is not too large
    monkeypatch.setattr(RunConfig, "eps_start", 1e-300)
    error = _construct_fails(tmp_path, capsys, [])
    assert re.fullmatch(r"eps 1\.000e-300, rung 0 of the ladder from "
                        r"1\.000e-300, fails: centroid does not bracket "
                        r"zero: c\(0\) = \S+ lies within its rounding "
                        r"floor \S+", error), error


def test_construct_names_the_rounding_floor_at_n12(tmp_path, capsys):
    # at n = 12 the bracket search's bottom end, eps_pos 2^-20 = 1.977e-26,
    # has c(0) = -1.313e-18, 0.05 of the rounding scale of its own sums:
    # its sign is noise, and the error names the floor there, not an eps
    # bracket that lies below the ladder
    error = _construct_fails(tmp_path, capsys, ["--n", "12"])
    assert re.fullmatch(r"no eps bracket: eps_pos 2\^-20 = 1\.977e-26, the "
                        r"bottom end, fails: centroid does not bracket zero: "
                        r"c\(0\) = -1\.313e-18 lies within its rounding "
                        r"floor \S+", error), error


@pytest.mark.parametrize("command,n", [
    pytest.param("construct", 28, id="construct-28"),
    pytest.param("intersection-test", 27, id="intersection-test-27"),
    pytest.param("intersection-test", 100, id="intersection-test-100")])
def test_large_n_outcomes_are_named(command, n, tmp_path, subprocess_env):
    # no rule limits a large n: construct at n = 28 ends where n = 9 to 27
    # do, with no eps bracket, its bottom end's c(0), about 1e-18, within
    # the rounding floor of its own sums, and the intersection test
    # at n = 27 and 100 either gives a verdict or names an unresolved
    # transform.  A named construction failure (exit 3), not a traceback
    res = subprocess.run([sys.executable, "-m", "centroid_sections.cli",
                          command, "--n", str(n), "--outdir", str(tmp_path)],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=120)
    assert "Traceback" not in res.stderr
    if command == "construct":
        assert res.returncode == 3
        assert "construction failed: no eps bracket" in res.stderr
        diag = json.loads((tmp_path / "diagnostic.json").read_text())
        assert diag["stage"] == "construction"
        assert re.fullmatch(r"no eps bracket: eps_pos 2\^-20 = \S+, the "
                            r"bottom end, fails: centroid does not bracket "
                            r"zero: c\(0\) = \S+ lies within its rounding "
                            r"floor \S+", diag["error"])
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


def test_construct_writes_an_equator_failure_into_the_certificate(
        tmp_path, capsys):
    # at n = 5 and a = 0.3 the blended transform misses the equator by
    # 1.8e-8 of its max, above equator_rel, and every other check passes:
    # construct writes the INVALID certificate naming that check and exits
    # 3, and verify fails the same check and exits 4
    rc = cli.main(["construct", "--n", "5", "--a", "0.3", "--outdir",
                   str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  failed: equator_within_tolerance"]
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert not cert["valid"]
    assert cert["failures"] == ["equator_within_tolerance"]
    assert cli.main(["verify", str(tmp_path / "certificate.json")]) == 4
    fails = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("PASS ")]
    assert fails[0].startswith("FAIL equator_within_tolerance: ")
    assert fails[1:] == ["verification FAILED"]


def test_verify_holds_the_root_relative_to_lambda0(tmp_path, capsys):
    # at n = 7, lambda0 = 1.8e-7 and bisection resolves it to 2^-24: a
    # root nudged by 1 % still has |c| below root_abs, and it lies 1.8e-9
    # from the recomputed one, which an absolute 1e-8 let pass; the file's
    # lambda0 is held to construct's within 1e-6 of it
    assert cli.main(["construct", "--n", "7", "--outdir", str(tmp_path)]) == 0
    path = tmp_path / "certificate.json"
    cert = json.loads(path.read_text())
    cert["lambda0"] *= 1.01
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert "PASS root_within_tolerance" in out
    assert ("FAIL record_matches_recomputation: differ: lambda0"
            in out.splitlines())


def test_construct_low_dimension_exits_2(tmp_path, capsys):
    rc = cli.main(["construct", "--n", "4", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--alpha-grid", "0"], "unrecognized arguments: --alpha-grid 0"),
    (["--alpha-grid", "2"], "unrecognized arguments: --alpha-grid 2"),
    (["--a", "0"], "a must lie in (0, 1)"),
    (["--a", "0.9"], "profile not positive: a too large for this n"),
], ids=["alpha_grid_0", "alpha_grid_2", "a_0", "a_0.9"])
def test_construct_rejects_invalid_setting(argv, message, tmp_path, capsys):
    # each is invalid input, named on stderr, before any construction work;
    # the sweep's direction count is the package's (RunConfig.alpha_grid),
    # so no grid is a setting
    rc = cli.main(["construct", *argv, "--outdir", str(tmp_path)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "diagnostic.json").exists()


def test_construct_seed_is_accepted_and_ignored():
    # the construction is deterministic; --seed stays for older scripts
    args = cli._build_parser().parse_args(["construct", "--seed", "-1"])
    assert cli._config_from_args(vars(args)) == RunConfig()


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
    assert out.count("PASS ") == 10 and "FAIL" not in out


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
    # a recorded request of n = 8 has a context but no eps bracket: the
    # checks run at the file's (lambda0, eps0), and running construct
    # again on the request fails, which refutes the certificate (exit 4) on
    # the record's named line; it is no construction failure
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["config"].update(n=8))
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 4
    assert out[-2].startswith("FAIL record_matches_recomputation: no eps "
                              "bracket: eps_pos 2^-20")
    assert out[-1] == "verification FAILED"
    assert len(out) == 2 + len(cli._CHECK_READS) + 1


def test_verify_names_a_context_that_cannot_be_built(cli_outdir, tmp_path,
                                                      capsys):
    # at n = 3000 the transform constant overflows float64, so the context
    # for the recorded request cannot be built and no check can run: one
    # named line, exit 4
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["config"].update(n=3000))
    assert cli.main(["verify", str(path)]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "FAIL recheck_completes: transform constant c_n overflows float64 "
        "at n = 3000", "verification FAILED"]


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
    # tolerances record or in an older config block, changes none of them;
    # the record's line names the tolerance that differs from construct's
    assert cli.main(["verify", str(cli_outdir / "certificate.json")]) == 0
    shipped = capsys.readouterr().out.splitlines()
    assert len(shipped) == 11 and shipped[-1] == "verification PASSED"
    path = _tampered(cli_outdir, tmp_path, mutate)
    fresh = subprocess.run(
        [sys.executable, "-m", "centroid_sections.cli", "verify", str(path)],
        env=subprocess_env, capture_output=True, text=True, timeout=120)
    rc = cli.main(["verify", str(path)])
    warm = capsys.readouterr().out
    assert rc == fresh.returncode and warm == fresh.stdout
    lines = warm.splitlines()
    assert lines[:9] == shipped[:9]
    if mutate is _stored_identity_rel:
        assert rc == 4
        assert lines[9:] == ["FAIL record_matches_recomputation: differ: "
                             "tolerances.identity_rel", "verification FAILED"]
    else:
        assert rc == 0 and lines == shipped


def test_verify_quadrature_route_refutes_a_scaled_seed_series(
        cli_outdir, monkeypatch, capsys, cold):
    # the bump series' cosine coefficients that the sweep reads lhs from,
    # scaled by 1 + 1e-6: the section quadrature over the quotient's
    # Gegenbauer series disagrees.  The copy's sweep store starts empty, or
    # it would give back the unscaled series' sums
    from centroid_sections import counterexample as cx
    cert = json.loads((cli_outdir / "certificate.json").read_text())
    p = cert["params"]
    ctx = cold(cx.get_context(RunConfig(n=p["n"], a=p["a"])))
    ctx.bump_cosine = ctx.bump_cosine * (1.0 + 1e-6)
    monkeypatch.setitem(cx._CTX_CACHE, (ctx.n, ctx.a), ctx)
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL identity_by_quadrature" in out


def test_verify_sweeps_a_grid_mirrored_bit_for_bit(cli_outdir, monkeypatch,
                                                   capsys):
    # the checks sweep the doubled grid, 1441 directions and 721 distinct
    # |u|, where linspace(-1, 1, 1441) has 1116; construct, run again, then
    # sweeps the record's own 721
    from centroid_sections import counterexample as cx
    grids = []
    real = cx.ConstructionContext.identity_sweep

    def recorded(self, lam, eps, u_grid=None):
        grids.append(u_grid)
        return real(self, lam, eps, u_grid)

    monkeypatch.setattr(cx.ConstructionContext, "identity_sweep", recorded)
    assert cli.main(["verify", str(cli_outdir / "certificate.json")]) == 0
    grid, record = grids
    assert grid.size == 1441 and np.array_equal(grid, -grid[::-1])
    assert np.unique(np.abs(grid)).size == 721
    assert np.array_equal(record, cx._mirrored_grid(721))


@pytest.mark.parametrize("forged,named", [
    ("not a record", "pole_series"),
    ({"curvature_bump": -1.0}, "pole_series.curvature_bump"),
], ids=["nonsense", "curvature_bump"])
def test_verify_refutes_a_forged_pole_series(cli_outdir, tmp_path, capsys,
                                              forged, named):
    # the pole block is a record, not a check: forged, the checks' lines
    # stay as they were, and the record's line names it
    cli.main(["verify", str(cli_outdir / "certificate.json")])
    want = capsys.readouterr().out.splitlines()

    def mutate(cert):
        if isinstance(forged, dict):
            cert["pole_series"].update(forged)
        else:
            cert["pole_series"] = forged
    path = _tampered(cli_outdir, tmp_path, mutate)
    assert cli.main(["verify", str(path)]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[:9] == want[:9]
    assert out[9] == f"FAIL record_matches_recomputation: differ: {named}"


def test_verify_fails_when_no_base_body_exists(cli_outdir, tmp_path,
                                               capsys):
    # a = 0.9 makes the n = 5 base profile negative: a recorded request
    # that construct would reject is invalid input, like construct's
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["config"].update(a=0.9))
    rc = cli.main(["verify", str(path)])
    assert rc == 2
    assert ("error: invalid certificate configuration: profile not "
            "positive" in capsys.readouterr().err)


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


def _leaves(entry, path=()):
    if isinstance(entry, dict):
        for key, value in entry.items():
            yield from _leaves(value, (*path, key))
    else:
        yield path, entry


def _forged(value):
    """value moved just past verify's 1e-6: a float by 1e-3 of itself (by
    1e-3 where it is 0), an int by 1, a bool flipped, a string extended;
    None for a value of no such kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1.0 + 1e-3) if value else 1e-3
    if isinstance(value, str):
        return value + "x"
    return None


@pytest.mark.parametrize("key", ["eps0", "lambda0"])
def test_verify_refutes_a_huge_point_quietly(cli_outdir, tmp_path, capsys,
                                             key):
    # at eps0 or lambda0 = 1e300 the log-derivatives of the perturbed
    # meridian overflow when squared: kappa_min is NaN without a warning,
    # and perturbed_convex fails
    path = _tampered(cli_outdir, tmp_path, lambda c: c.update({key: 1e300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["verify", str(path)])
    got = capsys.readouterr()
    assert rc == 4
    assert ("FAIL perturbed_convex: kappa_min_perturbed = nan"
            in got.out.splitlines())
    assert got.err == ""


def test_verify_refutes_every_forged_entry(cli_outdir, tmp_path, capsys):
    # every entry construct writes, meta aside, forged alone, exits 4; one
    # outside config, the request that verify runs again, is named (a
    # verify that held the file only to its check flags and two values
    # passed most of these).  The schema is read before anything else (an
    # unknown one is invalid input); config.a = None (automatic) and the
    # empty failures list have no forgery
    cert = json.loads((cli_outdir / "certificate.json").read_text())
    unforged, wrong = [], []
    for path, value in _leaves(cert):
        forged = _forged(value)
        if path[0] in ("meta", "schema") or forged is None:
            unforged.append(".".join(path))
            continue

        def mutate(c, path=path, forged=forged):
            *parents, key = path
            for part in parents:
                c = c[part]
            c[key] = forged
        rc = cli.main(["verify", str(_tampered(cli_outdir, tmp_path,
                                               mutate))])
        line = capsys.readouterr().out.splitlines()[-2]
        names = line.split("differ: ")[-1].split(", ")
        if rc != 4 or (path[0] != "config" and ".".join(path) not in names):
            wrong.append((".".join(path), rc, names))
    assert sorted(unforged) == [
        "config.a", "failures", "meta.created_utc", "meta.eps_bracket.eps_bad",
        "meta.eps_bracket.eps_ok", "meta.eps_bracket.probes",
        "meta.eps_bracket.reason", "meta.eps_bracket.seconds",
        "meta.runtime_seconds", "schema"]
    assert wrong == []


@pytest.mark.parametrize("key,value,named", [
    ("n", 7, "params.n"),
    ("a", 0.3, "params.a"),
    ("alpha_grid", 101, "grids.alpha_grid"),
    ("alpha_grid", 3, "grids.alpha_grid"),
], ids=["n_7", "a_0.3", "alpha_grid_101", "alpha_grid_3"])
def test_verify_refutes_a_forged_request(cli_outdir, tmp_path, capsys, key,
                                         value, named):
    # the config block is the request that verify runs construct on again:
    # forged, the record's line names what construct then writes otherwise
    # (at a = 0.3 an INVALID certificate, its transform missing the
    # equator).  A sweep grid was once part of the request, recorded in
    # both blocks; such a certificate's grid is no request but a record
    # that construct contradicts
    def mutate(cert):
        cert["config"][key] = value
        if key == "alpha_grid":
            cert["grids"][key] = value
    path = _tampered(cli_outdir, tmp_path, mutate)
    rc = cli.main(["verify", str(path)])
    line = capsys.readouterr().out.splitlines()[-2]
    assert rc == 4
    assert line.startswith("FAIL record_matches_recomputation: ")
    assert named in line


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
    ctx = cold(cx.get_context(RunConfig(n=p["n"], a=p["a"])))
    r, r_t, r_tt = (f.copy() for f in ctx._rho)
    i = r.size // 2
    assert ctx._x[i] == 0.0 == r_t[i]
    r_tt[i] = r[i] - RunConfig.tolerances["convexity_margin"] / 2 * r[i] ** 2
    ctx._rho = (r, r_t, r_tt)
    monkeypatch.setitem(cx._CTX_CACHE, (ctx.n, ctx.a), ctx)
    rc = cli.main(["verify", str(cli_outdir / "certificate.json")])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL base_convex: kappa_min_base = " in out


def test_verify_lines_are_the_certificate_checks(construct_result,
                                                 cli_outdir, capsys):
    # verify prints one line per check of construct's table, under its
    # name and in its order, then its own two
    checks = construct_result["certificate"]["checks"]
    assert cli.main(["verify", str(cli_outdir / "certificate.json")]) == 0
    names = [line.split(":")[0].split()[1]
             for line in capsys.readouterr().out.splitlines()[:-1]]
    assert names == [*checks, "identity_by_quadrature",
                     "record_matches_recomputation"]
    assert set(cli._CHECK_READS) == set(checks)


# configuration keys, grids, tolerances and records that certificates
# carried while the package still had them, or while they were
# configuration rather than package constants (config.tolerances among
# them, config.eps, the eps ladder's start before it was
# RunConfig.eps_start, and config.alpha_grid, the sweep's direction count
# before it was RunConfig.alpha_grid); nothing reads them now
DROPPED_CONFIG = {"cap_margin": 0.5, "quad_order": 256, "max_degree": 120,
                  "plot_grid": 1001, "planar_resolution": 4096,
                  "planar_theta_tol": 1e-10, "u_switch": 0.05, "gl_order": 96,
                  "bump_max_degree": 3200, "bump_quad_pad": 192,
                  "section_quad_order": 1728, "dense_eval_grid": 80001,
                  "curvature_grid": 4001, "equator_grid": 2001,
                  "eps": 1e-3, "eps_max_halvings": 20, "root_max_iter": 200,
                  "auto_a_candidates": [0.5, 0.4, 0.3, 0.2, 0.1, 0.05],
                  "seed": 24301, "alpha_grid": 721}
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
                                ("n", 4, "requires dimension n >= 5")):
        path = _tampered(cli_outdir, tmp_path,
                         lambda c: c["config"].update({key: value}))
        assert cli.main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err
    # two sweep directions recorded in grids are no input but a record
    # that construct contradicts
    path = _tampered(cli_outdir, tmp_path,
                     lambda c: c["grids"].update(alpha_grid=2))
    assert cli.main(["verify", str(path)]) == 4
    assert ("FAIL record_matches_recomputation: differ: grids.alpha_grid"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("stored", [
    {"curvature_grid": 41, "section_quad_order": 1000},
], ids=["grid_constants"])
def test_verify_ignores_coarse_stored_grids(cli_outdir, tmp_path, capsys,
                                            monkeypatch, stored):
    # grid sizes are package constants: coarse grids in the file's config
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


def test_verify_sweeps_1441_directions_whatever_the_file_records(
        cli_outdir, tmp_path, monkeypatch, capsys):
    # 3 sweep directions recorded in the config block (where a request
    # once put them), in grids, or in both: verify's checks sweep
    # 2 RunConfig.alpha_grid - 1 = 1441 directions and construct, run
    # again, its 721 each time, so only the grids entry is refuted
    from centroid_sections import counterexample as cx
    sizes = []
    real = cx.ConstructionContext.identity_sweep

    def recorded(self, lam, eps, u_grid=None):
        sizes.append(u_grid.size)
        return real(self, lam, eps, u_grid)

    monkeypatch.setattr(cx.ConstructionContext, "identity_sweep", recorded)
    for blocks in (("config",), ("grids",), ("config", "grids")):
        def mutate(cert, blocks=blocks):
            for block in blocks:
                cert[block]["alpha_grid"] = 3
        sizes.clear()
        rc = cli.main(["verify", str(_tampered(cli_outdir, tmp_path,
                                                 mutate))])
        lines = capsys.readouterr().out.splitlines()
        refuted = "grids" in blocks
        assert sizes == [1441, 721]
        assert rc == (4 if refuted else 0)
        assert sum(line.startswith("PASS ") for line in lines) == 10 - refuted
        assert lines[-2] == (
            "FAIL record_matches_recomputation: differ: grids.alpha_grid"
            if refuted else "PASS record_matches_recomputation: every entry "
            "outside meta agrees")


def test_verify_holds_the_margin_over_the_certificate_directions(
        cli_outdir, monkeypatch, capsys):
    # the certificate records the margin over construct's 721 directions;
    # verify's checks sweep those, bit for bit, and one between each pair,
    # so the margin they hold is at most the recorded one, and construct,
    # run again, sweeps the 721 themselves
    from centroid_sections import counterexample as cx
    sweeps = []
    real = cx.ConstructionContext.identity_sweep

    def recorded(self, lam, eps, u_grid=None):
        out = real(self, lam, eps, u_grid)
        sweeps.append((u_grid, out["min_margin"]))
        return out

    monkeypatch.setattr(cx.ConstructionContext, "identity_sweep", recorded)
    path = cli_outdir / "certificate.json"
    assert cli.main(["verify", str(path)]) == 0
    assert "PASS record_matches_recomputation" in capsys.readouterr().out
    (grid, margin), (record, recorded_margin) = sweeps
    assert grid.size == 1441
    assert np.array_equal(grid[::2], cx._mirrored_grid(721))
    assert np.array_equal(record, cx._mirrored_grid(721))
    assert recorded_margin == json.loads(
        path.read_text())["min_section_margin"]
    assert 0.0 < margin <= recorded_margin


def _drop_params(cert):
    del cert["params"]


def _string_lambda0(cert):
    cert["lambda0"] = "x"


def _string_a(cert):
    cert["params"]["a"] = "0.4"


def _fractional_grid(cert):
    cert["grids"]["alpha_grid"] = 721.5


@pytest.mark.parametrize("mutate,named", [
    (_drop_params, "params"), (_string_lambda0, None), (_string_a, "params.a"),
    (_fractional_grid, "grids.alpha_grid")],
    ids=["no_params", "string_lambda0", "string_a", "fractional_grid"])
def test_verify_rejects_malformed_certificate(cli_outdir, tmp_path, capsys,
                                              mutate, named):
    # an input of verify (config, lambda0, eps0) that is missing or not a
    # number is invalid input, named on stderr, not a traceback; any other
    # entry is compared with construct's, and the record's line names it
    path = _tampered(cli_outdir, tmp_path, mutate)
    rc = cli.main(["verify", str(path)])
    got = capsys.readouterr()
    if named is None:
        assert rc == 2
        assert "error: invalid certificate: " in got.err
    else:
        assert rc == 4
        assert (f"FAIL record_matches_recomputation: differ: {named}"
                in got.out.splitlines())


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


def test_planar_repeated_vertex_csv_input(tmp_path, capsys):
    # a vertex repeated in the middle of the list is dropped, as a repeated
    # closing vertex is: the triangle's three directions
    path = tmp_path / "repeated.csv"
    path.write_text("x,y\n0,0\n1,0\n1,0\n0,1\n")
    assert cli.main(["planar", "--input", str(path), "--outdir",
                     str(tmp_path / "repeated")]) == 0
    path.write_text("x,y\n0,0\n1,0\n0,1\n")
    assert cli.main(["planar", "--input", str(path), "--outdir",
                     str(tmp_path / "plain")]) == 0
    assert "3 bisected chords" in capsys.readouterr().out
    got, want = (json.loads((tmp_path / d / "planar.json").read_text())
                 for d in ("repeated", "plain"))
    assert got == want and got["count"] == 3


@pytest.mark.parametrize("h", ["1e-14", "1e-15"])
def test_planar_thin_triangle_csv_input(tmp_path, capsys, h):
    # three directions within 2h rad of each other, across the scan's
    # wrap at 0 = pi, each within 1e-10 of a side's direction
    path = tmp_path / "thin.csv"
    path.write_text(f"x,y\n0,0\n1,0\n0.5,{h}\n")
    assert cli.main(["planar", "--input", str(path), "--outdir",
                     str(tmp_path)]) == 0
    assert "3 bisected chords" in capsys.readouterr().out
    got = json.loads((tmp_path / "planar.json").read_text())["directions"]
    sides = np.sort([0.0, np.arctan2(float(h), 0.5),
                     np.pi - np.arctan2(float(h), 0.5)])
    assert np.max(np.abs(np.sort(got) - sides)) <= 1e-10


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


def test_planar_radial_csv_with_repeated_angle_exits_2(tmp_path, capsys):
    # two rows at one angle leave the spline no strictly increasing knots;
    # the later row is named by its line, blank lines counted, and the
    # earlier by its own
    path = tmp_path / "repeat.csv"
    path.write_text("theta,rho\n4,1\n\n2,1\n0.5,1\n2,1.5\n")
    assert cli.main(["planar", "--input", str(path)]) == 2
    assert (capsys.readouterr().err
            == "error: CSV line 6 repeats the angle 2.0 of line 4\n")


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


def _planar_csv_lines(header) -> list:
    """A triangle's vertices, or the blob's radius at 720 angles."""
    if header == "x,y":
        rows = [(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)]
    else:
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        rows = zip(th, 1.0 + 0.3 * np.cos(th) + 0.1 * np.sin(2.0 * th))
    return [header, *(f"{float(a)!r},{float(b)!r}" for a, b in rows)]


@pytest.mark.parametrize("header", ["x,y", "theta,rho"])
def test_planar_csv_skips_blank_lines(tmp_path, capsys, header):
    # a blank line between rows or at the end of the file is no row: with
    # it, numpy refused the rows as an inhomogeneous shape (exit 2)
    lines = _planar_csv_lines(header)
    path = tmp_path / "body.csv"
    path.write_text("\n".join([*lines[:2], "", *lines[2:]]) + "\n\n")
    assert cli.main(["planar", "--input", str(path)]) == 0
    assert "3 bisected chords" in capsys.readouterr().out


@pytest.mark.parametrize("header", ["x,y", "theta,rho"])
def test_planar_csv_row_with_wrong_field_count_exits_2(tmp_path, capsys,
                                                       header):
    # the row is named by its line in the file, blank lines counted
    lines = _planar_csv_lines(header)
    lines[2] += ",1.0"
    path = tmp_path / "body.csv"
    path.write_text("\n".join(["", *lines]) + "\n")
    assert cli.main(["planar", "--input", str(path)]) == 2
    assert ("error: CSV line 4 has 3 fields, the header 2"
            in capsys.readouterr().err)


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


def test_planar_unresolved_radial_profile_exits_3(tmp_path, capsys):
    # the thin triangle (0,0), (1,0), (0.5, 0.01) as a theta,rho CSV about
    # (0.45, 0.0025), 360 samples: its spline is too sharp near 0 and pi
    # for the 4096-angle centroid rule, whose every-other-angle sum is
    # 1.1e-6 away, and planar refuses it instead of scanning about a
    # wrong centroid
    v = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.01)]) - [0.45, 0.0025]
    th = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    path = tmp_path / "thin.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "rho"])
        w.writerows(zip(th, planar._polygon_radius(v, th)))
    assert cli.main(["planar", "--input", str(path)]) == 3
    assert ("construction failed: radial profile not resolved"
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
                 ["construct", "--eps", "1e-3"],
                 ["construct", "--alpha-grid", "3"],
                 ["construct", "--quad-order", "2"],
                 ["construct", "--max-degree", "0"],
                 ["planar", "--demo", "blob", "--resolution", "0"],
                 ["planar", "--demo", "blob", "--theta-tol", "nan"]):
        assert cli.main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


# every option string of every subcommand; a flag is added or removed
# together with this table
SUBCOMMAND_OPTIONS = {
    "construct": {"--n", "--a", "--outdir", "--seed"},
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
