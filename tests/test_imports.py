"""What each entry point loads.  Importing the package loads no submodule,
numpy or scipy; `planar` runs on numpy alone; `intersection-test` does
not load scipy.interpolate.  Fresh interpreters, so nothing that another
test imported hides a regression."""

import json
import subprocess
import sys

import pytest

import centroid_sections

# the public names of the package root: its submodules and the names
# `import *` gives
ROOT_NAMES = {
    "CERTIFICATE_SCHEMA", "ConstructionContext", "ConstructionError",
    "ConvexityReport", "GegenbauerSpectrum", "PlanarBody", "Quadrature",
    "RevolutionBody", "RunConfig", "SphereProfile", "auto_select_a",
    "bisected_chords", "bochner_multiplier", "body_to_dict", "config",
    "counterexample", "curvature", "default_tolerances", "eval_spectrum",
    "eval_spectrum_deriv", "expand", "ft_homogeneous", "gauss_jacobi",
    "get_context", "intersection_body_test", "make_base_body",
    "make_cap_bump", "make_oblate_gap_profile", "negativity_threshold",
    "parseval_residual", "planar", "planar_centroid", "polygon_body",
    "radial_body", "recenter", "revolution_bodies", "run_construction",
    "sphere_area", "spherical_core",
}


@pytest.fixture
def fresh(subprocess_env):
    """Run code in a new interpreter; the JSON on its last stdout line."""
    def run(code: str):
        res = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1])
    return run


def _loaded(*prefixes):
    """Expression for the loaded modules whose names start with prefixes."""
    return f"[m for m in sys.modules if m.startswith({prefixes!r})]"


def test_package_import_loads_nothing(fresh):
    expr = _loaded("numpy", "scipy", "centroid_sections.")
    loaded = fresh("import json, sys\n"
                   "import centroid_sections\n"
                   f"print(json.dumps({expr}))")
    assert loaded == []


def test_planar_demo_loads_no_scipy(fresh, tmp_path):
    got = fresh("import json, sys\n"
                "from centroid_sections import cli\n"
                "rc = cli.main(['planar', '--demo', 'ellipse', '--outdir', "
                f"{str(tmp_path)!r}])\n"
                f"print(json.dumps([rc, {_loaded('scipy')}]))")
    assert got == [0, []]


def test_intersection_test_loads_no_scipy_interpolate(fresh, tmp_path):
    got = fresh("import json, sys\n"
                "from centroid_sections import cli\n"
                "rc = cli.main(['intersection-test', '--outdir', "
                f"{str(tmp_path)!r}])\n"
                f"print(json.dumps([rc, {_loaded('scipy.interpolate')}]))")
    assert got == [0, []]


def test_root_names_resolve_on_access():
    from centroid_sections import config, spherical_core
    assert centroid_sections.RunConfig is config.RunConfig
    assert centroid_sections.gauss_jacobi is spherical_core.gauss_jacobi
    with pytest.raises(AttributeError, match="no_such_name"):
        centroid_sections.no_such_name


@pytest.mark.parametrize("module", sorted(centroid_sections._EXPORTS))
def test_export_map_matches_submodule(module):
    # a name the map lists must be public in its submodule, and every
    # public name of the submodule must resolve to the same object from
    # the root, so a deleted function cannot linger in the map
    sub = getattr(centroid_sections, module)
    assert set(centroid_sections._EXPORTS[module]) <= set(sub.__all__)
    for name in sub.__all__:
        assert getattr(centroid_sections, name) is getattr(sub, name)


def test_dir_and_star_import_list_the_eager_names(fresh):
    got = fresh("import json\n"
                "import centroid_sections\n"
                "listed = [n for n in dir(centroid_sections) "
                "if not n.startswith('_')]\n"
                "ns = {}\n"
                "exec('from centroid_sections import *', ns)\n"
                "print(json.dumps([listed, sorted(set(ns) - "
                "{'__builtins__'})]))")
    listed, star = got
    assert set(listed) == ROOT_NAMES
    assert set(star) == ROOT_NAMES
