"""What each entry point loads.  Importing the package loads no submodule,
numpy or scipy; `planar` runs on numpy alone; `construct`, `verify` and
`intersection-test` load no scipy and no numpy.ma, and the only scipy
import in the source is the one of the theta,rho CSV reader.  Fresh
interpreters, so nothing that another test imported hides a
regression."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import centroid_sections

# the public names of the package root: its submodules and the names
# `import *` gives
ROOT_NAMES = {
    "CERTIFICATE_SCHEMA", "ConstructionContext", "ConstructionError",
    "ConvexityReport", "GegenbauerSpectrum", "PlanarBody", "RevolutionBody",
    "RunConfig", "SphereProfile", "auto_select_a", "bisected_chords",
    "bochner_multiplier", "body_to_dict", "config", "counterexample",
    "curvature", "eval_spectrum", "expand", "ft_homogeneous", "get_context",
    "intersection_body_test", "make_base_body", "make_cap_bump",
    "make_oblate_gap_profile", "negativity_threshold", "planar",
    "planar_centroid", "polygon_body", "radial_body", "recenter",
    "revolution_bodies", "run_construction", "sphere_area", "spherical_core",
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


def test_construct_verify_intersection_test_load_no_scipy(fresh, tmp_path):
    # nor numpy.ma, which an integer np.unique (np.union1d) imports
    out = str(tmp_path)
    got = fresh("import json, os, sys\n"
                "from centroid_sections import cli\n"
                f"out = {out!r}\n"
                "rc = [cli.main(['construct', '--n', '5', '--outdir', out]),\n"
                "      cli.main(['verify', "
                "os.path.join(out, 'certificate.json')]),\n"
                "      cli.main(['intersection-test', '--outdir', out])]\n"
                f"print(json.dumps([rc, {_loaded('scipy')}, "
                "'numpy.ma' in sys.modules]))")
    assert got == [[0, 0, 0], [], False]


class _ScipyImports(ast.NodeVisitor):
    """(file, enclosing function or <module>, module) of each scipy
    import in one source file."""

    def __init__(self, name):
        self.name, self.where, self.found = name, [], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Import(self, node):
        for alias in node.names:
            self._add(alias.name)

    def visit_ImportFrom(self, node):
        if not node.level:
            self._add(node.module)

    def _add(self, module):
        if module.split(".")[0] == "scipy":
            self.found.append((self.name, ".".join(self.where) or "<module>",
                               module))


def test_only_the_radial_csv_reader_imports_scipy():
    found = []
    for path in sorted(Path(centroid_sections.__file__).parent.glob("*.py")):
        visitor = _ScipyImports(path.name)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found == [("cli.py", "_planar_from_csv", "scipy.interpolate")]


def test_root_names_resolve_on_access():
    from centroid_sections import config, spherical_core
    assert centroid_sections.RunConfig is config.RunConfig
    assert centroid_sections.expand is spherical_core.expand
    with pytest.raises(AttributeError, match="no_such_name"):
        centroid_sections.no_such_name


@pytest.mark.parametrize("name", ["gauss_jacobi", "eval_spectrum_deriv",
                                  "parseval_residual", "Quadrature"])
def test_unused_spectral_names_are_not_public(name):
    # nothing in the package calls these; they are no root name, and the
    # three functions stay spherical_core attributes only for the
    # benchmark's tracer, which looks them up there
    from centroid_sections import spherical_core
    assert name not in centroid_sections.__all__
    assert name not in spherical_core.__all__
    assert hasattr(spherical_core, name)
    with pytest.raises(AttributeError, match=name):
        getattr(centroid_sections, name)


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
