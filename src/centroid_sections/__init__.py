"""Numerical construction of a convex body in R^n (n >= 5) whose centroid
is the centroid of exactly one central hyperplane section, together with
the spectral toolkit (Gegenbauer expansions, homogeneous-extension
transforms) behind it, and the planar three-chords counterpart.

Importing the package loads none of its submodules, numpy or scipy: each
name below is imported from its submodule on first access (PEP 562), so a
process pays only for the parts it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "config": ("ConstructionError", "RunConfig"),
    "spherical_core": (
        "GegenbauerSpectrum", "SphereProfile", "bochner_multiplier",
        "eval_spectrum", "expand", "ft_homogeneous", "sphere_area"),
    "revolution_bodies": (
        "ConvexityReport", "RevolutionBody", "body_to_dict", "curvature",
        "intersection_body_test", "make_base_body"),
    "counterexample": (
        "CERTIFICATE_SCHEMA", "ConstructionContext", "auto_select_a",
        "get_context", "make_cap_bump", "make_oblate_gap_profile",
        "negativity_threshold", "run_construction"),
    "planar": (
        "PlanarBody", "bisected_chords", "planar_centroid", "polygon_body",
        "radial_body"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

# the exported names and the submodules that hold them
__all__ = sorted([*_ORIGIN, *_EXPORTS])

__version__ = "1.0.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
