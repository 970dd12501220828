"""pachsel: selection of rainbow-simplex point subsets with verifiable
certificates, plus solid-angle and corner-region volume audits.

The package namespace loads on first use (PEP 562): ``import pachsel`` imports
no submodule, and ``pachsel.X`` imports X's home module and reads X there on
every access, so it always returns that module's current binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name's home module
_HOMES = {
    "arrangements": ("HyperplaneArrangement", "build_arrangement", "corners_cover_simplex",
                     "separation_dichotomy"),
    "cones": ("BoundTable", "Simplex", "SimplicialCone", "acute_cone_admissible_deviation",
              "bound_table", "msa_mc", "msa_regular_comparison_search", "msa_upper_bound",
              "normal_fan_cover_check", "polar_cone", "regular_simplex", "restricted_volume_mc",
              "rho_d_asymptotic", "round_cone_polar_volume_bound", "solid_angle_mc",
              "unit_ball_volume"),
    "constructions": ("GridBallConfig", "WeightedPointMeasure", "corner_volume_audit",
                      "discretize_measure", "gaussian_set", "generate_grid_ball",
                      "uniform_ball_set", "upper_bound_witness"),
    "geometry": ("LabeledPointSet", "OrientedHyperplane", "in_general_position", "orientation",
                 "point_in_simplex", "satisfies_condition_G", "strict_separation"),
    "selection": ("GenericPachConfiguration", "PachCertificate", "PipelineParams",
                  "RainbowHypergraph", "RegularityParams", "deep_rainbow_point", "few_separations",
                  "grow_selection", "ham_sandwich_bisect", "perturb_anchor", "rainbow_hypergraph",
                  "run_pipeline", "separating_arrangement", "shrink_to_generic",
                  "verify_certificate", "weak_regularity"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
# submodules that resolve as attributes before anything imports them
_SUBMODULES = {*_HOMES, "enumeration", "errors", "lp", "rational"}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME_OF:
        return getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
