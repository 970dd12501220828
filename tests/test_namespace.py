"""The package namespace: 51 public names, each loaded from its home module
on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pachsel
from pachsel import cones

HOMES = {
    "arrangements": [
        "HyperplaneArrangement", "build_arrangement", "corners_cover_simplex", "separation_dichotomy",
    ],
    "cones": [
        "BoundTable", "Simplex", "SimplicialCone", "acute_cone_admissible_deviation", "bound_table",
        "msa_mc", "msa_regular_comparison_search", "msa_upper_bound", "normal_fan_cover_check",
        "polar_cone", "regular_simplex", "restricted_volume_mc", "rho_d_asymptotic",
        "round_cone_polar_volume_bound", "solid_angle_mc", "unit_ball_volume",
    ],
    "constructions": [
        "GridBallConfig", "WeightedPointMeasure", "corner_volume_audit", "discretize_measure",
        "gaussian_set", "generate_grid_ball", "uniform_ball_set", "upper_bound_witness",
    ],
    "geometry": [
        "LabeledPointSet", "OrientedHyperplane", "in_general_position", "orientation",
        "point_in_simplex", "satisfies_condition_G", "strict_separation",
    ],
    "selection": [
        "GenericPachConfiguration", "PachCertificate", "PipelineParams", "RainbowHypergraph",
        "RegularityParams", "deep_rainbow_point", "few_separations", "grow_selection",
        "ham_sandwich_bisect", "perturb_anchor", "rainbow_hypergraph", "run_pipeline",
        "separating_arrangement", "shrink_to_generic", "verify_certificate", "weak_regularity",
    ],
}
SUBMODULES = [
    "arrangements", "cones", "constructions", "enumeration", "errors", "geometry", "lp",
    "rational", "selection",
]


def test_all_is_the_pinned_name_list():
    names = sorted(n for names in HOMES.values() for n in names)
    assert len(names) == 51
    assert sorted(pachsel.__all__) == names


@pytest.mark.parametrize("home", sorted(HOMES))
def test_names_are_their_home_modules_objects(home):
    module = importlib.import_module(f"pachsel.{home}")
    for name in HOMES[home]:
        assert getattr(pachsel, name) is getattr(module, name)


def test_submodules_resolve():
    for name in SUBMODULES:
        assert getattr(pachsel, name) is importlib.import_module(f"pachsel.{name}")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pachsel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pachsel.__all__)
    assert all(namespace[n] is getattr(pachsel, n) for n in namespace)


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "_spanned_bisecting_cut", "McEstimate"):
        with pytest.raises(AttributeError, match=name):
            getattr(pachsel, name)


def test_names_read_the_current_binding(monkeypatch):
    """Nothing is cached in the package: a rebinding in the home module, as
    a tracer's wrapper, shows through, and so does its restoration."""
    original, wrapper = cones.msa_mc, object()
    monkeypatch.setattr(cones, "msa_mc", wrapper)
    assert pachsel.msa_mc is wrapper
    monkeypatch.undo()
    assert pachsel.msa_mc is original
    assert "msa_mc" not in vars(pachsel)


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import pachsel", ["pachsel"]),
        ("import pachsel.lp", ["pachsel", "pachsel.errors", "pachsel.lp", "pachsel.rational"]),
    ],
)
def test_import_loads_only_what_it_names(statement, loaded):
    src = Path(pachsel.__file__).resolve().parents[1]
    code = (
        f"import sys; {statement}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('pachsel', 'numpy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(loaded)
