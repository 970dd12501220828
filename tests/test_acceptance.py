"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them live).  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from pachsel import io as pio
from pachsel.cli import main as cli_main
from pachsel.cones import (
    Simplex,
    msa_mc,
    msa_upper_bound,
    normal_fan_cover_check,
    solid_angle_mc,
)
from pachsel.constructions import corner_volume_audit, uniform_ball_set
from pachsel.geometry import in_general_position, point_in_simplex, strict_separation
from pachsel.geometry import LabeledPointSet
from pachsel.arrangements import corners_cover_simplex
from pachsel.selection import (
    PipelineParams,
    deep_rainbow_point,
    few_separations,
    run_pipeline,
    shrink_to_generic,
)

from conftest import (
    general_position_points,
    naive_closed_containment_fraction,
    random_cover_instance,
    random_points,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------


def _cli(args):
    return cli_main([str(a) for a in args])


def test_criterion_01_end_to_end_soundness(tmp_path):
    worst = {1: 0.0, 2: 0.0}
    runs = 0
    for d, gen_args in (
        (1, ["--shape", "grid-ball", "--eps", "1/5"]),
        (1, ["--shape", "uniform-ball", "--n", 10]),
        (2, ["--shape", "grid-ball", "--eps", "1/2"]),
        (2, ["--shape", "uniform-ball", "--n", 15]),
    ):
        for seed in range(10):
            pts = tmp_path / f"pts_{d}_{seed}_{gen_args[1]}.json"
            cert = tmp_path / f"cert_{d}_{seed}_{gen_args[1]}.json"
            verdict = tmp_path / f"verdict_{d}_{seed}_{gen_args[1]}.json"
            assert _cli(["gen", "--dim", d, "--seed", seed, "--out", pts] + gen_args) == 0
            t0 = time.perf_counter()
            assert _cli(["select", "--in", pts, "--out", cert, "--seed", seed]) == 0
            rc = _cli(["verify", "--in", pts, "--cert", cert, "--exhaustive", "--out", verdict])
            elapsed = time.perf_counter() - t0
            worst[d] = max(worst[d], elapsed)
            assert rc == 0
            data = pio.load_json(verdict)
            assert data["ok"] and data["fraction"] == "1/1"
            runs += 1
    ok = runs == 40 and worst[2] < 60.0
    report(
        1,
        "end-to-end soundness (select + exhaustive verify, fraction 1)",
        ok,
        f"40 runs, worst d=2 wall {worst[2]:.1f}s < 60s",
    )


def _symmetric_plane_instance(n, seed):
    rng = random.Random(seed)
    den = 1 << 16
    assert n % 2 == 0
    while True:
        colors = []
        for _ci in range(3):
            half = [
                (Fraction(rng.randint(-den, den), den), Fraction(rng.randint(-den, den), den))
                for _ in range(n // 2)
            ]
            colors.append(half + [(-x, -y) for x, y in half])
        union = [p for c in colors for p in c]
        if in_general_position(union):
            return LabeledPointSet.create(2, colors)


def test_criterion_02_deep_point_constant():
    worst_ratio = 1.0
    worst_time = 0.0
    for seed in range(10):
        ps = _symmetric_plane_instance(20, 100 + seed)
        t0 = time.perf_counter()
        res = deep_rainbow_point(ps, seed=seed)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        worst_ratio = min(worst_ratio, float(res.ratio))
        assert res.total == 20**3
    ok = worst_ratio >= 0.15 and worst_time < 30.0
    report(
        2,
        "deep-point ratio on symmetric instances (>= 0.15)",
        ok,
        f"min ratio {worst_ratio:.3f}, worst time {worst_time:.1f}s < 30s",
    )


def _separation_instance(d, size, seed):
    rng = random.Random(seed)
    den = 1 << 14
    while True:
        colors = [
            [
                tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(d))
                for _ in range(size)
            ]
            for _ in range(d + 1)
        ]
        p = tuple(Fraction(rng.randint(-5 * den, 5 * den), den) for _ in range(d))
        union = [q for c in colors for q in c]
        if in_general_position(union + [p]):
            return LabeledPointSet.create(d, colors), p


def _clustered_separation_instance(d, size, seed, radius=3, spread=1):
    """Colors clustered in d+1 directions around a central anchor; this is
    the regime where the kept subsets end up surrounding the anchor."""
    rng = random.Random(seed)
    den = 1 << 14
    while True:
        colors = []
        for ci in range(d + 1):
            ang = 2 * math.pi * ci / (d + 1) + 0.3
            center = (round(radius * math.cos(ang) * den), round(radius * math.sin(ang) * den))
            colors.append(
                [
                    tuple(
                        Fraction(center[k] + rng.randint(-spread * den, spread * den), den)
                        for k in range(d)
                    )
                    for _ in range(size)
                ]
            )
        p = tuple(Fraction(rng.randint(-den // 2, den // 2), den) for _ in range(d))
        union = [q for c in colors for q in c]
        if in_general_position(union + [p]):
            return LabeledPointSet.create(d, colors), p


def test_criterion_03_few_separations_law():
    size = 40
    branches = {"all-contain": 0, "none-contain": 0}
    min_kept = size
    for seed in range(100):
        if seed < 50:
            ps, p = _clustered_separation_instance(2, size, 1000 + seed)
        else:
            ps, p = _separation_instance(2, size, 1000 + seed)
        idx = tuple(tuple(range(size)) for _ in range(3))
        res = few_separations(ps, idx, p, seed=seed)
        min_kept = min(min_kept, min(len(y) for y in res.index_sets))
        assert all(len(y) >= size // 4 for y in res.index_sets)
        fraction = naive_closed_containment_fraction(ps, res.index_sets, p)
        expected = Fraction(1) if res.branch == "all-contain" else Fraction(0)
        assert fraction == expected
        branches[res.branch] += 1
    ok = min_kept >= 10 and min(branches.values()) > 0
    report(
        3,
        "few-separations size law and branch agreement",
        ok,
        f"min |Y_i| = {min_kept} >= 10; branches {branches}; oracle agreement 100/100",
    )


def test_criterion_04_solid_angle_calibration():
    eq = Simplex.create([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    est_eq = solid_angle_mc(eq, 0, 1_000_000, seed=7)
    err_eq = abs(est_eq.mean - 1 / 6)
    tet = Simplex.create([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    oracle = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
    est_tet = solid_angle_mc(tet, 0, 1_000_000, seed=8)
    err_tet = abs(est_tet.mean - oracle)
    ok = err_eq < 0.005 and err_tet < 0.005
    report(
        4,
        "solid-angle calibration at 1e6 samples",
        ok,
        f"equilateral err {err_eq:.5f} < 0.005, tetrahedron err {err_tet:.5f} < 0.005",
    )


def test_criterion_05_msa_bound_audit():
    rng = np.random.default_rng(2024)
    worst_margin = float("inf")
    trials = 0
    for d in (3, 4):
        bound = msa_upper_bound(d)
        done = 0
        while done < 200:
            simplex = Simplex.create(rng.standard_normal((d + 1, d)))
            if simplex.is_degenerate():
                continue
            est = msa_mc(simplex, 100_000, seed=10_000 + trials)
            margin = bound + 3 * est.std_error - est.value
            worst_margin = min(worst_margin, margin)
            assert est.value <= bound + 3 * est.std_error
            done += 1
            trials += 1
    report(
        5,
        "minimum-solid-angle bound audit (200 simplices, d in {3,4})",
        worst_margin >= 0,
        f"400 trials, worst margin {worst_margin:.4f}",
    )


def test_criterion_06_normal_fan_audit():
    rng = np.random.default_rng(77)
    worst = float("inf")
    for d in (2, 3):
        done = 0
        while done < 100:
            simplex = Simplex.create(rng.standard_normal((d + 1, d)))
            if simplex.is_degenerate():
                continue
            rep = normal_fan_cover_check(simplex, 100_000, seed=500 + done)
            assert rep.coverage == 1.0
            sigma = math.sqrt(max(rep.max_fraction * (1 - rep.max_fraction), 1e-12) / rep.samples)
            slack = rep.max_fraction - (1 / (d + 1) - 3 * sigma)
            worst = min(worst, slack)
            assert slack >= 0
            done += 1
    report(
        6,
        "normal-fan covering audit (100 simplices, d in {2,3})",
        worst >= 0,
        f"all directions classified; worst slack above 1/(d+1)-3sigma: {worst:.4f}",
    )


def test_criterion_07_corner_volume_audit():
    passes = 0
    for seed in range(50):
        ps = uniform_ball_set(2, 9, seed=3000 + seed)
        cert = run_pipeline(ps, PipelineParams(seed=seed))
        cfg = shrink_to_generic(ps, cert.index_sets, cert.point, seed=seed + 1)
        rep = corner_volume_audit(cfg, 1_000_000, seed=seed + 2)
        assert rep.passed, f"seed {seed}: min_vol {rep.min_volume} vs bound {rep.bound}"
        passes += 1
    report(
        7,
        "corner-volume audit on pipeline configurations (d=2, 1e6 samples)",
        passes == 50,
        f"{passes}/50 within 3 sigma",
    )


def test_criterion_08_corner_covering_suite():
    counts = {1: 4000, 2: 3000, 3: 3000}
    total = 0
    for d, m in counts.items():
        for seed in range(m):
            arr, ys, p = random_cover_instance(d, 10_000 * d + seed)
            assert corners_cover_simplex(arr, ys, p)
            total += 1
    report(
        8,
        "corner covering invariant (10^4 exact instances, d in {1,2,3})",
        total == 10_000,
        f"{total} instances all covered",
    )


def _caratheodory_membership(point, points, d):
    for combo in itertools.combinations(points, d + 1):
        if point_in_simplex(point, list(combo), "closed"):
            return True
    return False


def test_criterion_09_separation_duality():
    rng = random.Random(99)
    total = 0
    for d in (1, 2, 3):
        for _ in range(1000):
            pts = general_position_points(rng, d + 3, d, den=128, box=1)
            p = random_points(rng, 1, d, den=128, box=1)[0]
            separated = strict_separation(p, pts) is not None
            member = _caratheodory_membership(p, pts, d)
            assert separated == (not member)
            total += 1
    report(
        9,
        "separation/membership Farkas duality (10^3 per dimension)",
        total == 3000,
        "LP separation agrees with the LP-free hull oracle on 3000/3000",
    )


def test_criterion_10_determinism(tmp_path):
    def run_all(target):
        target.mkdir()
        assert _cli(["gen", "--dim", 1, "--shape", "grid-ball", "--eps", "1/5", "--seed", 21, "--out", target / "pts.json"]) == 0
        assert _cli(["select", "--in", target / "pts.json", "--out", target / "cert.json", "--seed", 21]) == 0
        assert _cli(["deep", "--in", target / "pts.json", "--seed", 21, "--out", target / "deep.json"]) == 0
        pio.dump_json({"vertices": [[0, 0], [1, 0], [0, 1]]}, target / "s.json")
        assert _cli(["angle", "--simplex", target / "s.json", "--samples", 100_000, "--seed", 21, "--out", target / "angle.json"]) == 0
        assert _cli(["bounds", "--dims", "1..6", "--out", target / "bounds.csv"]) == 0
        assert _cli(["bench", "--dims", "1", "--n", 5, "--instances", 1, "--seed", 21, "--out-dir", target / "bench"]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run_all(a)
    run_all(b)
    identical = []
    for name in ("pts.json", "cert.json", "deep.json", "angle.json", "bounds.csv"):
        identical.append((a / name).read_bytes() == (b / name).read_bytes())
    import os

    rec_a = sorted(f for f in os.listdir(a / "bench") if f != "aggregate.csv")
    rec_b = sorted(f for f in os.listdir(b / "bench") if f != "aggregate.csv")
    identical.append(rec_a == rec_b)  # content hash excludes the timestamp
    report(
        10,
        "byte-identical outputs for fixed seeds (one command per module)",
        all(identical),
        "gen/select/deep/angle/bounds byte-identical; bench records hash-identical",
    )
