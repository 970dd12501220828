import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pachsel
from pachsel import io as pio
from pachsel import selection
from pachsel.cli import main
from pachsel.constructions import uniform_ball_set


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def test_gen_select_verify_roundtrip(workdir):
    pts = workdir / "pts.json"
    cert = workdir / "cert.json"
    assert run(["gen", "--dim", 2, "--shape", "uniform-ball", "--n", 8, "--seed", 2, "--out", pts]) == 0
    assert run(["select", "--in", pts, "--out", cert, "--seed", 5]) == 0
    assert run(["verify", "--in", pts, "--cert", cert, "--exhaustive"]) == 0
    assert run(["verify", "--in", pts, "--cert", cert, "--arrangement"]) == 0
    # round-trip: everything we wrote is re-parseable by the same build
    ps = pio.pointset_from_json_dict(pio.load_json(pts))
    assert ps.sizes() == (8, 8, 8)
    from pachsel.selection import PachCertificate

    parsed = PachCertificate.from_json_dict(pio.load_json(cert))
    assert parsed.verified == "exhaustive"
    assert parsed.input_sha256 == pio.pointset_sha256(ps)


def test_gen_grid_ball_writes_sandwich_summary(workdir, capsys):
    pts = workdir / "g.json"
    assert run(["gen", "--dim", 1, "--shape", "grid-ball", "--eps", "1/5", "--seed", 0, "--out", pts]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["n_per_color"] == [10, 10]
    assert summary["count_sandwich"]["holds"]


def test_gen_measure_file(workdir):
    measure = workdir / "m.json"
    pio.dump_json(
        {
            "dim": 1,
            "colors": [
                [{"point": ["0"], "weight": "1/2"}, {"point": ["1"], "weight": "1/2"}],
                [{"point": ["1/2"], "weight": "1"}],
            ],
        },
        measure,
    )
    pts = workdir / "m_pts.json"
    assert (
        run(
            [
                "gen", "--dim", 1, "--shape", "measure-file", "--measure-file", measure,
                "--spread", "1/64", "--seed", 1, "--out", pts,
            ]
        )
        == 0
    )
    ps = pio.pointset_from_json_dict(pio.load_json(pts))
    assert ps.sizes() == (2, 2)


@pytest.mark.parametrize("shape", ["grid-ball", "uniform-ball", "gaussian", "measure-file"])
def test_gen_refuses_dimension_zero(workdir, capsys, shape):
    """Zero-dimensional points are a precondition violation (exit 3) for every
    shape; uniform-ball and gaussian used to end in a ValueError traceback."""
    measure, pts = workdir / "m.json", workdir / "pts.json"
    pio.dump_json({"dim": 0, "colors": [[{"point": [], "weight": "1"}]]}, measure)
    args = ["gen", "--dim", 0, "--shape", shape, "--eps", "1/2", "--n", 3,
            "--measure-file", measure, "--out", pts]
    assert run(args) == 3
    assert "dimension must be positive" in capsys.readouterr().err
    assert not pts.exists()


def test_select_unequal_sizes_run_the_pipeline(workdir, capsys):
    """Sizes (5, 6, 7) select directly, with no replicated instance."""
    colors = uniform_ball_set(2, 7, seed=1).colors
    ps = pachsel.LabeledPointSet.create(2, [c[:n] for c, n in zip(colors, (5, 6, 7))])
    pts, cert = workdir / "uneq.json", workdir / "uneq_cert.json"
    pio.dump_json(pio.pointset_to_json_dict(ps), pts)
    start = time.perf_counter()
    assert run(["select", "--in", pts, "--out", cert, "--seed", 3]) == 0
    assert time.perf_counter() - start < 1.0
    data = pio.load_json(cert)
    assert not any(s["stage"] == "deduplicate" for s in data["stages"])
    assert data["verified"] == "exhaustive"
    assert [Fraction(f) for f in data["fractions"]] == [
        Fraction(len(y), n) for y, n in zip(data["Y"], (5, 6, 7))
    ]
    assert run(["verify", "--in", pts, "--cert", cert, "--exhaustive"]) == 0
    assert run(["verify", "--in", pts, "--cert", cert, "--arrangement"]) == 0
    # without the exhaustive pass the certificate says what checked it
    assert run(["select", "--in", pts, "--out", cert, "--seed", 3, "--no-verify"]) == 0
    assert pio.load_json(cert)["verified"] == "arrangement"


def test_select_accepts_float_point_sets(workdir):
    """A float file is read losslessly: it and its exact twin give one certificate."""
    pts = workdir / "float.json"
    pio.dump_json(
        {
            "dim": 1,
            "exact": False,
            "colors": [[[0.125], [1.5], [3.75]], [[0.5], [2.25], [5.0]]],
        },
        pts,
    )
    twin = workdir / "twin.json"
    colors = [[["1/8"], ["3/2"], ["15/4"]], [["1/2"], ["9/4"], ["5"]]]
    pio.dump_json({"dim": 1, "exact": True, "colors": colors}, twin)
    cert, twin_cert = workdir / "float_cert.json", workdir / "twin_cert.json"
    assert run(["select", "--in", pts, "--out", cert, "--seed", 2]) == 0
    assert run(["select", "--in", twin, "--out", twin_cert, "--seed", 2]) == 0
    assert cert.read_bytes() == twin_cert.read_bytes()
    assert run(["verify", "--in", pts, "--cert", cert, "--exhaustive"]) == 0


def test_float_point_file_reads_integers_exactly():
    """JSON integers of an "exact": false file are not rounded through a double."""
    big = 2**53 + 1
    ps = pio.pointset_from_json_dict(
        {"dim": 1, "exact": False, "colors": [[[big], [0.5]], [[-big], [1]]]}
    )
    assert ps.colors == (((Fraction(big),), (Fraction(1, 2),)), ((Fraction(-big),), (Fraction(1),)))


def test_select_float_file_with_integer_past_2_53_matches_exact_twin(workdir):
    big = 2**53 + 1
    pts = workdir / "float.json"
    pio.dump_json(
        {"dim": 1, "exact": False, "colors": [[[0.125], [1.5], [big]], [[0.5], [2.25], [5]]]}, pts
    )
    twin = workdir / "twin.json"
    colors = [[["1/8"], ["3/2"], [str(big)]], [["1/2"], ["9/4"], ["5"]]]
    pio.dump_json({"dim": 1, "exact": True, "colors": colors}, twin)
    cert, twin_cert = workdir / "float_cert.json", workdir / "twin_cert.json"
    assert run(["select", "--in", pts, "--out", cert, "--seed", 2]) == 0
    assert run(["select", "--in", twin, "--out", twin_cert, "--seed", 2]) == 0
    assert pio.load_json(cert)["input_sha256"] == pio.load_json(twin_cert)["input_sha256"]
    assert cert.read_bytes() == twin_cert.read_bytes()


def test_verify_detects_mutation(workdir):
    pts = workdir / "p.json"
    cert = workdir / "c.json"
    assert run(["gen", "--dim", 1, "--shape", "uniform-ball", "--n", 6, "--seed", 7, "--out", pts]) == 0
    assert run(["select", "--in", pts, "--out", cert, "--seed", 1]) == 0
    data = pio.load_json(cert)
    data["p"] = ["100"]
    bad = workdir / "bad.json"
    pio.dump_json(data, bad)
    assert run(["verify", "--in", pts, "--cert", bad]) == 5


@pytest.fixture(scope="module")
def planar_certificate(tmp_path_factory):
    """A d=2, n=10 point set and the certificate ``select`` writes for it."""
    root = tmp_path_factory.mktemp("planar")
    pts, cert = root / "pts.json", root / "cert.json"
    assert run(["gen", "--dim", 2, "--shape", "uniform-ball", "--n", 10, "--seed", 4, "--out", pts]) == 0
    assert run(["select", "--in", pts, "--out", cert, "--seed", 2]) == 0
    return pts, pio.load_json(cert)


def _write_mutated(workdir, data, mutate):
    data = json.loads(json.dumps(data))
    if mutate is not None:
        mutate(data)
    path = workdir / "mutated.json"
    pio.dump_json(data, path)
    return path


def _false_fractions(data):
    data["fractions"] = ["1/1"] * len(data["Y"])


def _vacuous_false_fractions(data):
    # an empty Y_0 makes containment vacuous, but the fractions still claim 1/1
    data["Y"][0] = []
    data["p"] = ["100", "100"]
    data["fractions"] = ["1/1"] * len(data["Y"])


def _repeated_index(data):
    data["Y"][0] = data["Y"][0] * 2


def _missing_index_set(data):
    data["Y"] = data["Y"][:-1]


def _short_point(data):
    data["p"] = data["p"][:-1]


def _integer_input_hash(data):
    data["input_sha256"] = 5


def _other_input_hash(data):
    # the hash of another point set of the same shape
    data["input_sha256"] = pio.pointset_sha256(uniform_ball_set(2, 10, seed=5))


@pytest.mark.parametrize("mode", ["--exhaustive", "--arrangement"])
@pytest.mark.parametrize(
    "mutate, detail",
    [
        (_integer_input_hash, "input_sha256 5 is not the point set's"),
        (_other_input_hash, "is not the point set's"),
        (_false_fractions, "fractions"),
        (_vacuous_false_fractions, "fractions"),
        (_repeated_index, "repeats an index"),
        (_missing_index_set, "2 index sets, expected 3"),
        (_short_point, "point has dimension 1, expected 2"),
    ],
)
def test_verify_rejects_false_claims(workdir, capsys, planar_certificate, mode, mutate, detail):
    pts, data = planar_certificate
    assert run(["verify", "--in", pts, "--cert", _write_mutated(workdir, data, None), mode]) == 0
    capsys.readouterr()
    bad = _write_mutated(workdir, data, mutate)
    assert run(["verify", "--in", pts, "--cert", bad, mode]) == 5
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not verdict["ok"] and detail in verdict["detail"]


def _last_index(mutate):
    def replace_last_index(cert):
        cert["Y"][0][-1] = mutate(cert["Y"][0][-1])

    return replace_last_index


def _string_point(cert):
    cert["p"] = "12"  # two characters, not the point (1, 2)


def _string_fractions(cert):
    cert["fractions"] = "111"


def _string_normal(cert):
    cert["arrangement"]["hyperplanes"][0]["normal"] = "12"


def _float_seed(cert):
    cert["seed"] += 0.5


def _verified(value):
    def replace_verified(cert):
        cert["verified"] = value

    return replace_verified


def _string_stages(cert):
    cert["stages"] = "abc"


def _long_normal(cert):
    cert["arrangement"]["hyperplanes"][0]["normal"].append("1")


def _short_normal(cert):
    cert["arrangement"]["hyperplanes"][0]["normal"].pop()


def _arrangement_dim(value):
    def replace_dim(cert):
        cert["arrangement"]["dim"] = value

    return replace_dim


@pytest.mark.parametrize("mode", ["--exhaustive", "--arrangement"])
@pytest.mark.parametrize(
    "mutate",
    [
        _last_index(lambda i: i + 0.9),
        _last_index(float),
        _last_index(str),
        _last_index(lambda i: True),
        _string_point,
        _string_fractions,
        _string_normal,
        _float_seed,
        _verified(5),
        _verified("bogus"),
        _string_stages,
        _long_normal,
        _short_normal,
        _arrangement_dim(7),
        _arrangement_dim("x"),
    ],
    ids=[
        "fractional", "float", "string", "bool", "string-point", "string-fractions",
        "string-normal", "float-seed", "int-verified", "bogus-verified", "string-stages",
        "long-normal", "short-normal", "dim-7", "string-dim",
    ],
)
def test_verify_rejects_non_integer_indices(workdir, capsys, planar_certificate, mode, mutate):
    pts, data = planar_certificate
    bad = _write_mutated(workdir, data, mutate)
    assert run(["verify", "--in", pts, "--cert", bad, mode]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["--exhaustive", "--arrangement"])
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda arr: arr.update(oriented=False), '"oriented" is false'),
        (lambda arr: arr.pop("oriented"), "malformed arrangement JSON: 'oriented'"),
    ],
    ids=["false", "missing"],
)
def test_verify_refuses_an_unoriented_arrangement(workdir, capsys, planar_certificate, mode, mutate, message):
    pts, data = planar_certificate
    bad = _write_mutated(workdir, data, lambda cert: mutate(cert["arrangement"]))
    assert run(["verify", "--in", pts, "--cert", bad, mode]) == 2
    assert message in capsys.readouterr().err


_POINTS_2D = b'[["1/2", "0"], ["0", "1/3"]], [["-1/2", "0"], ["0", "-1/3"]], [["1/5", "1/7"], '
# The same shape in JSON numbers: with [1, 0.5] last it loads and selects.
_FLOAT_POINTS_2D = b'[[0.5, 0], [0, 0.25]], [[-0.5, 0], [0, -0.25]], [[0.2, 0.125], '


@pytest.mark.parametrize(
    "command, content",
    [
        ("select", b'{"dim": 1, "exact": true, "colors": [[["0"], ["\xff"]], [["1"], ["2"]]]}'),
        ("deep", b'{"dim": 1, "exact": true, "colors": [[["0"], ["\xff"]], [["1"], ["2"]]]}'),
        ("select", b'{"dim": 2, "exact": true, "colors": [' + _POINTS_2D + b'[Infinity, "0"]]]}'),
        ("deep", b'{"dim": 2, "exact": true, "colors": [' + _POINTS_2D + b'[1e999, "0"]]]}'),
        ("select", b'{"dim": 2, "exact": false, "colors": [' + _FLOAT_POINTS_2D + b'[NaN, 0.5]]]}'),
        ("select", b'{"dim": 2, "exact": false, "colors": [' + _FLOAT_POINTS_2D + b'[-Infinity, 0.5]]]}'),
        ("deep", b'{"dim": 2, "exact": false, "colors": [' + _FLOAT_POINTS_2D + b'["inf", 0.5]]]}'),
        ("select", b'{"dim": 2, "exact": false, "colors": [' + _FLOAT_POINTS_2D + b'[true, 0.5]]]}'),
        ("deep", b'{"dim": 2, "exact": false, "colors": [' + _FLOAT_POINTS_2D + b'["1e-3", 0.5]]]}'),
        ("angle", b'{"vertices": [[0, 0], [1, 0], [0, NaN]]}'),
        ("angle", b'{"vertices": [[0, 0], [1, 0], ["nan", 1]]}'),
        ("angle", b'{"vertices": [[0, 0], [1, 0], [true, 1]]}'),
        ("angle", b'{"vertices": [[0, 0], [1, 0, 0], [0, 1]]}'),
        ("angle", b'{"vertices": [[0, 0], [1, 0], "01"]}'),
        ("deep", b'{"dim": 1.9, "exact": true, "colors": [[["0"], ["3"]], [["1"], ["2"]]]}'),
        ("select", b'{"dim": true, "exact": true, "colors": [[["0"], ["3"]], [["1"], ["2"]]]}'),
        ("deep", b'{"dim": 1, "exact": "false", "colors": [[["0"], ["3"]], [["1"], ["2"]]]}'),
        ("deep", b'{"dim": 2, "exact": true, "colors": [' + _POINTS_2D + b'"12"]]}'),
        ("measure", b'{"dim": 1.5, "colors": [[{"point": ["0"], "weight": "1"}], '
         b'[{"point": ["1"], "weight": "1"}]]}'),
        ("measure", b'{"dim": 1, "colors": [[{"point": "0", "weight": "1"}], '
         b'[{"point": ["1"], "weight": "1"}]]}'),
        ("select", b'{"dim": 1, "exact": true, "colors": [[["0"], ["1/0"]], [["1"], ["2"]]]}'),
        ("measure", b'{"dim": 1, "colors": [[{"point": ["0"], "weight": "1/0"}], '
         b'[{"point": ["1"], "weight": "1"}]]}'),
        ("select", b'{"dim": 1, "exact": true, "colors": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"),
        ("select", b'{"dim": 2, "exact": true, "colors": [[], [], []]}'),
        ("select", b'{"dim": 1, "exact": true, "colors": [[["0"], ["2"]], []]}'),
        ("deep", b'{"dim": 1, "exact": true, "colors": [[["0"], ["2"]], []]}'),
    ],
    ids=[
        "non-utf8-select", "non-utf8-deep", "exact-infinity", "exact-1e999", "float-nan",
        "float-minus-infinity", "float-inf-string", "float-bool", "float-numeric-string",
        "simplex-nan", "simplex-nan-string", "simplex-bool",
        "simplex-ragged", "simplex-string-vertex", "float-dim", "bool-dim", "string-exact",
        "string-point", "measure-float-dim", "measure-string-point", "exact-zero-denominator",
        "measure-zero-denominator", "deeply-nested", "all-colors-empty", "empty-color-select",
        "empty-color-deep",
    ],
)
def test_bad_input_files_exit_2(workdir, capsys, command, content):
    path = workdir / "bad.json"
    path.write_bytes(content)
    args = {
        "select": ["select", "--in", path, "--out", workdir / "cert.json"],
        "deep": ["deep", "--in", path],
        "angle": ["angle", "--simplex", path, "--samples", 1000],
        "measure": ["gen", "--dim", 1, "--shape", "measure-file", "--measure-file", path,
                    "--out", workdir / "pts.json"],
    }[command]
    assert run(args) == 2
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def test_main_builds_one_parser_and_answers_as_fresh_ones(capsys):
    """In-process ``main`` calls share one parser: a parse error, then
    ``bounds``, then ``--help`` give the exit codes and output that a fresh
    parser gives each of them."""
    from pachsel import cli

    calls = [["select", "--in"], ["bounds", "--dims", "1..3"], ["--help"]]

    def answer(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli.build_parser.cache_clear()
    shared = [answer(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(answer(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "usage: pachsel select" in shared[0][2] and "usage: pachsel" in shared[2][1]


def test_internal_invariant_failure_exits_1(workdir, capsys, monkeypatch):
    from pachsel import cli
    from pachsel.errors import InternalInvariantError

    def broken(*args, **kwargs):
        raise InternalInvariantError("halving round kept fewer than half")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    pts = workdir / "pts.json"
    pio.dump_json({"dim": 1, "exact": True, "colors": [[["0"], ["2"]], [["1"], ["3"]]]}, pts)
    assert run(["select", "--in", pts, "--out", workdir / "cert.json"]) == 1
    assert "error: halving round" in capsys.readouterr().err
    assert "1  internal invariant failed (a bug)" in cli.build_parser().epilog


def _unbounded_simplex(run_simplex):
    """Give the tableau a new column with the most negative cost and no
    positive entry, so the ratio test finds no leaving row."""

    def wrapped(tableau, basis):
        costs = tableau[-1][:-1]
        for row in tableau[:-1]:
            row.insert(-1, 0)
        tableau[-1].insert(-1, min(costs) - 1)
        return run_simplex(tableau, basis)

    return wrapped


def _flipped_separation(separate):
    """Return the separating hyperplane with the wrong orientation."""

    def wrapped(point, points):
        normal, offset, margin = separate(point, points)
        return tuple(-c for c in normal), -offset, margin

    return wrapped


@pytest.mark.parametrize(
    "attr, breaker, message",
    [
        ("_run_simplex", _unbounded_simplex, "simplex reported unbounded"),
        (
            "max_margin_separation",
            _flipped_separation,
            "separation LP returned an invalid hyperplane",
        ),
    ],
)
def test_lp_invariant_failures_exit_1(workdir, capsys, monkeypatch, attr, breaker, message):
    from pachsel import lp

    pts = workdir / "pts.json"
    # the separating arrangement of this instance solves two separation LPs
    assert run(["gen", "--dim", 1, "--shape", "uniform-ball", "--n", 4, "--out", pts]) == 0
    monkeypatch.setattr(lp, attr, breaker(getattr(lp, attr)))
    assert run(["select", "--in", pts, "--out", workdir / "cert.json"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "--dims", "2", "--instances", "-1", "--out-dir", "{dir}/b"],
        ["deep", "--in", "{pts}", "--random-candidates", "-5"],
        ["select", "--in", "{pts}", "--out", "{dir}/c.json", "--random-candidates", "-5"],
    ],
    ids=["bench-instances", "deep-random-candidates", "select-random-candidates"],
)
def test_negative_counts_exit_3(workdir, capsys, args):
    pts = workdir / "pts.json"
    pio.dump_json({"dim": 1, "exact": True, "colors": [[["0"], ["2"]], [["1"], ["3"]]]}, pts)
    assert run([a.format(dir=workdir, pts=pts) for a in args]) == 3
    assert "must be >= 0" in capsys.readouterr().err
    assert not (workdir / "b").exists()


@pytest.mark.parametrize("command", ["select", "deep"])
@pytest.mark.parametrize(
    "colors, witness",
    [
        # (0,0), (1,1), (3,3) lie on one line, one point of each color
        ([[["0", "0"], ["7", "3"]], [["1", "1"], ["2", "9"]], [["3", "3"], ["8", "1"]]], "(0, 2, 4)"),
        # (0,0) appears in colors 0 and 1
        ([[["0", "0"], ["7", "3"]], [["0", "0"], ["2", "9"]], [["5", "1"], ["8", "6"]]], "(0, 1, 2)"),
    ],
)
def test_degenerate_input_names_its_witness(workdir, capsys, command, colors, witness):
    pts = workdir / "degenerate.json"
    pio.dump_json({"dim": 2, "exact": True, "colors": colors}, pts)
    extra = ["--out", workdir / "cert.json"] if command == "select" else []
    assert run([command, "--in", pts, "--seed", 1, *extra]) == 3
    err = capsys.readouterr().err
    assert "not in general position" in err and witness in err


def test_exit_codes(workdir):
    garbage = workdir / "garbage.json"
    garbage.write_text("{oops")
    assert run(["verify", "--in", garbage, "--cert", garbage]) == 2
    assert run(["bounds", "--dims", "zzz"]) == 2
    assert run(["nonsense-command"]) == 2
    # budget: a deep run over an instance too large for exhaustive enumeration
    big = workdir / "big.json"
    n, d = 300, 2
    colors = [[[i * 1.0 + ci * 0.1, (i * i) % 97 * 1.0] for i in range(n)] for ci in range(3)]
    pio.dump_json({"dim": d, "exact": False, "colors": colors}, big)
    assert run(["deep", "--in", big, "--seed", 0]) == 4
    # precondition: measure dimension mismatch, then a measure point of the wrong dimension
    m = workdir / "m.json"
    for measure in (
        {"dim": 2, "colors": [[], [], []]},
        {"dim": 1, "colors": [[{"point": ["0", "5"], "weight": "1"}], [{"point": ["1"], "weight": "1"}]]},
    ):
        pio.dump_json(measure, m)
        assert (
            run(
                ["gen", "--dim", 1, "--shape", "measure-file", "--measure-file", m, "--out", workdir / "x.json"]
            )
            == 3
        )
    # precondition: a witness budget below one trial
    pts = workdir / "pts.json"
    pio.dump_json({"dim": 1, "exact": True, "colors": [[["0"], ["2"]], [["1"], ["3"]]]}, pts)
    for budget in (0, -5):
        assert run(["select", "--in", pts, "--out", workdir / "c.json", "--witness-budget", budget]) == 3
    # precondition: no points to generate
    assert run(["gen", "--dim", 2, "--shape", "uniform-ball", "--n", 0, "--out", workdir / "g.json"]) == 3
    # precondition: a grid ball of dimension below 1
    assert run(["gen", "--dim", -1, "--shape", "grid-ball", "--eps", "1/2", "--out", workdir / "g.json"]) == 3
    # precondition: a 0-simplex, one vertex with no coordinates
    point_simplex = workdir / "s.json"
    pio.dump_json({"vertices": [[]]}, point_simplex)
    assert run(["angle", "--simplex", point_simplex]) == 3
    # precondition: eps above 1/2^d, which few-separations cannot keep
    ball = workdir / "ball.json"
    assert run(["gen", "--dim", 2, "--shape", "uniform-ball", "--n", 12, "--seed", 3, "--out", ball]) == 0
    for eps, code in (("49/100", 3), ("1/3", 3), ("1/4", 0)):
        assert run(["select", "--in", ball, "--out", workdir / "c.json", "--seed", 2, "--eps", eps]) == code


def test_bounds_csv(workdir, capsys):
    out = workdir / "bounds.csv"
    assert run(["bounds", "--dims", "1..6", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "d", "u", "g", "lower_bound_exponent", "rho_d_asymptotic", "csup_exact",
    ]
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "4" and first[5] == "1/2"
    d3 = lines[3].split(",")
    assert d3[0] == "3" and d3[3] == "18"
    assert abs(float(d3[1]) - 0.44127) < 1e-4


def test_module_entry_point_runs_command():
    src = Path(pachsel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pachsel.cli", "bounds", "--dims", "1..2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "d,u,g,lower_bound_exponent,rho_d_asymptotic,csup_exact"


def test_cli_import_leaves_scipy_unloaded():
    src = Path(pachsel.__file__).resolve().parents[1]
    for code, out in [
        ("import sys, pachsel.cli; print('scipy' in sys.modules)", "False"),
        # scipy blocked: the cap fraction behind the round-cone bound needs none;
        # at d=3 the cap is (1 - gamma)/2, so gamma = 1 - 3/(4 pi) and the bound pi gamma^2
        (
            "import sys; sys.modules['scipy'] = None; from math import pi; from pachsel.cones "
            "import round_cone_polar_volume_bound as b; print(abs(b(3, 0.5) - pi * (1 - 3 / (4 * pi)) ** 2) < 1e-8)",
            "True",
        ),
    ]:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == out


def test_angle_command(workdir, capsys):
    simplex = workdir / "s.json"
    pio.dump_json({"vertices": [[0, 0], [1, 0], [0, 1]]}, simplex)
    out = workdir / "angle.json"
    assert run(["angle", "--simplex", simplex, "--vertex", 0, "--samples", 50_000, "--seed", 4, "--out", out]) == 0
    data = pio.load_json(out)
    assert abs(data["mean"] - 0.25) < 0.01
    assert set(data) == {"mean", "std_error", "samples", "seed", "vertex"}
    for vertex in (7, -1):
        assert run(["angle", "--simplex", simplex, "--vertex", vertex, "--samples", 1000]) == 3


def test_angle_refuses_a_negative_seed(workdir, capsys):
    simplex = workdir / "s.json"
    pio.dump_json({"vertices": [[0, 0], [1, 0], [0, 1]]}, simplex)
    assert run(["angle", "--simplex", simplex, "--samples", 1000, "--seed", -1]) == 3
    assert "seed must be >= 0" in capsys.readouterr().err


def test_select_takes_a_negative_seed(workdir, monkeypatch):
    """The witness generator's seed is a non-negative map of the seed; the
    search is forced to sample, so the generator draws."""
    monkeypatch.setattr(selection, "_EXHAUSTIVE_WITNESS_CAP", 0)
    pts, cert = workdir / "pts.json", workdir / "cert.json"
    assert run(["gen", "--dim", 2, "--shape", "uniform-ball", "--n", 10, "--seed", 3, "--out", pts]) == 0
    assert run(["select", "--in", pts, "--out", cert, "--seed", -5]) == 0
    assert pio.load_json(cert)["seed"] == -5
    assert run(["verify", "--in", pts, "--cert", cert, "--exhaustive"]) == 0


def test_bench_takes_a_negative_seed(workdir):
    out_dir = workdir / "bench"
    assert run(["bench", "--dims", "2", "--n", 6, "--instances", 1, "--seed", -5000, "--out-dir", out_dir]) == 0
    assert len(os.listdir(out_dir)) == 2  # one record and the aggregate


def test_deep_command(workdir, capsys):
    pts = workdir / "p.json"
    assert run(["gen", "--dim", 1, "--shape", "uniform-ball", "--n", 6, "--seed", 8, "--out", pts]) == 0
    assert run(["deep", "--in", pts, "--seed", 2, "--random-candidates", 20]) == 0
    data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert data["total"] == 36
    assert 0 <= data["depth"] <= 36


def test_bench_records_and_aggregate(workdir):
    out_dir = workdir / "bench"
    assert run(["bench", "--dims", "1", "--n", 6, "--instances", 2, "--seed", 3, "--out-dir", out_dir]) == 0
    files = sorted(os.listdir(out_dir))
    records = [f for f in files if f != "aggregate.csv"]
    assert len(records) == 2
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert agg[0].split(",")[0] == "dim"
    assert len(agg) == 3
    rec = pio.load_json(out_dir / records[0])
    assert rec["outputs"]["certificate"]["verified"] == "exhaustive"
    assert "timestamp" in rec


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_byte_identical_determinism(workdir):
    # one command per module: gen, select, deep, angle, bounds
    a, b = workdir / "a", workdir / "b"
    a.mkdir(), b.mkdir()
    for target in (a, b):
        assert run(["gen", "--dim", 2, "--shape", "grid-ball", "--eps", "1/2", "--seed", 11, "--out", target / "pts.json"]) == 0
        assert run(["select", "--in", target / "pts.json", "--out", target / "cert.json", "--seed", 11]) == 0
        assert run(["deep", "--in", target / "pts.json", "--seed", 11, "--out", target / "deep.json"]) == 0
        simplex = target / "s.json"
        pio.dump_json({"vertices": [[0, 0], [1, 0], [0, 1]]}, simplex)
        assert run(["angle", "--simplex", simplex, "--samples", 20_000, "--seed", 11, "--out", target / "angle.json"]) == 0
        assert run(["bounds", "--dims", "1..4", "--out", target / "bounds.csv"]) == 0
    for name in ("pts.json", "cert.json", "deep.json", "angle.json", "bounds.csv"):
        assert _file_bytes(a / name) == _file_bytes(b / name), name


def test_bench_record_hash_excludes_timestamp(workdir):
    d1, d2 = workdir / "r1", workdir / "r2"
    assert run(["bench", "--dims", "1", "--n", 5, "--instances", 1, "--seed", 9, "--out-dir", d1]) == 0
    assert run(["bench", "--dims", "1", "--n", 5, "--instances", 1, "--seed", 9, "--out-dir", d2]) == 0
    r1 = [f for f in os.listdir(d1) if f != "aggregate.csv"]
    r2 = [f for f in os.listdir(d2) if f != "aggregate.csv"]
    assert r1 == r2  # content-addressed names identical despite timestamps
