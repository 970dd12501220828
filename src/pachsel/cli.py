"""Command-line front end.

Subcommands: gen, select, verify, deep, angle, bounds, bench.  Structured
outputs are JSON (exact rationals as "p/q" strings); flat tables are CSV.
Identical command + seed produces byte-identical files (timestamps appear
only inside bench experiment records and are excluded from their content
hash).

Exit codes: 0 ok, 1 internal invariant failed (a bug), 2 parse error,
3 precondition violation, 4 budget exhausted, 5 verification failed.
"""

from __future__ import annotations

import argparse
import csv
import io as _stdio
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from . import io as pio
from .cones import McEstimate, Simplex, bound_table, solid_angle_mc
from .constructions import (
    GridBallConfig,
    discretize_measure,
    gaussian_set,
    generate_grid_ball,
    grid_ball_count_bounds,
    uniform_ball_set,
)
from .errors import (
    BudgetExceededError,
    ParseError,
    PachselError,
    PreconditionError,
)
from .geometry import LabeledPointSet
from .rational import format_scalar
from .selection import (
    PachCertificate,
    PipelineParams,
    VerificationReport,
    deep_rainbow_point,
    run_pipeline,
    verify_certificate,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_VERIFICATION = 5

_EPILOG = """exit codes:
  0  success
  1  internal invariant failed (a bug)
  2  parse error (flags or input files)
  3  precondition violation (invalid geometry, inconsistent inputs)
  4  retry/enumeration budget exhausted
  5  verification failed (certificate does not check out)
"""


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def _parse_dims(text: str):
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(t) for t in text.split(",") if t]
        if not dims or any(d < 1 for d in dims):
            raise ValueError(text)
        return dims
    except ValueError as exc:
        raise ParseError(f"bad dimension range {text!r}") from exc


# ---------------------------------------------------------------------------
# gen


def _generate(args) -> LabeledPointSet:
    if args.shape == "grid-ball":
        if args.eps is None:
            raise ParseError("--eps is required for shape grid-ball")
        cfg = GridBallConfig(dim=args.dim, eps=_parse_fraction(args.eps), seed=args.seed)
        return generate_grid_ball(cfg)
    if args.shape == "uniform-ball":
        if args.n is None:
            raise ParseError("--n is required for shape uniform-ball")
        return uniform_ball_set(args.dim, args.n, seed=args.seed)
    if args.shape == "gaussian":
        if args.n is None:
            raise ParseError("--n is required for shape gaussian")
        return gaussian_set(args.dim, args.n, seed=args.seed)
    if args.shape == "measure-file":
        if args.measure_file is None:
            raise ParseError("--measure-file is required for shape measure-file")
        dim, colors = pio.measure_from_json_dict(pio.load_json(args.measure_file))
        if dim != args.dim:
            raise PreconditionError(f"measure dimension {dim} != --dim {args.dim}")
        spread = _parse_fraction(args.spread)
        return discretize_measure(dim, colors, spread, seed=args.seed)
    raise ParseError(f"unknown shape {args.shape!r}")


def cmd_gen(args) -> int:
    ps = _generate(args)
    pio.dump_json(pio.pointset_to_json_dict(ps), args.out)
    n = ps.sizes()[0]
    summary = {"dim": ps.dim, "n_per_color": list(ps.sizes()), "out": args.out}
    if args.shape == "grid-ball":
        lower, upper, ok = grid_ball_count_bounds(ps.dim, _parse_fraction(args.eps), n)
        summary["count_sandwich"] = {"lower": lower, "upper": upper, "holds": ok}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# select / verify / deep


def _load_pointset(path) -> LabeledPointSet:
    return pio.pointset_from_json_dict(pio.load_json(path))


def _replicate_unequal(ps: LabeledPointSet, seed: int, spread: Fraction):
    """Equalize color sizes by uniform-weight discretization (replicate each
    point to the least common size, then perturb into general position).
    Returns (new set, per-color original index of each new point)."""
    weighted = [
        [(p, Fraction(1, len(pts))) for p in pts] for pts in ps.colors
    ]
    new_ps = discretize_measure(ps.dim, weighted, spread, seed=seed)
    origin = []
    for pts in ps.colors:
        s = new_ps.sizes()[0]
        copies = s // len(pts)
        origin.append([i // copies for i in range(s)])
    return new_ps, origin


def _select_unequal(ps, params, input_hash, seed):
    """Replication route for unequal color sizes.

    The pipeline runs on a perturbed replicated instance; the deduplicated
    certificate is then re-verified exhaustively against the original points
    (shrinking the replication spread until that verification passes).
    """
    sizes = ps.sizes()
    spread = Fraction(1, 1 << 20)
    for _attempt in range(3):
        work_ps, origin = _replicate_unequal(ps, seed, spread)
        cert = run_pipeline(work_ps, params, input_sha256=input_hash)
        dedup = tuple(
            tuple(sorted({origin[ci][i] for i in idxs}))
            for ci, idxs in enumerate(cert.index_sets)
        )
        candidate = replace(
            cert,
            index_sets=dedup,
            fractions=tuple(Fraction(len(dedup[ci]), sizes[ci]) for ci in range(len(sizes))),
            verified="exhaustive",
            stages=cert.stages
            + (
                {
                    "stage": "deduplicate",
                    "spread": str(spread),
                    "note": "replicated instance deduplicated to original indices",
                },
            ),
        )
        report = verify_certificate(ps, candidate, mode="exhaustive")
        if report.ok:
            return candidate
        spread /= 1 << 10
    raise BudgetExceededError(
        "replication route failed: deduplicated certificate does not verify "
        "against the original points even at the smallest spread"
    )


def cmd_select(args) -> int:
    ps = _load_pointset(args.infile)
    input_hash = pio.pointset_sha256(ps)
    params = PipelineParams(
        seed=args.seed,
        epsilon=_parse_fraction(args.eps) if args.eps else None,
        beta=_parse_fraction(args.beta) if args.beta else None,
        witness_budget=args.witness_budget,
        random_candidates=args.random_candidates,
        verify="arrangement" if args.no_verify else "exhaustive",
    )
    if len(set(ps.sizes())) == 1:
        cert = run_pipeline(ps, params, input_sha256=input_hash)
    else:
        cert = _select_unequal(ps, params, input_hash, args.seed)
    pio.dump_json(cert.to_json_dict(), args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "fractions": [str(f) for f in cert.fractions],
                "verified": cert.verified,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    ps = _load_pointset(args.infile)
    try:
        cert = PachCertificate.from_json_dict(pio.load_json(args.cert))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc
    mode = "arrangement" if args.arrangement else "exhaustive"
    input_hash = pio.pointset_sha256(ps)
    if cert.input_sha256 != input_hash:
        detail = f"input_sha256 {cert.input_sha256!r} is not the point set's {input_hash}"
        report = VerificationReport(mode, False, Fraction(0), None, detail)
    else:
        report = verify_certificate(ps, cert, mode=mode)
    verdict = report.to_json_dict()
    if args.out:
        pio.dump_json(verdict, args.out)
    print(json.dumps(verdict, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_deep(args) -> int:
    ps = _load_pointset(args.infile)
    result = deep_rainbow_point(ps, args.random_candidates, seed=args.seed)
    out = {
        "p": [format_scalar(c) for c in result.point],
        "depth": result.depth,
        "open_depth": result.open_depth,
        "total": result.total,
        "ratio": float(result.ratio),
        "candidate": result.candidate_label,
    }
    if args.out:
        pio.dump_json(out, args.out)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# angle / bounds


def cmd_angle(args) -> int:
    vertices = pio.simplex_from_json_dict(pio.load_json(args.simplex))
    simplex = Simplex.create(vertices)
    estimate: McEstimate = solid_angle_mc(simplex, args.vertex, args.samples, args.seed)
    out = asdict(estimate)
    out["vertex"] = args.vertex
    if args.out:
        pio.dump_json(out, args.out)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_bounds(args) -> int:
    dims = _parse_dims(args.dims)
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "u", "g", "lower_bound_exponent", "rho_d_asymptotic", "csup_exact"])
    for d in dims:
        row = bound_table(d)
        writer.writerow(
            [
                row.dim,
                repr(row.msa_bound),
                repr(row.corner_fraction_bound),
                row.lower_bound_exponent,
                repr(row.rho_asymptotic),
                "1/2" if d == 1 else "",
            ]
        )
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class ExperimentRecord:
    """Self-sufficient record of one benchmark run (reproducible by seed)."""

    command: str
    config: dict
    seed: int
    input_sha256: str
    outputs: dict
    wall_time_s: float
    timestamp: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def content_hash(self) -> str:
        data = self.to_json_dict()
        del data["timestamp"]
        del data["wall_time_s"]
        return pio.sha256_hex(pio.canonical_json_bytes(data))


def cmd_bench(args) -> int:
    import os

    dims = _parse_dims(args.dims)
    if args.instances < 0:
        raise PreconditionError("--instances must be >= 0")
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for d in dims:
        for inst in range(args.instances):
            seed = args.seed + 1000 * d + inst
            t0 = time.perf_counter()
            ps = uniform_ball_set(d, args.n, seed=seed)
            input_hash = pio.pointset_sha256(ps)
            cert = run_pipeline(ps, PipelineParams(seed=seed), input_sha256=input_hash)
            wall = time.perf_counter() - t0
            min_fraction = min(float(f) for f in cert.fractions)
            record = ExperimentRecord(
                command="bench",
                config={"dim": d, "n": args.n, "shape": "uniform-ball", "instance": inst},
                seed=seed,
                input_sha256=input_hash,
                outputs={
                    "certificate": cert.to_json_dict(),
                    "min_fraction": min_fraction,
                },
                wall_time_s=wall,
                timestamp=time.time(),
            )
            path = os.path.join(args.out_dir, f"{record.content_hash()}.json")
            pio.dump_json(record.to_json_dict(), path)
            rows.append(
                [d, args.n, min_fraction, d * d + 3 * d, f"{wall:.3f}", os.path.basename(path)]
            )
    agg = os.path.join(args.out_dir, "aggregate.csv")
    with open(agg, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["dim", "n", "min_fraction", "lower_bound_exponent", "runtime_s", "record"]
        )
        writer.writerows(rows)
    print(json.dumps({"out_dir": args.out_dir, "runs": len(rows)}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pachsel",
        description="Rainbow-simplex selection certificates and bound audits",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance point set")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--shape",
        choices=["grid-ball", "uniform-ball", "gaussian", "measure-file"],
        default="grid-ball",
    )
    p.add_argument("--eps", help="cube side for grid-ball (rational, e.g. 2/5)")
    p.add_argument("--n", type=int, help="points per color (uniform-ball, gaussian)")
    p.add_argument("--measure-file", help="weighted point measure JSON")
    p.add_argument("--spread", default="1/1024", help="discretization radius (rational)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output pts.json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="run the selection pipeline")
    p.add_argument("--in", dest="infile", required=True, help="pts.json")
    p.add_argument("--out", required=True, help="output cert.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--eps", help="regularity epsilon (rational), at most 1/2^d; default 1/2^d, 1/4 at d=1"
    )
    p.add_argument("--beta", help="density floor (rational); default achieved density")
    p.add_argument("--witness-budget", type=int, default=2000)
    p.add_argument("--random-candidates", type=int, default=200)
    p.add_argument("--no-verify", action="store_true", help="skip exhaustive verification")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("verify", help="verify a certificate against its point set")
    p.add_argument("--in", dest="infile", required=True, help="pts.json")
    p.add_argument("--cert", required=True, help="cert.json")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="full oracle (default)")
    group.add_argument("--arrangement", action="store_true", help="arrangement checks only")
    p.add_argument("--out", help="write verdict JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("deep", help="find a deep rainbow point")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-candidates", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_deep)

    p = sub.add_parser("angle", help="Monte Carlo solid angle at a simplex vertex")
    p.add_argument("--simplex", required=True, help="simplex JSON")
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_angle)

    p = sub.add_parser("bounds", help="emit the bound table as CSV")
    p.add_argument("--dims", required=True, help="range like 1..6 or list like 2,3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", help="batch pipeline runs with experiment records")
    p.add_argument("--dims", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PachselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
