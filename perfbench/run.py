"""pachsel benchmark: one workload per process, closed loop, one instance at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload planar-n25 --seed 1 --seconds 55 --trace 0

Each item generates a point set with ``pachsel gen``.  Each of its rounds
selects a certificate with ``pachsel select``, re-verifies it with ``pachsel
verify --exhaustive`` and ``--arrangement`` and checks it against an
independent reference; the first rounds also run the corner-volume audit and
the Monte Carlo block with ``pachsel angle``.  The CLI is called in-process
through ``pachsel.cli.main``.  Timings are scaled by calibration loops timed
in the same run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 1`` the
metrics are per-layer numbers from :mod:`tracer`.  Any failed check makes the
exit code 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    dim: int
    n: int
    selects: int = 1  # colorings of each generated point set that are selected
    audits: int | None = None  # rounds of an item with audit and Monte Carlo (None: all)
    min_timed_s: float = 0.5  # a shorter step is repeated; see Steps
    gen_calibration: str = "exact"  # the calibration that gen's work is like


# Why each workload exists, and which layer it puts on top: README.md.
WORKLOADS = {
    "planar-n25": Workload(2, 25, selects=6, audits=3, gen_calibration="float"),
    "spatial-n8": Workload(3, 8, min_timed_s=1.5),
}

# Normalised solid angle at a vertex of the regular simplex.
CLOSED_FORM_ANGLE = {
    2: 1.0 / 6.0,
    3: (3.0 * math.acos(1.0 / 3.0) - math.pi) / (4.0 * math.pi),
}
AUDIT_SAMPLES = 1_000_000  # as in acceptance criterion 7
MC_SAMPLES = 1_000_000  # per Monte Carlo call (per vertex for msa_mc)
REFERENCE_TUPLES = 256  # rainbow simplices re-checked per certificate by the reference
SETUP_REPEATS = 7
MAX_REPEATS = 5  # most runs of one timed step
CAL_DETS = 1000  # 4x4 determinants per exact calibration sample
CAL_DRAWS = 50_000  # Gaussian draws in R^4 per float calibration sample
# Typical calibration samples on the reference machine (see typical() and
# README, *Noise and the calibration scale*): timings are reported in seconds
# at that machine's speed.
CAL_REFERENCE_S = {"exact": 0.010, "float": 0.006}
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pachsel.cli; print(time.perf_counter() - t)"
)


def cap_threads() -> None:
    """BLAS/OpenMP threads at the core count; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def load_pachsel():
    """Import pachsel from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pachsel" / "cli.py").is_file():
        raise SystemExit(f"error: no pachsel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pachsel
    import pachsel.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(pachsel.__file__).resolve().parent != (SRC / "pachsel").resolve():
        raise SystemExit(f"error: pachsel imported from {pachsel.__file__}, not {SRC}")


def _bareiss_det(m) -> int:
    """Bareiss determinant of a square integer matrix, in place."""
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def calibrate_exact() -> float:
    """Seconds of a fixed piece of exact integer arithmetic, like gen, select
    and the shrink step: determinants of pseudo-random 4x4 matrices.  It shares
    no code with pachsel, so only the host's speed moves it."""
    t0 = time.perf_counter()
    x = 12345
    for _ in range(CAL_DETS):
        m = []
        for _ in range(4):
            row = []
            for _ in range(4):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                row.append((x >> 8) - (1 << 22))
            m.append(row)
        _bareiss_det(m)
    return time.perf_counter() - t0


def calibrate_float() -> float:
    """Seconds of fixed float64 numpy work, like the Monte Carlo steps: the
    share of Gaussian directions inside a fixed cone in R^4."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.random.default_rng(12345).standard_normal((CAL_DRAWS, 4))
    float(((x @ (np.eye(4) + 0.25)) >= 0).all(axis=1).mean())
    return time.perf_counter() - t0


CALIBRATIONS = {"exact": calibrate_exact, "float": calibrate_float}


def measure_setup_s(repeats: int = SETUP_REPEATS) -> list:
    """Seconds to import pachsel.cli in fresh interpreters (one warm-up first)."""
    times = []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else float("nan")


def typical(values):
    """Mean of the fastest nine tenths: it follows the share of time the host
    spends in a slow state, but not a single stall."""
    kept = sorted(values)[:max(1, len(values) - len(values) // 10)]
    return statistics.fmean(kept) if values else float("nan")


@dataclass
class Run:
    """Counters and samples collected over one run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    hashes: list = field(default_factory=list)
    cal: dict = field(default_factory=lambda: {k: [] for k in CALIBRATIONS})

    def calibrate(self) -> None:
        """One sample of each calibration, in seconds."""
        for kind, sample in CALIBRATIONS.items():
            self.cal[kind].append(sample())

    def scales(self) -> dict:
        """Per calibration: reference time over this run's typical sample."""
        return {kind: CAL_REFERENCE_S[kind] / typical(v) for kind, v in self.cal.items()}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"FAIL {what}", file=sys.stderr)
        return ok

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def cli_call(argv) -> tuple:
    """Run ``pachsel.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    from pachsel import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def reference_check(ps, cert, rng) -> bool:
    """Certificate against an oracle outside the enumeration module: sampled
    rainbow simplices of the selected subsets contain the point
    (``geometry.point_in_simplex``) and the fractions match the subsets."""
    from pachsel import geometry

    sizes = ps.sizes()
    if any(f * sizes[ci] != len(y) for ci, (f, y) in enumerate(zip(cert.fractions, cert.index_sets))):
        return False
    for _ in range(REFERENCE_TUPLES):
        verts = [ps.point(ci, rng.choice(y)) for ci, y in enumerate(cert.index_sets)]
        if not geometry.point_in_simplex(cert.point, verts, "closed"):
            return False
    return True


def write_regular_simplex(work: Path, d: int) -> Path:
    from pachsel import cones
    from pachsel import io as pio

    path = work / f"regular-{d}.json"
    pio.dump_json(pio.simplex_to_json_dict(cones.regular_simplex(d).vertices), path)
    return path


class Steps:
    """The timed steps of one item.  Each is deterministic and runs first where
    the item needs its result.  A step that took under ``min_s`` in total runs
    again once the item's other work is done, in turn with the other short
    steps, up to ``repeats`` runs; its time is its fastest run.  The repeats
    take a shared host's stalls out of short steps, and deferring them spreads
    them over the item, past slow spells of a few seconds.  Each run follows a
    call of ``calibrate``."""

    def __init__(self, repeats: int, min_s: float, calibrate):
        self.repeats, self.min_s, self.calibrate = repeats, min_s, calibrate
        self.steps = {}  # key -> (step, results, seconds)

    def run(self, key, step):
        self.steps[key] = (step, [], [])
        self._once(key)
        return self.steps[key][1][0]

    def _once(self, key) -> None:
        step, results, seconds = self.steps[key]
        self.calibrate()
        t0 = time.perf_counter()
        results.append(step())
        seconds.append(time.perf_counter() - t0)

    def repeat(self) -> None:
        while True:
            due = [key for key, (_, results, seconds) in self.steps.items()
                   if sum(seconds) < self.min_s and len(results) < self.repeats]
            if not due:
                return
            for key in due:
                self._once(key)

    def best(self, key) -> float:
        return min(self.steps[key][2])

    def same(self, key) -> bool:
        results = self.steps[key][1]
        return all(r == results[0] for r in results)


def cli_file(argv, path) -> tuple:
    """A CLI call that writes ``path``: (exit code, sha256 of the file)."""
    code, _ = cli_call(argv)
    return code, file_sha256(path) if code == 0 else None


def mc_block(dim: int, simplex_path: Path, angle_out: Path, mc_seed: int) -> tuple:
    """Monte Carlo on the regular d-simplex: CLI angle at vertex 0, minimum
    solid angle and fan cover.  Returns (exit code, angle mean, fan report)."""
    from pachsel import cones
    from pachsel import io as pio

    simplex = cones.regular_simplex(dim)
    code, _ = cli_call(["angle", "--simplex", simplex_path, "--vertex", 0,
                        "--samples", MC_SAMPLES, "--seed", mc_seed, "--out", angle_out])
    mean = pio.load_json(angle_out)["mean"] if code == 0 else None
    cones.msa_mc(simplex, MC_SAMPLES, mc_seed + 1)
    fan = cones.normal_fan_cover_check(simplex, MC_SAMPLES, mc_seed + 2)
    return code, mean, fan


def audit_block(ps, cert, dim: int, audit_seed: int):
    """Shrink the certificate to a generic configuration and audit its corner
    volumes.  (G) is exhaustive only for d <= 2; at d = 3 the shrink step still
    rejects boundary families larger than d."""
    from pachsel import constructions, selection

    cfg = selection.shrink_to_generic(ps, cert.index_sets, cert.point, seed=audit_seed,
                                      assume_condition_g=dim >= 3)
    return constructions.corner_volume_audit(cfg, AUDIT_SAMPLES, seed=audit_seed + 1)


def run_item(wl: Workload, item_seed: int, work: Path, simplex_path: Path, run: Run, tag: str,
             repeats: int = MAX_REPEATS):
    """One closed-loop item: gen, then ``wl.selects`` rounds of certified
    selection, the first on the generated coloring and the others on seeded
    recolorings of its points; the first ``wl.audits`` rounds also run the
    audit and Monte Carlo.  Returns its timings and certificate hashes, or
    None."""
    from pachsel import selection
    from pachsel import io as pio

    steps = Steps(repeats, wl.min_timed_s, run.calibrate)
    rng = random.Random(item_seed)
    gen_seed = rng.randrange(1 << 31)
    pts = work / f"pts-{tag}.json"
    gen_argv = ["gen", "--dim", wl.dim, "--shape", "uniform-ball", "--n", wl.n,
                "--seed", gen_seed, "--out", pts]
    if not run.check(steps.run("gen", partial(cli_file, gen_argv, pts))[0] == 0,
                     f"gen (seed {gen_seed})"):
        return None
    generated = pio.load_json(pts)
    if not run.check(len(generated["colors"]) == wl.dim + 1
                     and all(len(c) == wl.n for c in generated["colors"]),
                     f"gen sizes (seed {gen_seed})"):
        return None

    audits = wl.selects if wl.audits is None else wl.audits
    rounds = []
    for r in range(wl.selects):
        sel_seed, audit_seed, ref_seed, mc_seed = (rng.randrange(1 << 31) for _ in range(4))
        where = f"gen seed {gen_seed}, round {r}, select seed {sel_seed}"
        if r:
            # General position and (G) are properties of the union, so a new
            # coloring of the generated points is a new valid instance.
            union = [p for c in generated["colors"] for p in c]
            rng.shuffle(union)
            colors = [union[i * wl.n:(i + 1) * wl.n] for i in range(wl.dim + 1)]
            pts = work / f"pts-{tag}-{r}.json"
            pio.dump_json(dict(generated, colors=colors), pts)
        ps = pio.pointset_from_json_dict(pio.load_json(pts))
        cert_path = work / f"cert-{tag}-{r}.json"
        sel_argv = ["select", "--in", pts, "--out", cert_path, "--seed", sel_seed]
        code, cert_hash = steps.run(("select", r), partial(cli_file, sel_argv, cert_path))
        if not run.check(code == 0, f"select exit {code} ({where})"):
            continue
        for mode in ("--exhaustive", "--arrangement"):
            code, text = cli_call(["verify", "--in", pts, "--cert", cert_path, mode])
            ok = code == 0 and json.loads(text)["ok"] is True
            run.check(ok, f"verify {mode} exit {code} ({where})")
        cert = selection.PachCertificate.from_json_dict(pio.load_json(cert_path))
        run.check(cert.input_sha256 == pio.pointset_sha256(ps), f"input hash ({where})")
        run.check(reference_check(ps, cert, random.Random(ref_seed)), f"reference ({where})")
        row = {
            "hash": cert_hash,
            "min_fraction": float(min(cert.fractions)),
            "restrict_loops": sum(1 for s in cert.stages if s["stage"] == "regularity") - 1,
        }
        rounds.append((r, where, row))
        if r >= audits:
            continue
        report = steps.run(("audit", r), partial(audit_block, ps, cert, wl.dim, audit_seed))
        run.check(report.passed, f"corner-volume audit ({where})")
        code, mean, fan = steps.run(("mc", r), partial(
            mc_block, wl.dim, simplex_path, work / f"angle-{tag}-{r}.json", mc_seed))
        run.check(code == 0, f"angle exit {code} ({where})")
        run.check(fan.coverage == 1.0 and abs(sum(fan.fractions) - 1.0) < 1e-12,
                  f"fan cover ({where})")
        row["angle"] = mean

    steps.repeat()
    run.check(steps.same("gen"), f"gen repeats differ (seed {gen_seed})")
    out = {"gen_s": steps.best("gen"), "rounds": []}
    drawn = (wl.dim + 3) * MC_SAMPLES  # angle, msa_mc over d+1 vertices, fan
    for r, where, row in rounds:
        for step in ("select", "audit", "mc"):
            if (step, r) in steps.steps:
                run.check(steps.same((step, r)), f"{step} repeats differ ({where})")
        row["select_s"] = steps.best(("select", r))
        if r < audits:
            row["audit_s"] = steps.best(("audit", r))
            row["mc_msamples_per_s"] = drawn / steps.best(("mc", r)) / 1e6
        out["rounds"].append(row)
    return out


def angle_check(run: Run, d: int, means: list) -> None:
    """Pooled CLI angle estimates against the closed form, within 4 sigma."""
    p = CLOSED_FORM_ANGLE[d]
    pooled = statistics.fmean(means)
    sigma = math.sqrt(p * (1 - p) / (MC_SAMPLES * len(means)))
    run.check(abs(pooled - p) <= 4 * sigma,
              f"angle d={d}: pooled {pooled:.6f} vs {p:.6f} (4 sigma {4 * sigma:.6f})")


def run_workload(wl: Workload, name: str, seed: int, seconds: float, trace: bool, work: Path,
                 run: Run):
    """Closed loop of items, counted in ``run``.  A new item starts while it
    would end within ``seconds`` if it took the median item time so far.

    With ``trace``, each item runs untraced and then traced, once per step, and
    both must give the same certificates."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    repeats = 1 if trace else MAX_REPEATS
    simplex_path = write_regular_simplex(work, wl.dim)
    stream = random.Random(f"{name}:{seed}")
    angle_means = []
    per_item = []  # trace mode: (untraced, traced) item outputs
    start = time.perf_counter()
    items, durations = 0, []
    while items == 0 or time.perf_counter() - start + median(durations) <= seconds:
        began = time.perf_counter()
        item_seed = stream.randrange(1 << 62)
        tag = str(items)
        items += 1
        try:
            out = run_item(wl, item_seed, work, simplex_path, run, tag, repeats)
            if out is not None and tracer is not None:
                with tracer.installed():
                    traced = run_item(wl, item_seed, work, simplex_path, run, tag + "t", 1)
                if traced is not None:
                    hashes = [[r["hash"] for r in o["rounds"]] for o in (out, traced)]
                    run.check(hashes[0] == hashes[1], f"traced hashes, item {tag}")
                    per_item.append((out, traced))
        except Exception:  # one broken item must not hide the others' results
            traceback.print_exc()
            run.check(False, f"item {tag} raised")
            out = None
        durations.append(time.perf_counter() - began)
        if out is None:
            continue
        run.add("gen_s", out["gen_s"])
        for r in out["rounds"]:
            run.hashes.append(r["hash"])
            for key in ("select_s", "audit_s", "mc_msamples_per_s", "min_fraction",
                        "restrict_loops"):
                if key in r:
                    run.add(key, r[key])
            if r.get("angle") is not None:
                angle_means.append(r["angle"])
    if angle_means:
        angle_check(run, wl.dim, angle_means)
    return tracer, per_item, start


def end_to_end_metrics(run: Run, setup_times: list, scales=None, gen_kind: str = "exact") -> dict:
    """Medians of the run.  With ``scales`` (see Run.scales), the Monte Carlo
    throughput is divided by the float scale, ``gen_s`` multiplied by the
    ``gen_kind`` scale and ``select_s`` and ``audit_s`` by the exact one;
    without, they are as measured.  ``setup_s`` is never scaled."""
    import resource

    s = run.samples
    scales = scales or {"exact": 1.0, "float": 1.0}
    exact, flt = scales["exact"], scales["float"]
    values = {
        "setup_s": (median(setup_times), "s"),
        "gen_s": (median(s.get("gen_s", [])) * scales[gen_kind], "s"),
        "select_s": (median(s.get("select_s", [])) * exact, "s"),
        "audit_s": (median(s.get("audit_s", [])) * exact, "s"),
        "mc_msamples_per_s": (median(s.get("mc_msamples_per_s", [])) / flt, "Msamples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(run: Run, tracer, per_item: list) -> dict:
    from tracer import count_names, sampling_names, span_names

    items = max(len(per_item), 1)
    stats = tracer.layer_stats()
    metrics = {}
    for name in span_names():
        row = stats[name]
        metrics[f"{name}.calls"] = (row["calls"] / items, "count")
        metrics[f"{name}.s"] = (row["s"] / items, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / items, "s")
    for name in count_names():
        metrics[f"{name}.calls"] = (tracer.counts[name] / items, "count")
    for name in sampling_names():
        metrics[f"{name}.samples"] = (tracer.samples[name] / items, "count")
    gens = max(stats["constructions.uniform_ball_set"]["calls"], 1)
    metrics["constructions.uniform_ball_set.attempts"] = (
        tracer.children_of("constructions.uniform_ball_set", "geometry.in_general_position")
        / gens, "count")
    metrics["certificate.min_fraction"] = (median(run.samples.get("min_fraction", [])), "fraction")
    traced_rounds = [r for _, t in per_item for r in t["rounds"]]
    metrics["selection.restrict_loops"] = (
        statistics.fmean(r["restrict_loops"] for r in traced_rounds) if traced_rounds else 0.0,
        "count")
    metrics["trace_overhead.select_s"] = (median(
        [tr["select_s"] - ur["select_s"]
         for u, t in per_item for ur, tr in zip(u["rounds"], t["rounds"])]), "s")
    metrics["trace_overhead.gen_s"] = (median([t["gen_s"] - u["gen_s"] for u, t in per_item]), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # layout differs between numpy releases
        openblas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "pachsel").glob("*.py")
    )
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    load_pachsel()
    wl = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    work.mkdir(parents=True, exist_ok=True)

    run = Run()
    setup_times = [] if args.trace else measure_setup_s()
    tracer, per_item, start = run_workload(
        wl, args.workload, args.seed, args.seconds, bool(args.trace), work, run)
    scales = run.scales()
    if args.trace:
        metrics = per_layer_metrics(run, tracer, per_item)
        tracer.write_jsonl(OUT / f"trace-{label}.jsonl", start)
    else:
        metrics = end_to_end_metrics(run, setup_times, scales, wl.gen_calibration)
    attempted = max(run.attempted, 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "certificates": len(run.hashes),
        "samples": run.samples,
        "setup_s_samples": setup_times,
        "calibration": {"samples": run.cal, "reference_s": CAL_REFERENCE_S,
                        "scales": scales},
        "metrics_as_measured": end_to_end_metrics(run, setup_times) if not args.trace else None,
        "certificate_sha256": run.hashes,
        "fail_rate": run.failed / attempted,
        "failures": run.failures,
        "metrics": metrics,
    }
    with open(OUT / f"result-{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({k: record[k] for k in ("machine", "certificates", "fail_rate")}))
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    for kind, v in run.cal.items():
        print(f"calibration.{kind} {typical(v):.6g} s (scale {scales[kind]:.4g})")
    # Printed, not gated: min_fraction is fixed by the instances, and any failure
    # already makes the run incorrect (see README).
    print(f"min_fraction {median(run.samples.get('min_fraction', [])):.6g} fraction")
    print(f"fail_rate {record['fail_rate']:.6g} ratio ({run.failed}/{attempted})")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
