"""Tests of the benchmark harness itself, on tiny instances.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

bench.cap_threads()
bench.load_pachsel()

from tracer import Tracer, span_names  # noqa: E402

TINY = bench.Workload(dim=2, n=5, selects=2)


def _pachsel_bindings():
    """Every attribute of every loaded pachsel module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "pachsel" or name.startswith("pachsel.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


@pytest.fixture
def work(tmp_path):
    return tmp_path, bench.write_regular_simplex(tmp_path, TINY.dim)


def _item(work, item_seed, tag, tracer=None):
    path, simplex_path = work
    run = bench.Run()
    if tracer is None:
        out = bench.run_item(TINY, item_seed, path, simplex_path, run, tag)
    else:
        with tracer.installed():
            out = bench.run_item(TINY, item_seed, path, simplex_path, run, tag, repeats=1)
    assert run.failed == 0, run.failures
    assert len(out["rounds"]) == TINY.selects
    return [r["hash"] for r in out["rounds"]], path / f"pts-{tag}.json"


def test_wrappers_restored_after_traced_run(work):
    before = _pachsel_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert _pachsel_bindings() != before
    _item(work, 1, "a", tracer)
    assert _pachsel_bindings() == before
    assert tracer.spans and tracer.counts["rational.det_int"] > 0


def test_self_time_within_span_time(work):
    tracer = Tracer()
    _item(work, 2, "a", tracer)
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        assert end >= start
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        self_s = (end - start) - child[i]
        assert -1e-9 <= self_s <= end - start + 1e-9, name
    stats = tracer.layer_stats()
    assert set(span_names()) <= set(stats)
    for name, row in stats.items():
        assert -1e-9 <= row["self_s"] <= row["s"] + 1e-9, name


def test_same_seed_same_certificate(work):
    a, _ = _item(work, 3, "a")
    b, _ = _item(work, 3, "b")
    assert a == b


def test_different_seed_different_instance(work):
    _, pts_a = _item(work, 4, "a")
    _, pts_b = _item(work, 5, "b")
    assert bench.file_sha256(pts_a) != bench.file_sha256(pts_b)


def test_traced_and_untraced_certificates_agree(work):
    plain, _ = _item(work, 6, "a")
    traced, _ = _item(work, 6, "b", Tracer())
    assert plain == traced


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero with no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "spatial-n8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
