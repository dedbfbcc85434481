"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_orphaned_grandchildren_are_reaped_before_exit():
    # A child that exits at once leaves a grandchild running, as a server
    # leaves its resource tracker; the run must wait for the grandchild.
    script = (
        "import os, subprocess, sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import harness\n"
        "harness.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 0.5 & exit 0'], check=True)\n"
        "t0 = time.monotonic()\n"
        "killed = harness.reap_children(grace=10.0)\n"
        "assert killed == [], killed\n"
        "assert time.monotonic() - t0 > 0.3\n"
        "assert harness._children(os.getpid()) == []\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


def test_corrupted_reply_trips_the_error_check():
    rng = np.random.default_rng(0)
    refs = rng.standard_normal((3, 50))
    c = checks.Checker(refs, limit=1e-6)
    assert c.check(0, refs[0] * (1 + 1e-9)) < 1e-6
    assert c.bad == 0
    corrupted = refs[1].copy()
    corrupted[7] += 1.0
    c.check(1, corrupted)
    assert c.bad == 1 and c.err_max > 1e-6
    c.check(2, np.full(50, np.nan))
    assert c.bad == 2 and math.isinf(c.err_max)
    assert math.isinf(checks.relative_error(refs[0][:10], refs[0]))


def test_reconcile_flags_disagreeing_counts():
    client = {"attempted": 10, "completed": 9, "failed": 0, "rejected": 1}
    assert checks.reconcile(client, {"admitted": 9, "rejected": 1, "completed": 9,
                                     "failed": 0}) == []
    assert checks.reconcile(client, {"admitted": 10, "rejected": 1, "completed": 9,
                                     "failed": 0})
    assert checks.reconcile(dict(client, failed=1),
                            {"admitted": 9, "rejected": 1, "completed": 9, "failed": 0})


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(2000) == 95
    assert harness.tail_percentile(120) == 90
    assert harness.tail_percentile(12) == 50
    assert harness.percentile([3, 1, 2], 50) == 2


def test_seeded_inputs_repeat_and_differ_by_seed():
    a = checks.gp_test_points(1)
    assert np.array_equal(a, checks.gp_test_points(1))
    assert not np.array_equal(a, checks.gp_test_points(2))
    assert np.allclose(np.hypot(a[:, 0], a[:, 1]), 1.0)


def test_self_times_and_unattributed_share_of_synthetic_spans():
    spans = [
        {"id": 1, "name": "client.request", "start": 0.0, "end": 10.0, "parent": None, "rids": [1]},
        {"id": 2, "name": "http.encode", "start": 1.0, "end": 2.0, "parent": 1, "rids": [1]},
        {"id": 3, "name": "service.ticket", "start": 3.0, "end": 9.0, "parent": 1, "rids": [1]},
        {"id": 4, "name": "core.solve", "start": 4.0, "end": 6.0, "parent": 3, "rids": []},
    ]
    selfs = tr.self_times(spans)
    assert selfs == {1: 3.0, 2: 1.0, 3: 4.0, 4: 2.0}
    assert tr.nesting_errors(spans) == []
    assert tr.unattributed_fraction(spans) == pytest.approx(0.3)
    spans[3]["end"] = 9.5
    assert tr.nesting_errors(spans)


def test_traced_service_spans_nest_with_nonnegative_self_times():
    """Real spans from the wrapped layers of a small in-process service."""
    from repro.service import FactorizationStore, SolveService

    rec = tr.Recorder()
    uninstall = tr.install(rec)
    rids = iter(range(1, 100))
    spec = {"kernel": "laplace", "n": 300, "nb": 100, "eps": 1e-6}
    rng = np.random.default_rng(0)
    try:
        rec.enabled = True
        with SolveService(FactorizationStore()) as svc:
            def one(b):
                return workloads._traced_call(rec, rids, b, lambda: svc.solve(spec, b))

            one(rng.standard_normal(300))  # cold: builds the factorization
            threads = [threading.Thread(target=one, args=(rng.standard_normal(300),))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        time.sleep(0.01)
    finally:
        rec.enabled = False
        uninstall()
    spans = [s.to_dict() for s in rec.spans if s.end is not None]
    names = {s["name"] for s in spans}
    assert {"client.request", "service.submit", "service.ticket", "store.get_or_build",
            "problems.build_solver", "core.build", "core.factorize", "core.solve"} <= names
    assert tr.nesting_errors(spans) == []
    assert all(v >= -1e-9 for v in tr.self_times(spans).values())
    by_id = {s["id"]: s for s in spans}
    # Every worker-side span was handed to a request.
    assert all(tr.request_rids(s, by_id) for s in spans)
    assert 0.0 <= tr.unattributed_fraction(spans) < 1.0
