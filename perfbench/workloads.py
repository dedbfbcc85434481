"""The three workloads, each in two forms.

* **End to end** (``--trace 0``): the program as users run it — a
  ``repro serve`` subprocess for the HTTP workloads, an in-process
  ``SolveService`` for ``gp_window`` — with no benchmark tracing.
* **Traced** (``--trace 1``): the same traffic with the layer spans of
  :mod:`tracer` switched on.  The HTTP server runs in process
  (``make_server``) so the wrapped calls are visible, under an
  ``Instrumentation`` probe whose request traces and counters the layer
  metrics read.  A shorter untraced window on the same server first gives
  the tracing overhead.

Every workload is a closed loop generated from this one process.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import shutil
import threading
import time
import urllib.parse
from pathlib import Path

import numpy as np

import tracer as tr
from checks import (
    ERROR_LIMIT,
    GP,
    LAPLACE,
    Checker,
    gp_inputs,
    laplace_inputs,
    reconcile,
    zipf_choices,
)
from harness import (
    PeakRss,
    ProcTree,
    ServerProcess,
    median,
    percentile,
    tail_percentile,
)

#: Set-ups per run: ``setup_s`` is their median, and each set-up instance
#: serves one part of the measured window.
SETUP_REPS = 3
WARM_EPS = tuple(1e-6 * (1 + 0.25 * k) for k in range(4))
WARM_POOL, COLD_POOL = 128, 64
WARM_CLIENTS = 2
GP_INFLIGHT = 16
#: Client-latency limit of each workload: about 4x its p95 on a 2-vCPU
#: Xeon VM (warm_http 35 ms, gp_window 80 ms; cold_build builds take 1.1-1.7 s).
SLO_SECONDS = {"warm_http": 0.150, "gp_window": 0.300, "cold_build": 5.0}

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "slo_attain": "ratio",
    "success_frac": "ratio",
    "fwd_err_max": "ratio",
    "rss_peak_mb": "MB",
    "cpu_ms_per_req": "ms",
}

PER_LAYER = {
    "http.codec_ms": "ms",
    "http.overhead_ms": "ms",
    "http.keepalive_rtt_ms": "ms",
    "pipeline.ticket_ms_p50": "ms",
    "pipeline.attempted": "count",
    "pipeline.completed": "count",
    "pipeline.rejected": "count",
    "pipeline.failed": "count",
    "batcher.mean_width": "count",
    "batcher.sweeps_per_req": "ratio",
    "batcher.wait_ms_p50": "ms",
    "store.hit_ratio": "ratio",
    "store.persist_ms": "ms",
    "store.load_ms": "ms",
    "store.archive_mb": "MB",
    "build.ms": "ms",
    "core.solve1_ms": "ms",
    "core.panel8_ratio_lu": "ratio",
    "core.panel8_ratio_chol": "ratio",
    "core.flops": "flop",
    "core.tasks": "count",
    "kernel.assemble_s": "s",
    "kernel.getrf_s": "s",
    "kernel.potrf_s": "s",
    "kernel.trsm_s": "s",
    "kernel.gemm_s": "s",
    "hmatrix.compressed_mb": "MB",
    "runtime.startup_ms": "ms",
    "runtime.idle_fraction": "ratio",
    "runtime.dispatches": "count",
    "runtime.ipc_mb": "MB",
    "runtime.shm_mb": "MB",
    "runtime.shm_leaked": "count",
    "gp.train_s": "s",
    "gp.post_mean_err": "ratio",
    "obs.trace_capture_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "client.cpu_frac": "ratio",
}


class Result:
    """What one run reports: metrics by name, counts, and failed checks."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self.notes: dict[str, str] = {}


class Tally:
    """One client's view of a window."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.lat: list[float] = []
        self.attempted = self.completed = self.failed = self.rejected = 0
        self.last = 0.0
        self.cpu = 0.0

    def ok(self, seconds: float, t_done: float) -> None:
        self.completed += 1
        self.lat.append(seconds)
        self.last = max(self.last, t_done)

    def counts(self) -> dict:
        return {"attempted": self.attempted, "completed": self.completed,
                "failed": self.failed, "rejected": self.rejected}

    @classmethod
    def merge(cls, tallies: list["Tally"], checker: Checker) -> "Tally":
        out = cls(checker)
        for t in tallies:
            out.lat += t.lat
            out.attempted += t.attempted
            out.completed += t.completed
            out.failed += t.failed
            out.rejected += t.rejected
            out.last = max(out.last, t.last)
            out.cpu += t.cpu
            checker.err_max = max(checker.err_max, t.checker.err_max)
            checker.checked += t.checker.checked
            checker.bad += t.checker.bad
        return out


def _is_refusal(exc: BaseException) -> bool:
    from repro.service import QueueFullError, ServiceClosedError

    return isinstance(exc, (QueueFullError, ServiceClosedError))


def laplace_spec(eps: float) -> dict:
    return dict(LAPLACE, eps=eps)


def _shm_segments() -> set:
    from repro.runtime.shmem import orphaned_segments

    return set(orphaned_segments())


def _request_deltas(before: dict, after: dict) -> dict:
    keys = ("admitted", "rejected", "completed", "failed")
    return {k: after["requests"][k] - before["requests"][k] for k in keys}


# -- closed-loop clients --------------------------------------------------------------

def _traced_call(rec, rids, rhs, call, start=None):
    rid = next(rids)
    root = rec.begin("client.request", rid=rid, start=start)
    rec.sent(rhs, rid, root.id)
    try:
        with rec.request(rid, root.id):
            return call()
    finally:
        root.end = time.perf_counter()


def _http_client(url, jobs, rhs, checker, deadline, rec=None, rids=None) -> Tally:
    """One client thread: send, wait for the reply, check it, repeat."""
    from repro.service import SolveClient

    client = SolveClient(url)
    tally = Tally(checker)
    cpu0 = time.thread_time()
    while time.perf_counter() < deadline:
        spec, j = next(jobs)
        b = rhs[j]
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            if rec is None:
                x = client.solve(spec, b)
            else:
                x = _traced_call(rec, rids, b, lambda: client.solve(spec, b), t0)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            if _is_refusal(exc):
                tally.rejected += 1
            else:
                tally.failed += 1
            continue
        t1 = time.perf_counter()
        tally.ok(t1 - t0, t1)
        checker.check(j, x)
    tally.cpu = time.thread_time() - cpu0
    return tally


def _http_window(url, make_jobs, rhs, refs, limit, seconds, clients, rec=None, rids=None):
    """``clients`` closed-loop threads for ``seconds``; returns the merged
    tally and the window length (start to the last completion)."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    out: list = [None] * clients

    def body(i):
        out[i] = _http_client(url, make_jobs(i), rhs, Checker(refs, limit),
                              deadline, rec, rids)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    tally = Tally.merge(out, Checker(refs, limit))
    return tally, max(tally.last, deadline) - t0 if tally.completed else seconds


def _warm_jobs(seed: int, specs: list, pool: int):
    def make(i):
        rng = np.random.default_rng([seed, 10 + i])
        while True:
            fps = zipf_choices(rng, len(specs), 4096)
            js = rng.integers(pool, size=4096)
            for f, j in zip(fps, js):
                yield specs[f], int(j)
    return make


def _cold_jobs(seed: int, pool: int):
    """Fresh fingerprints: ε = 1e-6·(1 + (k + r)·1e-3), r seeded in [0, 1)."""
    def make(_i):
        rng = np.random.default_rng([seed, 3])
        r = float(rng.uniform())
        order = rng.permutation(pool)
        for k in itertools.count():
            yield laplace_spec(1e-6 * (1 + (k + r) * 1e-3)), int(order[k % pool])
    return make


def _gp_window(svc, spec, rhs, checker, seconds, order, y=None, rec=None, rids=None):
    """One generator keeping ``GP_INFLIGHT`` solves in flight for ``seconds``.

    Returns ``(tally, window seconds, {column: posterior mean})``.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    tally = Tally(checker)
    means: dict[int, float] = {}
    inflight = 0
    cpu0 = time.thread_time()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        while inflight < GP_INFLIGHT and time.perf_counter() < deadline:
            j = next(order)
            tally.attempted += 1
            t0 = time.perf_counter()
            root = None
            try:
                if rec is None:
                    ticket = svc.submit(spec, rhs[j])
                else:
                    rid = next(rids)
                    root = rec.begin("client.request", rid=rid, start=t0)
                    with rec.request(rid, root.id):
                        ticket = svc.submit(spec, rhs[j])
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                if root is not None:
                    root.end = time.perf_counter()
                if _is_refusal(exc):
                    tally.rejected += 1
                else:
                    tally.failed += 1
                continue
            ticket.add_done_callback(
                lambda t, j=j, t0=t0, root=root: done.put((t, j, t0, time.perf_counter(), root)))
            inflight += 1
        if inflight == 0:
            break
        ticket, j, t0, t1, root = done.get()
        inflight -= 1
        if root is not None:
            root.end = t1
        err = ticket.exception(0)
        if err is not None:
            if _is_refusal(err):
                tally.rejected += 1
            else:
                tally.failed += 1
            continue
        x = ticket.result()
        tally.ok(t1 - t0, t1)
        checker.check(j, x)
        if y is not None:
            means[j] = float(x @ y)
    tally.cpu = time.thread_time() - cpu0
    window = max(tally.last, deadline) - t_start if tally.completed else seconds
    return tally, window, means


def _cycle(seed: int, pool: int):
    order = np.random.default_rng([seed, 4]).permutation(pool)
    return (int(order[k % pool]) for k in itertools.count())


# -- end-to-end metrics ----------------------------------------------------------------

class Part:
    """One window of a run, measured on one freshly set-up program instance."""

    def __init__(self, tally: Tally, window: float, rss_mb: float, cpu_s: float) -> None:
        self.tally, self.window, self.rss_mb, self.cpu_s = tally, window, rss_mb, cpu_s


def _end_to_end(res: Result, name: str, setups: list, parts: list[Part]) -> None:
    """Fold the window parts into the end-to-end metrics.

    A run sets the program up ``SETUP_REPS`` times and measures one window
    part on each instance, because a warm instance settles into a speed of
    its own: rates, latencies, CPU and memory are the median over the
    parts (latencies pooled when a part holds fewer than 20 samples).
    Counts, SLO attainment and the error maximum are pooled.
    """
    tallies = [p.tally for p in parts]
    attempted = sum(t.attempted for t in tallies)
    n = sum(t.completed for t in tallies)
    res.attempted, res.failed = attempted, attempted - n
    slo = SLO_SECONDS[name]
    per_part = min(t.completed for t in tallies) >= 20
    if per_part:
        qs = [tail_percentile(t.completed) for t in tallies]
        p50 = median([percentile(t.lat, 50) for t in tallies])
        tail = median([percentile(t.lat, q) for t, q in zip(tallies, qs)])
    else:
        pooled = [v for t in tallies for v in t.lat] or [0.0]
        qs = [tail_percentile(n)]
        p50, tail = percentile(pooled, 50), percentile(pooled, qs[0])
    res.metrics.update({
        "setup_s": median(setups),
        "throughput_rps": median([p.tally.completed / p.window for p in parts]),
        "latency_p50_ms": p50 * 1e3,
        "slo_attain": sum(v <= slo for t in tallies for v in t.lat) / max(1, attempted),
        "success_frac": n / max(1, attempted),
        "fwd_err_max": max(t.checker.err_max for t in tallies),
        "rss_peak_mb": median([p.rss_mb for p in parts]),
        "cpu_ms_per_req": median([p.cpu_s * 1e3 / max(1, p.tally.completed) for p in parts]),
    })
    res.info.update({
        # Printed, not compared: its run-to-run spread (0.41 of its median
        # on warm_http) is wider than any bound a comparison could use.
        "latency_tail_ms": tail * 1e3,
        "samples": n, "samples_per_part": [t.completed for t in tallies],
        "tail_percentile": qs, "latency_per_part": per_part,
        "setup_s_each": setups, "window_s_each": [p.window for p in parts],
        "throughput_each": [p.tally.completed / p.window for p in parts],
        "slo_s": slo, "client_cpu_s": sum(t.cpu for t in tallies),
        "replies_checked": sum(t.checker.checked for t in tallies),
    })
    if n == 0:
        res.problems.append("no request completed in the window")
    bad = sum(t.checker.bad for t in tallies)
    if bad:
        res.problems.append(
            f"{bad} replies exceeded the error limit {tallies[0].checker.limit:g} "
            f"(max {res.metrics['fwd_err_max']:.3g})")


def _stop(server: ServerProcess, res: Result) -> None:
    code = server.shutdown()
    if code != 0:
        res.problems.append(f"server exited with code {code}")


def _http_e2e(name: str, seed: int, seconds: float, out: Path) -> Result:
    res = Result()
    shm0 = _shm_segments()
    limit = ERROR_LIMIT["laplace"]
    warm = name == "warm_http"
    rhs, refs = laplace_inputs(seed, WARM_POOL if warm else COLD_POOL)
    specs = [laplace_spec(e) for e in WARM_EPS]
    prewarm = Checker(refs, limit)
    setups, parts, hits, misses = [], [], 0, 0
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        server = ServerProcess(out / f"store-{name}", out / f"server-{name}.log")
        try:
            if warm:
                for k, spec in enumerate(specs):
                    prewarm.check(k, server.client.solve(spec, rhs[k]))
            setups.append(time.perf_counter() - t0)
            jobs = (_warm_jobs(seed + 1000 * rep, specs, len(rhs)) if warm
                    else _cold_jobs(seed + 1000 * rep, len(rhs)))
            before = server.client.stats()
            cpu0 = server.tree.cpu_seconds()
            tally, window = _http_window(server.url, jobs, rhs, refs, limit,
                                         seconds / SETUP_REPS, WARM_CLIENTS if warm else 1)
            cpu1 = server.tree.cpu_seconds()
            after = server.client.stats()
        finally:
            _stop(server, res)
        res.problems += reconcile(tally.counts(), _request_deltas(before, after))
        parts.append(Part(tally, window, server.rss.peak_mb, cpu1 - cpu0))
        hits += after["store"]["hits"] - before["store"]["hits"]
        misses += after["store"]["misses"] - before["store"]["misses"]
    if prewarm.bad:
        res.problems.append(f"{prewarm.bad} prewarm replies exceeded the error limit")
    _end_to_end(res, name, setups, parts)
    res.info.update(store_hits=hits, store_misses=misses,
                    shm_leaked=len(_shm_segments() - shm0))
    return res


def warm_http(seed: int, seconds: float, out: Path) -> Result:
    return _http_e2e("warm_http", seed, seconds, out)


def cold_build(seed: int, seconds: float, out: Path) -> Result:
    return _http_e2e("cold_build", seed, seconds, out)


def _gp_spec():
    from repro.service import ProblemSpec

    return ProblemSpec.from_dict(GP)


def _gp_train(spec, rhs, checker, rec=None, rids=None):
    """A fresh in-process service (default knobs, in-memory store) trained
    by its first prediction: returns ``(service, seconds)``."""
    from repro.service import FactorizationStore, SolveService

    t0 = time.perf_counter()
    svc = SolveService(FactorizationStore())
    if rec is None:
        x = svc.submit(spec, rhs[0]).result()
    else:
        x = _traced_call(rec, rids, rhs[0], lambda: svc.submit(spec, rhs[0]).result())
    seconds = time.perf_counter() - t0
    checker.check(0, x)
    return svc, seconds


def gp_window(seed: int, seconds: float, out: Path) -> Result:
    res = Result()
    y, rhs, refs, _ = gp_inputs(seed)
    limit = ERROR_LIMIT["gp"]
    spec = _gp_spec()
    train = Checker(refs, limit)
    order = _cycle(seed, len(rhs))
    setups, parts, widths = [], [], []
    for _ in range(SETUP_REPS):
        rss = PeakRss(ProcTree(os.getpid()))
        svc, dt = _gp_train(spec, rhs, train)
        setups.append(dt)
        try:
            before = svc.stats()
            cpu0 = time.process_time()
            tally, window, _ = _gp_window(svc, spec, rhs, Checker(refs, limit),
                                          seconds / SETUP_REPS, order)
            cpu1 = time.process_time()
            after = svc.stats()
        finally:
            svc.close()
        res.problems += reconcile(tally.counts(), _request_deltas(before, after))
        # The program's CPU: the whole process minus the generator thread.
        parts.append(Part(tally, window, rss.stop(), cpu1 - cpu0 - tally.cpu))
        b0, b1 = before["batch_size"], after["batch_size"]
        widths.append((b1["sum"] - b0["sum"]) / max(1, b1["count"] - b0["count"]))
        del svc
    if train.bad:
        res.problems.append(f"{train.bad} training replies exceeded the error limit")
    _end_to_end(res, "gp_window", setups, parts)
    res.info["mean_panel_width_each"] = widths
    return res


# -- traced runs -------------------------------------------------------------------------

class _Traced:
    """Span recorder + wrappers + an ``Instrumentation`` probe for one run."""

    def __init__(self) -> None:
        from repro.obs import Instrumentation

        self.rec = tr.Recorder()
        self.uninstall = tr.install(self.rec)
        self.probe = Instrumentation(trace_capacity=100_000)
        self.probe.__enter__()
        self.rids = itertools.count(1)
        self.shm0 = _shm_segments()

    def counters(self) -> dict:
        reg = self.probe.registry
        return {k: reg.counter(f"process.{k}") for k in ("dispatches", "ipc_bytes", "shm_bytes")}

    def close(self) -> None:
        self.probe.__exit__(None, None, None)
        self.uninstall()


class _InProcessServer:
    """``repro serve``'s single-service recipe built in this process."""

    def __init__(self, store_dir: Path) -> None:
        from repro.service import FactorizationStore, SolveService, make_server

        shutil.rmtree(store_dir, ignore_errors=True)
        self.store_dir = store_dir
        self.service = SolveService(FactorizationStore(store_dir, mmap=True),
                                    exec_mode="process", exec_workers=2)
        self.server = make_server(self.service)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.2}, daemon=True)
        self.thread.start()

    def shutdown(self, res: Result) -> None:
        from repro.service import SolveClient

        SolveClient(self.url).shutdown()
        deadline = time.monotonic() + 60
        while not self.service.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join()
        if not self.service.closed:
            res.problems.append("in-process server did not drain")
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _spans_between(spans: list[dict], t0: float, t1: float, name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name and t0 <= s["start"] <= t1]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _build_layers(m: dict, notes: dict, T: _Traced, spans: list[dict],
                  t0: float, t1: float, c0: dict, c1: dict) -> None:
    """Per-build metrics of the builds traced in ``[t0, t1]``."""
    from repro.obs import build_run_report

    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    builds = _spans_between(spans, t0, t1, "problems.build_solver")
    if not builds:
        notes["build"] = "no build in this workload's traced phases"
        return
    m["build.ms"] = _mean(dur(s) for s in builds) * 1e3
    saves = _spans_between(spans, t0, t1, "core.save")
    loads = _spans_between(spans, t0, t1, "core.load")
    m["store.persist_ms"] = _mean(dur(s) for s in saves) * 1e3
    m["store.load_ms"] = _mean(dur(s) for s in loads) * 1e3
    starts = {s["id"]: s["start"] for s in spans}
    reports = [build_run_report(trace=info.trace, graph=info.graph)
               for sid, info in T.rec.infos if t0 <= starts.get(sid, -1.0) <= t1]
    n = max(1, len(builds))
    kind_s = lambda k: sum(r["kinds"].get(k, {}).get("seconds", 0.0) for r in reports) / n  # noqa: E731
    for kind in ("getrf", "potrf", "trsm", "gemm"):
        m[f"kernel.{kind}_s"] = kind_s(kind)
    assembled = kind_s("assemble")
    if not assembled:  # eager builds assemble outside the task graph
        assembled = sum(dur(s) for s in _spans_between(spans, t0, t1, "core.build")) / n
    m["kernel.assemble_s"] = assembled
    m["core.flops"] = sum(r["totals"]["total_flops"] for r in reports) / n
    m["core.tasks"] = sum(r["totals"]["n_tasks"] for r in reports) / n
    runs = _spans_between(spans, t0, t1, "runtime.run")
    if not runs:
        notes["runtime"] = "builds ran on the eager executor (no worker processes)"
        return
    parallel = [r for r in reports if r["totals"]["nworkers"] > 1]
    m["runtime.idle_fraction"] = _mean(1.0 - r["totals"]["utilization"] for r in parallel)
    nr = len(runs)
    m["runtime.dispatches"] = (c1["dispatches"] - c0["dispatches"]) / nr
    m["runtime.ipc_mb"] = (c1["ipc_bytes"] - c0["ipc_bytes"]) / nr / 2**20
    m["runtime.shm_mb"] = (c1["shm_bytes"] - c0["shm_bytes"]) / nr / 2**20
    # First task start, from the kernel spans in the program's request traces.
    kernel_starts = sorted(
        t["start"] + s["t0"] for t in T.probe.tracer.traces()
        for s in t["spans"] if s["name"].startswith("kernel:"))
    delays = []
    for r in runs:
        first = next((k for k in kernel_starts if r["start"] <= k <= r["end"]), None)
        if first is not None:
            delays.append(first - r["start"])
    m["runtime.startup_ms"] = _mean(delays) * 1e3
    if not delays:
        notes["runtime.startup_ms"] = "no kernel spans in the program's request traces"


def _window_layers(m: dict, T: _Traced, spans: list[dict], t0: float, t1: float,
                   tally: Tally, window: float, before: dict, after: dict,
                   clients: int) -> None:
    """Per-request metrics of the traced window ``[t0, t1]``."""
    roots = _spans_between(spans, t0, t1, "client.request")
    rids = {s["rids"][0] for s in roots}
    by_id = {s["id"]: s for s in spans}
    mine = [s for s in spans if set(tr.request_rids(s, by_id)) & rids]
    n = max(1, tally.completed)
    codec = [s for s in mine if s["name"].startswith("http.")]
    m["http.codec_ms"] = sum(s["end"] - s["start"] for s in codec) * 1e3 / n
    rtt = [s["end"] - s["start"] for s in roots]
    served = [lat for start, lat in T.rec.tickets if t0 <= start <= t1]
    if served:
        m["pipeline.ticket_ms_p50"] = percentile(served, 50) * 1e3
    req = _request_deltas(before, after)
    m["pipeline.attempted"] = tally.attempted
    m["pipeline.completed"] = req["completed"]
    m["pipeline.rejected"] = req["rejected"]
    m["pipeline.failed"] = req["failed"]
    b0, b1 = before["batch_size"], after["batch_size"]
    sweeps = b1["count"] - b0["count"]
    m["batcher.mean_width"] = (b1["sum"] - b0["sum"]) / max(1, sweeps)
    m["batcher.sweeps_per_req"] = sweeps / n
    s0, s1 = before["store"], after["store"]
    hits, misses = s1["hits"] - s0["hits"], s1["misses"] - s0["misses"]
    m["store.hit_ratio"] = hits / max(1, hits + misses)
    traces = [t for t in T.probe.tracer.traces() if t0 <= t["start"] <= t1]
    waits = [sum(s["t1"] - s["t0"] for s in t["spans"] if s["name"] == "queue-wait")
             for t in traces]
    if waits:
        m["batcher.wait_ms_p50"] = percentile(waits, 50) * 1e3
    if rtt:
        m["obs.trace_capture_frac"] = sum(t["duration_seconds"] for t in traces) / sum(rtt)
        if served:
            m["http.overhead_ms"] = (_mean(rtt) - _mean(served)) * 1e3
    window_spans = [s for s in mine if s["name"] != "client.request"] + roots
    m["trace.unattributed_frac"] = tr.unattributed_fraction(window_spans)
    m["client.cpu_frac"] = tally.cpu / (window * clients)


def _panel_probe(solver, rhs, reps: int = 15) -> tuple[float, float]:
    """``(one-RHS solve ms, 8-wide panel / one-RHS)`` by direct calls."""
    b1, b8 = rhs[0], np.ascontiguousarray(rhs[:8].T)
    solver.solve(b1)
    solver.solve(b8)

    def timed(b):
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            solver.solve(b)
            out.append(time.perf_counter() - t0)
        return median(out)

    one, eight = timed(b1), timed(b8)
    return one * 1e3, eight / one


def _keepalive_rtt_ms(url: str, spec: dict, rhs, checker: Checker, n: int = 12) -> float:
    """Median round trip of one request repeated over one persistent
    ``http.client`` connection (the first, connecting, one excluded)."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
    times = []
    try:
        for i in range(n):
            body = json.dumps({"problem": spec, "rhs": rhs[0].tolist()}).encode()
            t0 = time.perf_counter()
            conn.request("POST", "/v1/solve", body, {"Content-Type": "application/json"})
            reply = json.loads(conn.getresponse().read())
            times.append(time.perf_counter() - t0)
            checker.check(0, np.asarray(reply["solution"]))
    finally:
        conn.close()
    return median(times[1:]) * 1e3


def _layer_result(m: dict, notes: dict, tally: Tally, res: Result) -> Result:
    res.metrics.update(m)
    res.notes.update(notes)
    res.attempted, res.failed = tally.attempted, tally.attempted - tally.completed
    if tally.checker.bad:
        res.problems.append(
            f"{tally.checker.bad} replies exceeded the error limit "
            f"{tally.checker.limit:g} (max {tally.checker.err_max:.3g})")
    if tally.completed == 0:
        res.problems.append("no request completed in the traced window")
    return res


def _finish_traced(T: _Traced, res: Result, m: dict, out: Path, name: str, seed: int) -> list:
    T.rec.enabled = False
    spans = [s.to_dict() for s in T.rec.spans if s.end is not None]
    T.rec.dump(out / f"spans-{name}-seed{seed}.json")
    bad = tr.nesting_errors(spans)
    if bad:
        res.problems.append(f"{len(bad)} spans escape their parent, e.g. {bad[0]}")
    selfs = tr.self_times(spans)
    layer_self: dict[str, float] = {}
    for s in spans:
        layer_self[s["name"]] = layer_self.get(s["name"], 0.0) + selfs[s["id"]]
    res.info["self_seconds_by_span"] = layer_self
    res.info["spans"] = len(spans)
    return spans


def _http_traced(name: str, seed: int, seconds: float, out: Path) -> Result:
    from repro.service import SolveClient

    res = Result()
    m = dict.fromkeys(PER_LAYER, 0.0)
    notes: dict[str, str] = {}
    warm = name == "warm_http"
    limit = ERROR_LIMIT["laplace"]
    rhs, refs = laplace_inputs(seed, WARM_POOL if warm else COLD_POOL)
    specs = [laplace_spec(e) for e in WARM_EPS]
    T = _Traced()
    srv = None
    try:
        srv = _InProcessServer(out / f"store-{name}-traced")
        client = SolveClient(srv.url)
        T.rec.enabled = True
        c_setup0, t_setup0 = T.counters(), time.perf_counter()
        prewarm = Checker(refs, limit)
        if warm:
            for k, spec in enumerate(specs):
                x = _traced_call(T.rec, T.rids, rhs[k],
                                 lambda spec=spec, k=k: client.solve(spec, rhs[k]))
                prewarm.check(k, x)
        c_setup1, t_setup1 = T.counters(), time.perf_counter()
        T.rec.enabled = False
        jobs = _warm_jobs(seed, specs, len(rhs)) if warm else _cold_jobs(seed + 7919, len(rhs))
        clients = WARM_CLIENTS if warm else 1
        plain, plain_window = _http_window(srv.url, jobs, rhs, refs, limit, seconds / 2, clients)
        jobs = _warm_jobs(seed, specs, len(rhs)) if warm else _cold_jobs(seed, len(rhs))
        before = srv.service.stats()
        c0, t0 = T.counters(), time.perf_counter()
        T.rec.enabled = True
        tally, window = _http_window(srv.url, jobs, rhs, refs, limit, seconds, clients,
                                     T.rec, T.rids)
        T.rec.enabled = False
        c1, t1 = T.counters(), time.perf_counter()
        after = srv.service.stats()
        res.problems += reconcile(tally.counts(), _request_deltas(before, after))
        if plain.checker.bad or prewarm.bad:
            res.problems.append("an untraced or prewarm reply exceeded the error limit")
        m["obs.trace_overhead_frac"] = (tally.completed / window) / max(
            1e-9, plain.completed / plain_window)
        solver = srv.service.store.get(srv.service.store.keys()[0])
        m["core.solve1_ms"], m["core.panel8_ratio_lu"] = _panel_probe(solver, rhs)
        m["hmatrix.compressed_mb"] = solver.storage_bytes() / 2**20
        notes["core.panel8_ratio_chol"] = "LU factors only; the Cholesky ratio is on gp_window"
        if warm:
            m["http.keepalive_rtt_ms"] = _keepalive_rtt_ms(srv.url, specs[0], rhs, tally.checker)
        else:
            notes["http.keepalive_rtt_ms"] = "measured on warm_http (a cold request is build-bound)"
        archives = list(srv.store_dir.glob("*.npz"))
        m["store.archive_mb"] = _mean(p.stat().st_size for p in archives) / 2**20
    finally:
        if srv is not None:
            srv.shutdown(res)
        T.close()
    spans = _finish_traced(T, res, m, out, name, seed)
    if warm:
        _build_layers(m, notes, T, spans, t_setup0, t_setup1, c_setup0, c_setup1)
    else:
        _build_layers(m, notes, T, spans, t0, t1, c0, c1)
    _window_layers(m, T, spans, t0, t1, tally, window, before, after, clients)
    m["runtime.shm_leaked"] = len(_shm_segments() - T.shm0)
    notes["gp"] = "gp.* metrics are measured on gp_window"
    return _layer_result(m, notes, tally, res)


def warm_http_traced(seed: int, seconds: float, out: Path) -> Result:
    return _http_traced("warm_http", seed, seconds, out)


def cold_build_traced(seed: int, seconds: float, out: Path) -> Result:
    return _http_traced("cold_build", seed, seconds, out)


def gp_window_traced(seed: int, seconds: float, out: Path) -> Result:
    from repro.service import spec_fingerprint

    res = Result()
    m = dict.fromkeys(PER_LAYER, 0.0)
    notes = {"http": "no wire on gp_window; http.* are measured on warm_http",
             "core.panel8_ratio_lu": "Cholesky factors only; the LU ratio is on warm_http"}
    y, rhs, refs, mean_ref = gp_inputs(seed)
    limit = ERROR_LIMIT["gp"]
    spec = _gp_spec()
    T = _Traced()
    svc = None
    try:
        T.rec.enabled = True
        c_setup0, t_setup0 = T.counters(), time.perf_counter()
        svc, train_s = _gp_train(spec, rhs, Checker(refs, limit), T.rec, T.rids)
        c_setup1, t_setup1 = T.counters(), time.perf_counter()
        T.rec.enabled = False
        plain, plain_window, _ = _gp_window(svc, spec, rhs, Checker(refs, limit), seconds / 2,
                                            _cycle(seed + 7919, len(rhs)))
        before = svc.stats()
        t0 = time.perf_counter()
        T.rec.enabled = True
        tally, window, means = _gp_window(svc, spec, rhs, Checker(refs, limit), seconds,
                                          _cycle(seed, len(rhs)), y, T.rec, T.rids)
        T.rec.enabled = False
        t1 = time.perf_counter()
        after = svc.stats()
        res.problems += reconcile(tally.counts(), _request_deltas(before, after))
        if plain.checker.bad:
            res.problems.append("an untraced reply exceeded the error limit")
        m["obs.trace_overhead_frac"] = (tally.completed / window) / max(
            1e-9, plain.completed / plain_window)
        m["gp.train_s"] = train_s
        cols = sorted(means)
        got = np.array([means[j] for j in cols])
        m["gp.post_mean_err"] = float(np.linalg.norm(got - mean_ref[cols])
                                      / np.linalg.norm(mean_ref[cols]))
        solver = svc.store.get(spec_fingerprint(spec))
        m["core.solve1_ms"], m["core.panel8_ratio_chol"] = _panel_probe(solver, rhs)
        m["hmatrix.compressed_mb"] = solver.storage_bytes() / 2**20
    finally:
        if svc is not None:
            svc.close()
        T.close()
    spans = _finish_traced(T, res, m, out, "gp_window", seed)
    _build_layers(m, notes, T, spans, t_setup0, t_setup1, c_setup0, c_setup1)
    notes["store"] = "in-memory store: nothing is persisted or loaded"
    _window_layers(m, T, spans, t0, t1, tally, window, before, after, 1)
    m["runtime.shm_leaked"] = len(_shm_segments() - T.shm0)
    return _layer_result(m, notes, tally, res)


WORKLOADS = {
    "warm_http": (warm_http, warm_http_traced),
    "gp_window": (gp_window, gp_window_traced),
    "cold_build": (cold_build, cold_build_traced),
}
