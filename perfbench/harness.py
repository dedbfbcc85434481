"""Shared plumbing of the benchmark: environment, statistics, process
accounting (RSS and CPU of a process tree), and the ``repro serve``
subprocess the HTTP workloads talk to.

Everything here reads the operating system or the program's public
surfaces; nothing reaches into the program's internals.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def program_env() -> dict:
    """Environment for a program process: the checkout's ``src`` on the
    path and unbuffered output (``run.py`` already removed BLAS pinning
    from this process's environment, which children inherit)."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


# -- statistics ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    s = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


def tail_percentile(n: int, candidates=(95, 90, 75)) -> int:
    """The highest candidate percentile with at least ten samples beyond it
    in a sample of ``n``; the median when no candidate qualifies."""
    for q in candidates:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 50


def median(values) -> float:
    s = sorted(values)
    m = len(s) // 2
    return s[m] if len(s) % 2 else 0.5 * (s[m - 1] + s[m])


# -- environment record ------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({m for m in re.findall(r"(/\S*openblas\S*\.so\S*)", maps)})
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if ref.startswith("ref: "):
        try:
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        except OSError:
            return ref[5:]
    return ref


def environment(stripped: list[str]) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 - older numpy: record what we can
        pass
    return {
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "stripped_env": stripped,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


# -- process accounting --------------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces; everything after the last ')' is positional.
    return raw[raw.rindex(")") + 2:].split()


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        out.extend(int(c) for c in text.split())
    return out


def _rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class ProcTree:
    """RSS and CPU of a process and its descendants, read from ``/proc``.

    CPU counts the root's own time, the time of its reaped children
    (``cutime``/``cstime``: executor workers that already exited) and the
    time of live descendants.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def pids(self) -> list[int]:
        seen, todo = [], [self.pid]
        while todo:
            p = todo.pop()
            seen.append(p)
            todo.extend(_children(p))
        return seen

    def rss_mb(self) -> float:
        return sum(_rss_kb(p) for p in self.pids()) / 1024.0

    def cpu_seconds(self) -> float:
        total = 0
        for p in self.pids():
            f = _stat_fields(p)
            if f is None:
                continue
            # utime, stime, cutime, cstime are fields 14-17 (1-based).
            ticks = int(f[11]) + int(f[12])
            if p == self.pid:
                ticks += int(f[13]) + int(f[14])
            total += ticks
        return total / _CLK_TCK


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A ``repro serve`` subprocess starts a multiprocessing resource tracker
    that outlives it by design; without this its orphan would be left to
    whatever reaps orphans on the host.  With it, ``reap_children`` can wait
    for every process the run started.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def reap_children(grace: float = 20.0) -> list[int]:
    """Wait until this process has no children left, adopted orphans
    included; children still running after ``grace`` seconds are killed.
    Returns the pids that had to be killed."""
    from multiprocessing import resource_tracker

    # This process's own tracker ignores SIGTERM and stops when its pipe
    # closes; stop it the documented way and wait for it.
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    killed: set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return sorted(killed)
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                killed.add(child)
        time.sleep(0.02)


class PeakRss:
    """Background sampler of a process tree's summed RSS (the peak is kept)."""

    def __init__(self, tree: ProcTree, interval: float = 0.1) -> None:
        self.tree = tree
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self.tree.rss_mb())
            self._stop.wait(self.interval)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, self.tree.rss_mb())
        return self.peak_mb


# -- the serving process -----------------------------------------------------

#: The documented serving recipe (docs/service.md), other flags default.
SERVE_FLAGS = ("--exec", "process", "--exec-workers", "2", "--mmap")


class ServerProcess:
    """``python -m repro serve`` in a subprocess on a fresh store directory.

    ``setup_seconds`` is the wall time from launch to the first healthy
    ``/v1/healthz`` reply.
    """

    def __init__(self, store: Path, log: Path) -> None:
        from repro.service import SolveClient

        self.store = store
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        self._log = open(log, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store), *SERVE_FLAGS],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.tree = ProcTree(self.proc.pid)
        self.rss = PeakRss(self.tree)
        line = self.proc.stdout.readline().decode()
        match = re.search(r"http://[\w.]+:\d+", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not announce its address: {line!r}")
        self.url = match.group(0)
        # Drain the rest of stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()
        self.client = SolveClient(self.url)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if self.client.healthz().get("status") == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        self.setup_seconds = time.perf_counter() - t0

    def shutdown(self) -> int:
        """Drain through ``POST /v1/shutdown``; returns the exit code (a
        server that does not exit within 60 s is killed and reports -9)."""
        try:
            self.client.shutdown()
            code = self.proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - any failure: make sure it dies
            self.kill()
            code = -9
        self._finish()
        return code

    def kill(self) -> None:
        """Kill the server and every descendant it has."""
        for pid in reversed(self.tree.pids()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self._finish()

    def _finish(self) -> None:
        self.rss.stop()
        self._log.close()
        shutil.rmtree(self.store, ignore_errors=True)
