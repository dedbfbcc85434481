"""Layer spans recorded from outside the program.

The traced run wraps the public entry point of each layer in a span:

=============  =============================================================
layer          wrapped calls
=============  =============================================================
client         the benchmark's own request loop (``client.request``, root)
http           ``encode_vector`` / ``decode_vector`` and the module's
               ``json.dumps`` / ``json.loads`` (both directions)
service        ``SolveService.submit`` (``service.submit``) and the ticket
               from submit to its ``result`` (``service.ticket``)
store          ``FactorizationStore.get`` / ``get_or_build``
problems       ``build_solver``
core           ``TileHMatrix.build`` / ``build_factorize`` / ``factorize`` /
               ``solve`` / ``save`` / ``load``
runtime        ``ProcessExecutor.run``
=============  =============================================================

Each span records name, start, end, parent and the request ids it serves.
Spans are kept in memory and written out when the run ends.

Requests cross threads twice, and content links them:

* the HTTP handler thread learns its request id from the decoded
  right-hand side, which the client registered before sending it (the
  handler serves one connection, so its earlier spans are adopted too);
* a service worker runs a whole micro-batch: spans it opens outside any
  request are held until its panel solve, whose columns name the requests
  (again by content, registered at submit).  The batch's spans then belong
  to every request in it and nest under the lead request's ticket.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from functools import wraps

import numpy as np


def content_key(a) -> int:
    """Identity of a vector by value (the link across threads)."""
    return hash(np.ascontiguousarray(a, dtype=np.float64).tobytes())


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rids")

    def __init__(self, sid, name, start, parent, rids) -> None:
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rids = rids

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "rids": list(self.rids)}


class Recorder:
    """In-memory span store plus the thread-local request context."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.infos: list = []  # (span id, FactorizationInfo) of every traced build
        self.tickets: list = []  # (submit time, program-reported latency) per reply
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._sent: dict[int, deque] = defaultdict(deque)       # client -> handler
        self._submitted: dict[int, deque] = defaultdict(deque)  # submit -> worker

    # -- thread context ----------------------------------------------------------
    def _ctx(self):
        t = self._tls
        if not hasattr(t, "stack"):
            t.stack, t.rids, t.link, t.unclaimed = [], (), None, []
        return t

    @contextmanager
    def request(self, rid: int, link: int | None):
        """Run the body as part of request ``rid`` whose root span is ``link``."""
        t = self._ctx()
        saved = t.rids, t.link
        t.rids, t.link = (rid,), link
        try:
            yield
        finally:
            t.rids, t.link = saved

    # -- spans -------------------------------------------------------------------
    def begin(self, name: str, *, rid=None, parent=None, start=None) -> Span:
        t = self._ctx()
        if parent is None:
            parent = t.stack[-1].id if t.stack else t.link
        if rid is None:
            rid = t.stack[-1].rids if t.stack else t.rids
        elif not isinstance(rid, tuple):
            rid = (rid,)
        s = Span(next(self._ids), name,
                 time.perf_counter() if start is None else start,
                 parent, rid)
        if parent is None and not rid:
            t.unclaimed.append(s)
        self.spans.append(s)
        return s

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        stack = self._ctx().stack
        stack.append(s)
        try:
            yield s
        finally:
            stack.pop()
            s.end = time.perf_counter()

    # -- cross-thread links -------------------------------------------------------
    def sent(self, rhs, rid: int, root: int) -> None:
        """The client is about to send ``rhs`` as request ``rid``."""
        with self._lock:
            self._sent[content_key(rhs)].append((rid, root))

    def received(self, rhs) -> None:
        """A handler decoded ``rhs``: adopt the request that sent it for the
        rest of the handler thread's work."""
        with self._lock:
            q = self._sent.get(content_key(rhs))
            hit = q.popleft() if q else None
        if hit is not None:
            t = self._ctx()
            t.rids, t.link = (hit[0],), hit[1]
            # The handler thread serves this one connection: what it did
            # before the body was decoded (the JSON parse) is this request's.
            for s in t.unclaimed:
                s.rids, s.parent = t.rids, t.link
            t.unclaimed.clear()

    def submitted(self, rhs, rid: int, ticket_span: int) -> None:
        with self._lock:
            self._submitted[content_key(rhs)].append((rid, ticket_span))

    @contextmanager
    def claim(self, panel):
        """A worker's panel solve names its requests: hand them the spans
        the worker opened for this batch, and run the body on their behalf."""
        cols = [panel] if panel.ndim == 1 else [panel[:, j] for j in range(panel.shape[1])]
        hits = []
        with self._lock:
            for c in cols:
                q = self._submitted.get(content_key(c))
                if q:
                    hits.append(q.popleft())
        t = self._ctx()
        if not hits:
            yield
            return
        rids = tuple(r for r, _ in hits)
        for s in t.unclaimed:
            s.rids, s.parent = rids, hits[0][1]
        t.unclaimed.clear()
        saved = t.rids, t.link
        t.rids, t.link = rids, hits[0][1]
        try:
            yield
        finally:
            t.rids, t.link = saved

    # -- output ----------------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_dict() for s in self.spans if s.end is not None], fh)


# -- reduction -----------------------------------------------------------------------

def _union(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children[s["id"]]]
        covered = _union([(a, b) for a, b in kids if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def nesting_errors(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Children that start before or end after their parent."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        p = by_id.get(s["parent"])
        if p is None:
            continue
        if s["start"] < p["start"] - slack or s["end"] > p["end"] + slack:
            bad.append(f"{s['name']}#{s['id']} escapes {p['name']}#{p['id']}")
    return bad


def request_rids(s: dict, by_id: dict) -> list:
    """The requests a span serves: its own ids, else its nearest ancestor's."""
    while s is not None and not s["rids"]:
        s = by_id.get(s["parent"])
    return s["rids"] if s is not None else []


def unattributed_fraction(spans: list[dict], root: str = "client.request") -> float:
    """Share of client latency (summed over requests) that no layer span of
    the same request covers."""
    by_id = {s["id"]: s for s in spans}
    roots = {s["rids"][0]: s for s in spans if s["name"] == root and s["rids"]}
    covered = defaultdict(list)
    for s in spans:
        if s["name"] == root:
            continue
        for rid in request_rids(s, by_id):
            r = roots.get(rid)
            if r is not None:
                a, b = max(s["start"], r["start"]), min(s["end"], r["end"])
                if b > a:
                    covered[rid].append((a, b))
    total = sum(r["end"] - r["start"] for r in roots.values())
    if total <= 0:
        return 0.0
    gap = sum((r["end"] - r["start"]) - _union(covered[rid]) for rid, r in roots.items())
    return gap / total


# -- wrappers ---------------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn, *, after=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        with rec.span(name) as s:
            out = fn(*args, **kwargs)
        if after is not None:
            after(s, args, out)
        return out

    return wrapper


class _TracedJson:
    """Stands in for the ``json`` module inside ``repro.service.http``."""

    def __init__(self, rec: Recorder) -> None:
        self.dumps = _wrap(rec, "http.json_dumps", json.dumps)
        self.loads = _wrap(rec, "http.json_loads", json.loads)

    def __getattr__(self, name):
        return getattr(json, name)


def install(rec: Recorder):
    """Wrap each layer's entry points; returns an ``uninstall`` callable."""
    from repro.core import TileHMatrix
    from repro.runtime.process import ProcessExecutor
    from repro.service import FactorizationStore, SolveService, SolveTicket, http, pipeline

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_method(cls, attr, name, **hooks):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patch(cls, attr, classmethod(_wrap(rec, name, raw.__func__, **hooks)))
        else:
            patch(cls, attr, _wrap(rec, name, raw, **hooks))

    # http: both directions of the JSON codec — the vector conversion and
    # the text serialisation the endpoint and client run around it.
    patch(http, "encode_vector", _wrap(rec, "http.encode", http.encode_vector))
    patch(http, "json", _TracedJson(rec))
    patch(http, "decode_vector",
          _wrap(rec, "http.decode", http.decode_vector,
                after=lambda s, a, out: rec.received(out)))

    # service: the synchronous submit, plus the ticket until it resolves —
    # closed by whichever comes first, the resolution callback or a waiter
    # returning from ``result()``, so it always ends before its caller does.
    submit = SolveService.__dict__["submit"]
    result = SolveTicket.__dict__["result"]
    open_tickets: dict[int, Span] = {}

    def close_ticket(t) -> None:
        span = open_tickets.pop(id(t), None)
        if span is not None:
            span.end = time.perf_counter()
            if t.exception(0) is None:
                rec.tickets.append((span.start, t.finished_at - t.submitted_at))

    @wraps(submit)
    def traced_submit(self, spec, rhs, **kwargs):
        if not rec.enabled:
            return submit(self, spec, rhs, **kwargs)
        ticket_span = rec.begin("service.ticket")
        stack = rec._ctx().stack
        stack.append(ticket_span)
        try:
            with rec.span("service.submit"):
                ticket = submit(self, spec, rhs, **kwargs)
        except BaseException:
            ticket_span.end = time.perf_counter()
            raise
        finally:
            stack.pop()
        rec.submitted(rhs, ticket_span.rids[0] if ticket_span.rids else None, ticket_span.id)
        open_tickets[id(ticket)] = ticket_span
        ticket.add_done_callback(close_ticket)
        return ticket

    @wraps(result)
    def traced_result(self, timeout=None):
        try:
            return result(self, timeout)
        finally:
            if self.done():
                close_ticket(self)

    patch(SolveTicket, "result", traced_result)
    patch(SolveService, "submit", traced_submit)

    patch_method(FactorizationStore, "get", "store.get")
    patch_method(FactorizationStore, "get_or_build", "store.get_or_build")
    patch(pipeline, "build_solver",
          _wrap(rec, "problems.build_solver", pipeline.build_solver))

    keep_info = lambda s, a, out: rec.infos.append(  # noqa: E731
        (s.id, out[1] if isinstance(out, tuple) else out))
    patch_method(TileHMatrix, "build", "core.build")
    patch_method(TileHMatrix, "build_factorize", "core.build_factorize", after=keep_info)
    patch_method(TileHMatrix, "factorize", "core.factorize", after=keep_info)
    solve = TileHMatrix.__dict__["solve"]

    @wraps(solve)
    def traced_solve(self, b):
        if not rec.enabled:
            return solve(self, b)
        with rec.claim(np.asarray(b)), rec.span("core.solve"):
            return solve(self, b)

    patch(TileHMatrix, "solve", traced_solve)
    patch_method(TileHMatrix, "save", "core.save")
    patch_method(TileHMatrix, "load", "core.load")
    patch_method(ProcessExecutor, "run", "runtime.run")

    def uninstall():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return uninstall
