"""Timing wrappers around each layer's public functions.

The traced run replaces selected functions of the ``repro`` package with
thin wrappers that stamp ``time.perf_counter()``; nothing under ``src/``
knows about them.  On Linux ``perf_counter`` reads ``CLOCK_MONOTONIC``,
which is system-wide, so stamps taken in the client process and in the
daemon processes share one timeline.

Client and daemon records are joined by an RPC id the client writes into
the request envelope's ``request_id`` field (unused while the telemetry
plane is off).  The id has a fixed width, so its bytes are subtracted
exactly from the measured frame sizes.

Two hooks matter because they catch stale bindings:

* ``repro.net.client`` imports ``encode_request_body`` by name, so the
  wrapper is installed on that module, not on the codec;
* ``GekkoDaemon`` registers bound handler methods at construction, so
  the handler span wraps ``RpcEngine.handle``, which every handler goes
  through, and the daemon probe is installed before any daemon exists.

The coverage check in :mod:`ledger` fails a run whose wrappers recorded
nothing on a layer the workload exercises.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Optional

from workloads import OpTimer

now = time.perf_counter

#: ``request_id`` values the probes stamp: prefix + 12 digits.
ID_PREFIX = "pb"


def rpc_id(n: int) -> str:
    return f"{ID_PREFIX}{n:012d}"


def id_overhead() -> int:
    """Bytes a stamped id adds to an encoded request body (vs ``None``)."""
    from repro.net.codec import dumps

    return len(dumps(rpc_id(0))) - len(dumps(None))


# -- client process ------------------------------------------------------------


class RpcRec:
    """Client-side stamps of one RPC issued inside a measured op."""

    __slots__ = ("id", "handler", "op", "t_call", "s0", "s1", "enc_us",
                 "req_bytes", "resp_bytes", "rx", "c0", "c1", "f",
                 "wait_in", "resume", "bulk_bytes", "failed", "futures")

    def __init__(self, rid: str, handler: str, op: "OpRec"):
        self.id = rid
        self.handler = handler
        self.op = op
        self.t_call = now()
        self.s0 = self.s1 = None
        self.enc_us = 0.0
        self.req_bytes = 0
        self.resp_bytes = 0
        self.rx = self.c0 = self.c1 = None
        self.f = None
        self.wait_in = None
        self.resume = None
        self.bulk_bytes = 0
        self.failed = False
        # The futures tagged with this RPC, held so that their ids cannot
        # be reused by new objects while the tags are live.
        self.futures: list = []


class OpRec:
    """One measured op: its span, its RPCs, and its metadata-cache calls."""

    __slots__ = ("kind", "t0", "t1", "rpcs", "batches", "_batch", "cache_us",
                 "lookups", "lookup_us", "ok")

    def __init__(self, kind: str):
        self.kind = kind
        self.t0 = now()
        self.t1 = None
        self.rpcs: list[RpcRec] = []
        # RPCs the caller issued between two waits: one fan-out each.
        self.batches: list[list[RpcRec]] = []
        self._batch: list[RpcRec] = []
        self.cache_us = 0.0  # every metadata-cache call
        self.lookups = 0  # attribute lookups among them
        self.lookup_us = 0.0
        self.ok = True

    def issue(self, rec: RpcRec) -> None:
        self.rpcs.append(rec)
        self._batch.append(rec)

    def close_batch(self) -> None:
        if self._batch:
            self.batches.append(self._batch)
            self._batch = []


class ClientProbe:
    """Installs the client-process wrappers and keeps their records."""

    def __init__(self):
        self.ops: list[OpRec] = []
        self._tl = threading.local()
        self._futures: dict[int, RpcRec] = {}
        self._ids = itertools.count(1)
        self._undo: list = []

    # ---- op context (called by TracedOpTimer) ----

    def begin(self, kind: str) -> OpRec:
        op = OpRec(kind)
        self._tl.op = op
        return op

    def end(self, op: OpRec, ok: bool) -> None:
        op.t1 = now()
        op.close_batch()
        op.ok = ok
        self._tl.op = None
        self.ops.append(op)

    # ---- installation ----

    def _patch(self, owner, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def install(self) -> None:
        import repro.net.client as net_client
        import repro.net.codec as codec
        from repro.metacache.client import ClientMetaCache
        from repro.rpc.engine import RpcNetwork
        from repro.rpc.future import RpcFuture
        from repro.rpc.message import RpcResponse

        tl, futures, ids = self._tl, self._futures, self._ids
        overhead = id_overhead()

        def call_async(orig):
            def wrapper(self, target, handler, *args, **kwargs):
                op = getattr(tl, "op", None)
                if op is None:
                    return orig(self, target, handler, *args, **kwargs)
                rec = RpcRec(rpc_id(next(ids)), handler, op)
                tl.rpc = rec
                try:
                    future = orig(self, target, handler, *args, **kwargs)
                finally:
                    tl.rpc = None
                futures[id(future)] = rec
                rec.futures.append(future)
                op.issue(rec)
                return future
            return wrapper

        def encode(orig):
            def wrapper(request):
                rec = getattr(tl, "rpc", None)
                if rec is None:
                    return orig(request)
                t0 = now()
                body = orig(dataclasses.replace(request, request_id=rec.id))
                rec.enc_us += (now() - t0) * 1e6
                rec.req_bytes = len(body) - overhead
                return body
            return wrapper

        def submit(orig):
            def wrapper(self, request):
                rec = getattr(tl, "rpc", None)
                if rec is None:
                    return orig(self, request)
                rec.s0 = now()
                try:
                    return orig(self, request)
                finally:
                    rec.s1 = now()
            return wrapper

        def pending_init(orig):
            # Tag the future before it is published: the reply can resolve
            # it before ``submit`` returns to the caller.
            def wrapper(self, bulk):
                orig(self, bulk)
                rec = getattr(tl, "rpc", None)
                if rec is not None:
                    futures[id(self.future)] = rec
                    rec.futures.append(self.future)
            return wrapper

        def recv_exact(orig):
            def wrapper(sock, count):
                data = orig(sock, count)
                if count == codec.HEADER_SIZE:
                    tl.rx = now()
                return data
            return wrapper

        def decode_response(orig):
            def wrapper(body):
                t0 = now()
                value = orig(body)
                tl.dec = (t0, now(), len(body))
                return value
            return wrapper

        def respond(orig):
            def wrapper(self, status, payload, pulled, pushed):
                rec = futures.get(id(self.future))
                if rec is not None and rec.rx is None:
                    rec.rx = getattr(tl, "rx", None)
                    rec.c0, rec.c1, size = tl.dec
                    rec.resp_bytes = size
                return orig(self, status, payload, pulled, pushed)
            return wrapper

        def set_result(orig):
            def wrapper(self, value):
                rec = futures.get(id(self))
                if rec is not None and rec.f is None:
                    rec.f = now()
                    if isinstance(value, RpcResponse):
                        rec.bulk_bytes = value.bulk_bytes
                return orig(self, value)
            return wrapper

        def set_exception(orig):
            def wrapper(self, exc):
                rec = futures.get(id(self))
                if rec is not None and rec.f is None:
                    rec.f = now()
                    rec.failed = True
                return orig(self, exc)
            return wrapper

        def waiter(orig):
            def wrapper(self, timeout=None):
                rec = futures.get(id(self))
                if rec is None:
                    return orig(self, timeout)
                if rec.wait_in is None:
                    rec.wait_in = now()
                    rec.op.close_batch()
                try:
                    return orig(self, timeout)
                finally:
                    if rec.resume is None:
                        rec.resume = now()
                        # The caller has the result: drop the tags.
                        for future in rec.futures:
                            futures.pop(id(future), None)
                        rec.futures.clear()
            return wrapper

        def cache_call(orig, lookup=False):
            def wrapper(self, *args):
                op = getattr(tl, "op", None)
                if op is None:
                    return orig(self, *args)
                t0 = now()
                value = orig(self, *args)
                dt = (now() - t0) * 1e6
                op.cache_us += dt
                if lookup:
                    op.lookups += 1
                    op.lookup_us += dt
                return value
            return wrapper

        self._patch(RpcNetwork, "call_async", call_async)
        self._patch(net_client, "encode_request_body", encode)
        self._patch(net_client._Channel, "submit", submit)
        self._patch(net_client._Pending, "__init__", pending_init)
        self._patch(net_client, "_recv_exact", recv_exact)
        self._patch(codec, "decode_response_body", decode_response)
        self._patch(net_client._Pending, "respond", respond)
        self._patch(RpcFuture, "set_result", set_result)
        self._patch(RpcFuture, "set_exception", set_exception)
        self._patch(RpcFuture, "wait", waiter)
        self._patch(RpcFuture, "result", waiter)
        self._patch(ClientMetaCache, "lookup_attr", lambda f: cache_call(f, lookup=True))
        self._patch(ClientMetaCache, "put_attr", cache_call)
        self._patch(ClientMetaCache, "lookup_negative", cache_call)


class TracedOpTimer(OpTimer):
    """:class:`~workloads.OpTimer` that also opens the op's trace context."""

    def __init__(self, rate_per_rank: float, probe: ClientProbe):
        super().__init__(rate_per_rank)
        self.probe = probe

    def __call__(self, log, kind, fn, *args):
        self.pace(log)
        op = self.probe.begin(kind)
        try:
            value = fn(*args)
        except Exception as exc:
            self.probe.end(op, False)
            return False, exc, op.t1 - op.t0
        self.probe.end(op, True)
        return True, value, op.t1 - op.t0


# -- daemon process --------------------------------------------------------------


class DaemonProbe:
    """Installs the daemon-process wrappers; :meth:`dump` writes them out.

    Per stamped RPC the daemon keeps one row::

        [r0, dec0, dec1, enq, depth, h0, h1, p1, kv_us, st_us, handler]

    plus per-RPC counters (kvstore calls and time, WAL bytes, storage
    calls, time and bytes) and the flush/compaction events with their
    timestamps, so the client can keep only those inside its window.
    """

    def __init__(self):
        self.rows: dict[str, list] = {}
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.events: list = []  # (kind, t0, t1)
        self._tl = threading.local()

    def install(self) -> None:
        import repro.net.server as net_server
        from repro.kvstore.lsm import LSMStore
        from repro.kvstore.wal import WriteAheadLog
        from repro.rpc.engine import RpcEngine
        from repro.rpc.threaded import ThreadedTransport
        from repro.storage.localfs import LocalFSChunkStorage

        tl, rows, counts, events = self._tl, self.rows, self.counts, self.events

        def patch(owner, name, wrapper):
            setattr(owner, name, wrapper(getattr(owner, name)))

        def dispatch(orig):
            def wrapper(self, channel, frame, body):
                tl.r0 = now()
                return orig(self, channel, frame, body)
            return wrapper

        def decode(orig):
            def wrapper(body, bulk):
                t0 = now()
                request = orig(body, bulk)
                rid = request.request_id
                if rid is not None and rid.startswith(ID_PREFIX):
                    rows[rid] = [getattr(tl, "r0", t0), t0, now(), None, 0,
                                 None, None, None, 0.0, 0.0, request.handler]
                return request
            return wrapper

        def enqueue(orig):
            def wrapper(self, request):
                row = rows.get(request.request_id) if request.request_id else None
                if row is not None:
                    row[4] = self.queue_depth(request.target)
                    row[3] = now()
                return orig(self, request)
            return wrapper

        def handle(orig):
            def wrapper(self, request):
                row = rows.get(request.request_id) if request.request_id else None
                if row is None:
                    return orig(self, request)
                row[5] = now()
                tl.rid = request.request_id
                tl.row = row
                try:
                    return orig(self, request)
                finally:
                    row[6] = now()
                    tl.row = None
            return wrapper

        def complete(orig):
            def wrapper(self, channel, seq, request, fut):
                try:
                    return orig(self, channel, seq, request, fut)
                finally:
                    row = rows.get(request.request_id) if request.request_id else None
                    if row is not None:
                        row[7] = now()
            return wrapper

        def layer_call(slot: int, layer: str, kind: str, size_arg: Optional[int] = None):
            # Times the outermost call of a layer on this thread inside a
            # stamped handler; nested calls of the same layer only count.
            def outer(orig):
                def wrapper(self, *args):
                    row = getattr(tl, "row", None)
                    if row is None or getattr(tl, layer, False):
                        return orig(self, *args)
                    setattr(tl, layer, True)
                    t0 = now()
                    try:
                        value = orig(self, *args)
                    finally:
                        dt = (now() - t0) * 1e6
                        setattr(tl, layer, False)
                    row[slot] += dt
                    c = counts[tl.rid]
                    c[f"{layer}.{kind}.calls"] += 1
                    c[f"{layer}.{kind}.us"] += dt
                    if size_arg is not None:
                        c[f"{layer}.{kind}.bytes"] += len(args[size_arg] if size_arg >= 0 else value)
                    return value
                return wrapper
            return outer

        def wal_append(orig):
            def wrapper(self, op, key, value=b""):
                row = getattr(tl, "row", None)
                if row is not None:
                    # crc(4) + op(1) + two lengths(8) + key + value
                    counts[tl.rid]["kvstore.wal_bytes"] += 13 + len(key) + len(value)
                return orig(self, op, key, value)
            return wrapper

        def background(kind: str):
            def outer(orig):
                def wrapper(self, *args):
                    t0 = now()
                    try:
                        return orig(self, *args)
                    finally:
                        events.append((kind, t0, now()))
                return wrapper
            return outer

        patch(net_server.RpcServer, "_dispatch_request", dispatch)
        patch(net_server, "decode_request_body", decode)
        patch(ThreadedTransport, "send_async", enqueue)
        patch(RpcEngine, "handle", handle)
        patch(net_server.RpcServer, "_complete", complete)
        for kind in ("put", "get", "delete", "merge"):
            patch(LSMStore, kind, layer_call(8, "kvstore", kind))
        patch(WriteAheadLog, "append", wal_append)
        patch(LSMStore, "flush", background("flush"))
        patch(LSMStore, "compact", background("compaction"))
        patch(LocalFSChunkStorage, "write_chunk", layer_call(9, "storage", "write_chunk", 3))
        patch(LocalFSChunkStorage, "read_chunk", layer_call(9, "storage", "read_chunk", -1))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"rows": self.rows, "counts": self.counts, "events": self.events}, fh
            )
