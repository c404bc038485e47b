"""Client-side socket transport: the same Transport contract, real wire.

:class:`SocketTransport` drops into the exact slot
:class:`~repro.rpc.transport.LoopbackTransport` and
:class:`~repro.rpc.threaded.ThreadedTransport` occupy: ``send`` blocks
for one response, ``send_async`` returns an
:class:`~repro.rpc.future.RpcFuture` and *never raises at issue time*.
Every layer above — retry/breaker, chaos splicing, QoS client windows,
tracing, the whole :class:`~repro.core.client.GekkoFSClient` — runs
unmodified on top.

Per daemon the transport keeps one *channel*: an RPC socket for control
frames and a bulk socket for payload, paired server-side by a HELLO
token.  Read-only bulk exposures are shipped ahead of their request on
the bulk socket; server pushes stream back on it and are landed into the
caller's real buffer by a reader thread.  A request's future resolves
only once its response frame has arrived *and* every pushed byte the
response promised has been applied — the two sockets have no mutual
ordering, so the barrier is explicit.

Failure mapping (the part :data:`~repro.rpc.transport.DELIVERY_FAILURES`
health accounting depends on):

* unknown target           → ``LookupError`` (same message as loopback)
* refused / reset / EOF /
  missing unix socket      → ``ConnectionError``
* connect or wait deadline → ``TimeoutError``
"""

from __future__ import annotations

import builtins
import itertools
import socket
import threading
import time
import uuid
from typing import Mapping, Optional

from repro.net.addr import Endpoint, create_connection, parse_endpoint
from repro.net.codec import (
    FLAG_BULK_READONLY,
    FLAG_HAS_BULK,
    FrameError,
    HEADER_SIZE,
    KIND_BULK_EXPOSE,
    KIND_BULK_PUSH,
    KIND_HELLO,
    KIND_REQUEST,
    KIND_RESPONSE,
    STATUS_ERROR,
    STATUS_FAULT,
    STATUS_OK,
    dumps,
    encode_request_body,
    pack_frame,
    unpack_header,
)
from repro.rpc.future import RpcFuture
from repro.rpc.message import RemoteError, RpcRequest, RpcResponse
from repro.rpc.transport import Transport

__all__ = ["SocketTransport", "IDEMPOTENT_HANDLERS"]

#: Handlers safe to resubmit transparently after a connection reset:
#: reads have no server-side effects, so a duplicate delivery cannot
#: double-apply.  A mutation that died mid-flight may or may not have
#: been served — its ``ConnectionError`` must surface to the layer that
#: owns retry policy (RetryingTransport / the application).
IDEMPOTENT_HANDLERS = frozenset(
    {
        "gkfs_stat",
        "gkfs_readdir",
        "gkfs_readdir_plus",
        "gkfs_read_chunk",
        "gkfs_read_chunks",
        "gkfs_statfs",
        "gkfs_metrics",
        "gkfs_chunk_digest",
        "gkfs_scan",
        "gkfs_ping",
        "gkfs_trace_dump",
        "gkfs_metrics_window",
        "gkfs_flight_dump",
    }
)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Blocking read of exactly ``count`` bytes; ConnectionError on EOF."""
    parts = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 18))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _rehydrate_fault(type_name: str, message: str) -> BaseException:
    """Rebuild a server-side fault as the nearest local exception.

    Builtin exception types come back as themselves (so ``LookupError``
    keeps counting as a delivery failure and handler bugs keep their
    class); anything else degrades to ``RuntimeError`` with the original
    type in the text.
    """
    cls = getattr(builtins, type_name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls(message)
    return RuntimeError(f"{type_name}: {message}")


class _Pending:
    """One in-flight request: response/push barrier + resolution."""

    __slots__ = ("future", "bulk", "lock", "responded", "status", "payload",
                 "pulled", "pushed_total", "applied", "done", "issued_at")

    def __init__(self, bulk):
        self.future = RpcFuture()
        self.bulk = bulk
        self.issued_at = time.monotonic()
        self.lock = threading.Lock()
        self.responded = False
        self.status = 0
        self.payload = None
        self.pulled = 0
        self.pushed_total = 0
        self.applied = 0
        self.done = False

    def apply_push(self, offset: int, data: bytes) -> None:
        with self.lock:
            if self.done:
                return
            if self.bulk is not None:
                self.bulk.push(data, offset)
            self.applied += len(data)
            resolve = self.responded and self.applied >= self.pushed_total
        if resolve:
            self._resolve()

    def respond(self, status: int, payload, pulled: int, pushed: int) -> None:
        with self.lock:
            if self.done:
                return
            self.responded = True
            self.status = status
            self.payload = payload
            self.pulled = pulled
            self.pushed_total = pushed
            resolve = self.applied >= pushed
        if resolve:
            self._resolve()

    def _resolve(self) -> None:
        with self.lock:
            if self.done:
                return
            self.done = True
        if self.bulk is not None and self.pulled:
            # Mirror the daemon-side pull accounting onto the caller's
            # handle, as an in-process transport would have.
            self.bulk.bytes_pulled += self.pulled
        bulk_bytes = self.pulled + self.pushed_total
        if self.status == STATUS_OK:
            self.future.set_result(
                RpcResponse(value=self.payload, bulk_bytes=bulk_bytes)
            )
        elif self.status == STATUS_ERROR:
            errno_, message, retry_after = self.payload
            self.future.set_result(
                RpcResponse(
                    error=RemoteError(errno_, message, retry_after),
                    bulk_bytes=bulk_bytes,
                )
            )
        else:  # STATUS_FAULT
            type_name, message = self.payload
            self.future.set_exception(_rehydrate_fault(type_name, message))

    def fail(self, exc: BaseException) -> None:
        with self.lock:
            if self.done:
                return
            self.done = True
        self.future.set_exception(exc)


class _Channel:
    """One daemon's paired rpc/bulk connections plus in-flight table."""

    def __init__(self, target: int, endpoint: Endpoint, timeout: float):
        self.target = target
        token = uuid.uuid4().hex
        self.rpc = create_connection(endpoint, timeout)
        try:
            self.rpc.sendall(pack_frame(KIND_HELLO, 0, dumps(("rpc", token))))
            self.bulk = create_connection(endpoint, timeout)
        except BaseException:
            self.rpc.close()
            raise
        try:
            self.bulk.sendall(pack_frame(KIND_HELLO, 0, dumps(("bulk", token))))
        except BaseException:
            self.rpc.close()
            self.bulk.close()
            raise
        self.seq = itertools.count(1)
        self.pending: dict[int, _Pending] = {}
        self.lock = threading.Lock()  # pending table + liveness
        self.rpc_wlock = threading.Lock()
        self.bulk_wlock = threading.Lock()
        self.dead = False
        self._readers = [
            threading.Thread(
                target=self._read_loop, args=(self.rpc, False),
                daemon=True, name=f"gkfs-net-c{target}-rpc",
            ),
            threading.Thread(
                target=self._read_loop, args=(self.bulk, True),
                daemon=True, name=f"gkfs-net-c{target}-bulk",
            ),
        ]
        for reader in self._readers:
            reader.start()

    # -- submission ----------------------------------------------------------

    def submit(self, request: RpcRequest) -> RpcFuture:
        body = encode_request_body(request)  # TypeError propagates to caller
        flags = 0
        aux1 = 0
        exposure: Optional[bytes] = None
        if request.bulk is not None:
            flags |= FLAG_HAS_BULK
            aux1 = len(request.bulk)
            if request.bulk.readonly:
                flags |= FLAG_BULK_READONLY
                exposure = bytes(request.bulk._view)
        pending = _Pending(request.bulk)
        with self.lock:
            if self.dead:
                raise ConnectionError(
                    f"connection to daemon {self.target} lost"
                )
            seq = next(self.seq)
            self.pending[seq] = pending
        try:
            if exposure is not None:
                with self.bulk_wlock:
                    self.bulk.sendall(
                        pack_frame(KIND_BULK_EXPOSE, seq, exposure)
                    )
            with self.rpc_wlock:
                self.rpc.sendall(
                    pack_frame(KIND_REQUEST, seq, body, flags=flags, aux1=aux1)
                )
        except OSError as exc:
            self._die(ConnectionError(
                f"connection to daemon {self.target} lost mid-request: {exc}"
            ))
        return pending.future

    # -- receive side --------------------------------------------------------

    def _read_loop(self, sock: socket.socket, is_bulk: bool) -> None:
        try:
            while True:
                frame = unpack_header(_recv_exact(sock, HEADER_SIZE))
                body = _recv_exact(sock, frame.body_len) if frame.body_len else b""
                if is_bulk and frame.kind == KIND_BULK_PUSH:
                    pending = self._lookup(frame.seq)
                    if pending is not None:
                        pending.apply_push(frame.aux1, body)
                elif not is_bulk and frame.kind == KIND_RESPONSE:
                    pending = self._pop_if_no_pushes_due(frame)
                    if pending is not None:
                        from repro.net.codec import decode_response_body

                        status, payload = decode_response_body(body)
                        pending.respond(status, payload, frame.aux1, frame.aux2)
                else:
                    raise FrameError(
                        f"unexpected frame kind {frame.kind} on "
                        f"{'bulk' if is_bulk else 'rpc'} socket"
                    )
        except (OSError, FrameError) as exc:
            self._die(ConnectionError(
                f"connection to daemon {self.target} lost: {exc}"
            ))

    def _lookup(self, seq: int) -> Optional[_Pending]:
        with self.lock:
            return self.pending.get(seq)

    def _pop_if_no_pushes_due(self, frame) -> Optional[_Pending]:
        """Fetch the pending entry for a response, retiring it when no
        (more) pushes are expected.  Entries still waiting on pushed bytes
        stay in the table so the bulk reader can find them; they retire
        when the last push lands."""
        with self.lock:
            pending = self.pending.get(frame.seq)
            if pending is None:
                return None
            if frame.aux2 == 0 or pending.applied >= frame.aux2:
                del self.pending[frame.seq]
            else:
                pending.future.add_done_callback(
                    lambda _fut, s=frame.seq: self._retire(s)
                )
        return pending

    def _retire(self, seq: int) -> None:
        with self.lock:
            self.pending.pop(seq, None)

    def fail_overdue(self, cutoff: float) -> int:
        """Fail every in-flight request issued at/before ``cutoff``.

        The stall watchdog's teeth: a hung-but-connected daemon (think
        SIGSTOP) keeps its sockets alive, so ``_die`` never fires and,
        before per-call timeouts existed, callers blocked until the sync
        deadline while the breaker saw nothing.  Overdue entries are
        popped from the table and failed with ``TimeoutError`` — a
        :data:`~repro.rpc.transport.DELIVERY_FAILURES` member, so the
        retry/breaker layer records the stall as health evidence.  A late
        response for a failed entry is ignored by the ``done`` guard.
        """
        stalled = []
        with self.lock:
            if self.dead:
                return 0
            for seq, pending in list(self.pending.items()):
                if pending.issued_at <= cutoff and not pending.done:
                    del self.pending[seq]
                    stalled.append(pending)
        for pending in stalled:
            pending.fail(TimeoutError(
                f"RPC to daemon {self.target} stalled past the per-call "
                f"timeout (daemon hung or unresponsive)"
            ))
        return len(stalled)

    def _die(self, exc: ConnectionError) -> None:
        with self.lock:
            if self.dead:
                pending = {}
            else:
                self.dead = True
                pending, self.pending = self.pending, {}
        for sock in (self.rpc, self.bulk):
            try:
                sock.close()
            except OSError:
                pass
        for entry in pending.values():
            entry.fail(ConnectionError(str(exc)))

    def close(self) -> None:
        self._die(ConnectionError(f"transport to daemon {self.target} closed"))


class SocketTransport(Transport):
    """Deliver RPCs to socket-served daemons.

    :param addresses: daemon address → endpoint spec (any spelling
        :func:`~repro.net.addr.parse_endpoint` accepts).  May be grown
        after construction via :meth:`add_daemon`.
    :param connect_timeout: per-connect deadline; expiry surfaces as
        ``TimeoutError``.
    :param request_timeout: synchronous :meth:`send` deadline; the async
        path leaves deadlines to the caller (``wait_all`` owns them).
    :param call_timeout: optional per-call stall deadline enforced by a
        watchdog thread on **every** in-flight request, async included.
        A request older than this fails with ``TimeoutError`` even while
        its sockets stay connected — the hung-daemon (SIGSTOP) case —
        so the circuit breaker opens on stalls, not just resets.
        ``None`` (default) keeps the legacy no-watchdog behaviour.
    """

    def __init__(
        self,
        addresses: Mapping[int, object],
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        call_timeout: Optional[float] = None,
    ):
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError(f"call_timeout must be > 0, got {call_timeout}")
        self._endpoints: dict[int, Endpoint] = {
            target: parse_endpoint(spec) for target, spec in addresses.items()
        }
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._call_timeout = call_timeout
        self._channels: dict[int, _Channel] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Transparent idempotent-call resubmissions performed (telemetry).
        self.reconnects = 0
        #: In-flight calls failed by the stall watchdog (telemetry).
        self.stalled_calls = 0
        self._watchdog_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if call_timeout is not None:
            self._watchdog = threading.Thread(
                target=self._watch_stalls, daemon=True, name="gkfs-net-watchdog"
            )
            self._watchdog.start()

    def _watch_stalls(self) -> None:
        interval = max(min(self._call_timeout / 4.0, 0.25), 0.005)
        while not self._watchdog_stop.wait(interval):
            cutoff = time.monotonic() - self._call_timeout
            with self._lock:
                channels = list(self._channels.values())
            for channel in channels:
                self.stalled_calls += channel.fail_overdue(cutoff)

    def add_daemon(self, target: int, spec) -> None:
        """Register (or re-point) one daemon's endpoint."""
        with self._lock:
            self._endpoints[target] = parse_endpoint(spec)
            stale = self._channels.pop(target, None)
        if stale is not None:
            stale.close()

    def endpoint(self, target: int) -> Endpoint:
        return self._endpoints[target]

    def _channel(self, target: int) -> _Channel:
        with self._lock:
            if self._closed:
                raise ConnectionError("transport is closed")
            channel = self._channels.get(target)
            if channel is not None and not channel.dead:
                return channel
            try:
                endpoint = self._endpoints[target]
            except KeyError:
                raise LookupError(f"no daemon at address {target}") from None
            channel = _Channel(target, endpoint, self._connect_timeout)
            self._channels[target] = channel
            return channel

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """Deliver one request; never raises at issue time.

        Idempotent (read-only) calls that die to a reset/closed
        connection — the peer daemon restarted, or an idle channel was
        dropped — are transparently resubmitted **once** over a freshly
        built channel before the ``ConnectionError`` surfaces.  The
        reconnect count is visible as :attr:`reconnects`.
        """
        future = self._issue(request)
        if request.handler not in IDEMPOTENT_HANDLERS:
            return future
        outer = RpcFuture()

        def on_done(fut: RpcFuture) -> None:
            exc = fut.exception(0)
            if isinstance(exc, ConnectionError) and not self._closed:
                # _channel() sees the dead channel and rebuilds it.
                self.reconnects += 1
                self._issue(request).add_done_callback(outer._adopt)
            else:
                outer._adopt(fut)

        future.add_done_callback(on_done)
        return outer

    def _issue(self, request: RpcRequest) -> RpcFuture:
        try:
            channel = self._channel(request.target)
            return channel.submit(request)
        except socket.timeout as exc:  # alias of TimeoutError on py>=3.10
            return RpcFuture.failed(TimeoutError(
                f"connect to daemon {request.target} timed out: {exc}"
            ))
        except (LookupError, ConnectionError, TimeoutError) as exc:
            return RpcFuture.failed(exc)
        except FileNotFoundError as exc:
            return RpcFuture.failed(ConnectionError(
                f"daemon {request.target} socket missing: {exc}"
            ))
        except OSError as exc:
            return RpcFuture.failed(ConnectionError(
                f"cannot reach daemon {request.target}: {exc}"
            ))
        except Exception as exc:  # e.g. un-encodable args
            return RpcFuture.failed(exc)

    def send(self, request: RpcRequest) -> RpcResponse:
        return self.send_async(request).result(self._request_timeout)

    def shutdown(self) -> None:
        """Close every channel; in-flight requests fail as lost connections."""
        self._watchdog_stop.set()
        with self._lock:
            self._closed = True
            channels, self._channels = list(self._channels.values()), {}
        for channel in channels:
            channel.close()

    close = shutdown

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
