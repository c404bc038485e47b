"""Socket deployments: address books, in-process servers, real processes.

Three pieces, layered:

* :class:`SocketDeployment` — the *client side* of a socket cluster: an
  address book (daemon id → endpoint), the full client transport stack
  (sockets → retry/breaker → instrumentation, identical wiring to
  :class:`~repro.core.cluster.GekkoFSCluster`), the membership view its
  epoch-stamped clients route through, and a client factory.  This is
  GekkoFS's hosts file made live: any process that can parse the address
  book can mount the file system.
* :class:`LocalSocketCluster` — every daemon in *this* process, each
  behind a real socket.  The whole wire stack without process
  management; what tests and single-process baselines use.
* :class:`ProcessCluster` — one OS process per daemon (``repro serve``
  children), bound ports scraped from their READY lines.  The paper's
  actual deployment shape: daemons with private memory on separate
  cores, clients reaching them only through the fabric.  It grows and
  shrinks live (:meth:`ProcessCluster.resize_live`) through the
  wire-only replica engine of :mod:`repro.core.resize`.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.core.client import GekkoFSClient
from repro.core.cluster import node_dir
from repro.core.config import FSConfig
from repro.core.distributor import Distributor, SimpleHashDistributor
from repro.core.membership import EpochStampedNetwork, MembershipView
from repro.core.metadata import new_dir_metadata
from repro.net.client import SocketTransport
from repro.net.serve import (
    READY_PREFIX,
    ServedDaemon,
    config_to_json,
    start_daemon,
)
from repro.qos import ClientPort
from repro.rpc import (
    DaemonHealthTracker,
    InstrumentedTransport,
    RetryingTransport,
    RpcNetwork,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.resize import MigrationReport

__all__ = [
    "SocketDeployment",
    "LocalSocketCluster",
    "ProcessCluster",
]


class SocketDeployment:
    """Mount a socket-served cluster: address book in, clients out.

    :param addresses: daemon address → endpoint spec (any spelling
        :func:`~repro.net.addr.parse_endpoint` accepts).  Daemon
        addresses must be ``0..n-1`` — placement hashes over that range.
    :param config: must match what the daemons were started with (the
        hosts-file contract; chunk size and feature flags are not
        negotiated over the wire).
    :param instrument: wrap the transport for RPC-count inspection.
    """

    def __init__(
        self,
        addresses: Mapping[int, object],
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ):
        if not addresses:
            raise ValueError("address book is empty")
        self.config = config or FSConfig()
        self.num_nodes = len(addresses)
        if sorted(addresses) != list(range(self.num_nodes)):
            raise ValueError(
                f"daemon addresses must be 0..{self.num_nodes - 1}, "
                f"got {sorted(addresses)}"
            )
        distributor = distributor or SimpleHashDistributor(self.num_nodes)
        if distributor.num_daemons != self.num_nodes:
            raise ValueError(
                f"distributor spans {distributor.num_daemons} daemons, "
                f"address book has {self.num_nodes}"
            )
        #: The versioned placement every client routes through, so a
        #: live resize reaches them without a rebuild (see
        #: :mod:`repro.core.membership`).
        self.view = MembershipView(distributor)
        self.network = RpcNetwork()
        self.trace_collector = None
        if self.config.telemetry_enabled:
            from repro.telemetry.spans import TraceCollector

            self.trace_collector = TraceCollector()
            self.network.tracer = self.trace_collector
        self.socket_transport = SocketTransport(
            addresses,
            connect_timeout=connect_timeout,
            request_timeout=request_timeout,
            call_timeout=self.config.rpc_call_timeout,
        )
        self.network.transport = self.socket_transport
        # Same fault-tolerance wiring as the in-process cluster: one fused
        # retry/breaker transport, instrumentation outermost.
        self.health: Optional[DaemonHealthTracker] = None
        if self.config.breaker_enabled:
            self.health = DaemonHealthTracker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown=self.config.breaker_cooldown,
            )
        self.retrying: Optional[RetryingTransport] = None
        if (
            self.config.rpc_retries > 0
            or self.config.rpc_deadline is not None
            or self.health is not None
        ):
            self.retrying = RetryingTransport(
                self.network.transport,
                max_attempts=self.config.rpc_retries + 1,
                backoff_base=self.config.rpc_backoff_base,
                backoff_max=self.config.rpc_backoff_max,
                deadline=self.config.rpc_deadline,
                tracker=self.health,
            )
            self.network.transport = self.retrying
        self.transport: Optional[InstrumentedTransport] = None
        if instrument:
            self.transport = InstrumentedTransport(self.network.transport)
            self.network.transport = self.transport
        self._client_ids = itertools.count()

    @property
    def distributor(self) -> Distributor:
        """The authoritative placement (the view's, so it follows resizes)."""
        return self.view.distributor

    def client(self, node_id: int = 0) -> GekkoFSClient:
        """A client as it would run on ``node_id`` (same semantics as
        :meth:`repro.core.cluster.GekkoFSCluster.client`): epoch-stamped,
        placement from the live view, writes parked at the freeze gate."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id {node_id} out of range [0, {self.num_nodes})")
        network = self.network
        if self.config.qos_enabled:
            network = ClientPort(
                self.network,
                next(self._client_ids),
                window_enabled=self.config.qos_window_enabled,
                window_initial=self.config.qos_window_initial,
                window_max=self.config.qos_window_max,
                throttle_retries=self.config.qos_throttle_retries,
            )
        network = EpochStampedNetwork(network, self.view)
        return GekkoFSClient(network, self.view, self.config, node_id)

    def add_daemon(self, address: int, spec) -> None:
        """Register (or re-point) one daemon endpoint in the live address
        book — the restart and live-join path.

        Re-pointing an existing address drops any stale channel, so the
        next RPC connects to the replacement process.  A brand-new
        address grows ``num_nodes``; note the *placement* does not change
        until the deployment owner installs a distributor spanning the
        new count (and migrates — see ``core.resize``): until then the
        joined daemon serves no hashed shard.
        """
        self.socket_transport.add_daemon(address, spec)
        if self.health is not None:
            self.health.reset(address)
        if address >= self.num_nodes:
            self.num_nodes = address + 1
        if self.view.epoch:
            # A (re)started daemon must enforce the current epoch floor
            # like its peers, or retired clients could write through it.
            self.network.call(address, "gkfs_set_epoch", self.view.epoch)

    def format(self) -> None:
        """Create the root directory record on its owner daemon(s).

        Idempotent (``gkfs_create`` without ``O_EXCL`` keeps an existing
        record), so every launcher and late-joining client may call it.
        """
        root_md = new_dir_metadata(maintain_times=self.config.maintain_mtime)
        dist = self.distributor
        for address in dist.replica_set(
            dist.locate_metadata("/"), self.config.replication
        ):
            self.network.call(address, "gkfs_create", "/", root_md.encode(), False)

    def shutdown(self) -> None:
        self.socket_transport.shutdown()

    def __enter__(self) -> "SocketDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _SocketClusterBase:
    """Shared client-facing surface of the two socket cluster shapes."""

    deployment: SocketDeployment

    @property
    def config(self) -> FSConfig:
        return self.deployment.config

    @property
    def num_nodes(self) -> int:
        return self.deployment.num_nodes

    @property
    def distributor(self) -> Distributor:
        return self.deployment.distributor

    @property
    def view(self) -> MembershipView:
        return self.deployment.view

    @property
    def network(self) -> RpcNetwork:
        return self.deployment.network

    @property
    def transport(self) -> Optional[InstrumentedTransport]:
        return self.deployment.transport

    def client(self, node_id: int = 0) -> GekkoFSClient:
        return self.deployment.client(node_id)

    def _wipe(self) -> None:
        for base in (self.config.kv_dir, self.config.data_dir):
            if base is not None and os.path.isdir(base):
                shutil.rmtree(base, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()  # type: ignore[attr-defined]


class LocalSocketCluster(_SocketClusterBase):
    """Every daemon in this process, each behind a real socket.

    Exercises the complete wire stack — framing, bulk channel, failure
    mapping — without forking; daemons stay reachable as objects
    (``served[i].daemon``) for white-box assertions.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        handlers_per_daemon: int = 4,
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        config = config or FSConfig()
        self._handlers_per_daemon = handlers_per_daemon
        self.served: list[ServedDaemon] = []
        try:
            for node in range(num_nodes):
                self.served.append(
                    start_daemon(config, node, handlers=handlers_per_daemon)
                )
            self.deployment = SocketDeployment(
                {s.daemon.address: s.address_spec for s in self.served},
                config=config,
                distributor=distributor,
                instrument=instrument,
            )
            self.deployment.format()
        except BaseException:
            for served in self.served:
                served.stop(drain=False)
            raise
        self._crashed: set[int] = set()
        self._running = True

    def crash_daemon(self, address: int) -> None:
        """Crash-stop one daemon: its sockets die abruptly, in-flight
        requests fail as lost connections, volatile state is gone."""
        if address in self._crashed:
            raise RuntimeError(f"daemon {address} is already crashed")
        self._crashed.add(address)
        self.served[address].stop(drain=False)

    def daemon_alive(self, address: int) -> bool:
        return address not in self._crashed

    def restart_daemon(self, address: int) -> str:
        """Rebuild a crashed daemon under the same identity (fresh port).

        The replacement reopens the same ``kv_dir``/``data_dir``; with
        in-memory stores it comes back empty — restoring redundancy from
        its replicas is the caller's job (see ``selfheal.WireRepairer``).
        Returns the new endpoint spec.
        """
        if address not in self._crashed:
            raise RuntimeError(
                f"daemon {address} is still running; crash it first"
            )
        served = start_daemon(
            self.config, address, handlers=self._handlers_per_daemon
        )
        self.served[address] = served
        self._crashed.discard(address)
        self.deployment.add_daemon(address, served.address_spec)
        return served.address_spec

    def shutdown(self, wipe: bool = True) -> None:
        if not self._running:
            return
        self._running = False
        self.deployment.shutdown()
        for address, served in enumerate(self.served):
            if address not in self._crashed:
                served.stop(drain=True)
        if wipe:
            self._wipe()


class _Pump(threading.Thread):
    """Drain one child stream, scraping the READY line and keeping a tail."""

    def __init__(self, stream, name: str):
        super().__init__(daemon=True, name=name)
        self.stream = stream
        self.ready_addr: Optional[str] = None
        self.ready_event = threading.Event()
        self.tail: deque = deque(maxlen=50)
        self.start()

    def run(self) -> None:
        try:
            for line in self.stream:
                line = line.rstrip("\n")
                self.tail.append(line)
                if line.startswith(READY_PREFIX):
                    for token in line.split():
                        if token.startswith("addr="):
                            self.ready_addr = token[len("addr="):]
                    self.ready_event.set()
        finally:
            self.ready_event.set()  # EOF: unblock waiters (crash case)
            try:
                self.stream.close()
            except OSError:
                pass


class ProcessCluster(_SocketClusterBase):
    """One OS process per daemon — real multi-process deployment.

    Children run ``repro serve`` with an OS-assigned port each; the
    launcher scrapes bound endpoints from their READY lines, builds the
    address book, and formats the root record over the wire.  Teardown
    is SIGTERM + drain by default (exit code 0); :meth:`kill_daemon` is
    the crash path.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        handlers_per_daemon: int = 4,
        python: str = sys.executable,
        startup_timeout: float = 30.0,
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        config = config or FSConfig()
        self._config_json = config_to_json(config)
        self._python = python
        self._handlers_per_daemon = handlers_per_daemon
        self._startup_timeout = startup_timeout
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        self._env = env
        self.processes: list[subprocess.Popen] = []
        self._pumps: list[tuple[_Pump, _Pump]] = []
        try:
            addresses = self._spawn(range(num_nodes))
            self.deployment = SocketDeployment(
                addresses,
                config=config,
                distributor=distributor,
                instrument=instrument,
            )
            self.deployment.format()
        except BaseException:
            for proc in self.processes:
                if proc.poll() is None:
                    proc.kill()
            for proc in self.processes:
                proc.wait()
            raise
        self._running = True

    def _launch(self, node: int) -> tuple[subprocess.Popen, tuple[_Pump, _Pump]]:
        """Fork one ``repro serve`` child for daemon ``node``."""
        proc = subprocess.Popen(
            [
                self._python, "-m", "repro", "serve",
                "--daemon-id", str(node),
                "--addr", "127.0.0.1:0",
                "--handlers", str(self._handlers_per_daemon),
                "--config-json", self._config_json,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._env,
        )
        return proc, (
            _Pump(proc.stdout, f"gkfs-pump-out-{node}"),
            _Pump(proc.stderr, f"gkfs-pump-err-{node}"),
        )

    def _spawn(self, nodes) -> dict[int, str]:
        """Fork daemons ``nodes`` together and wait for every READY line.

        Each child takes its slot in :attr:`processes`/:attr:`_pumps`
        (replaced, or appended for a brand-new address).  Returns
        ``{node: bound endpoint}``; if any child fails to come up, the
        whole batch is killed and ``RuntimeError`` raised.
        """
        batch = []
        for node in nodes:  # slot each child at once: failures can reap it
            proc, pumps = self._launch(node)
            if node < len(self.processes):
                self.processes[node] = proc
                self._pumps[node] = pumps
            else:
                self.processes.append(proc)
                self._pumps.append(pumps)
            batch.append((node, proc, pumps))
        specs = {}
        deadline = time.monotonic() + self._startup_timeout
        for node, _proc, (out_pump, err_pump) in batch:
            remaining = deadline - time.monotonic()
            if not out_pump.ready_event.wait(max(0.0, remaining)) or (
                out_pump.ready_addr is None
            ):
                for _node, proc, _pumps in batch:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
                raise RuntimeError(
                    f"daemon {node} did not come up within "
                    f"{self._startup_timeout}s; stderr tail: "
                    f"{list(err_pump.tail)[-5:]}"
                )
            specs[node] = out_pump.ready_addr
        return specs

    def restart_daemon(self, address: int) -> str:
        """Respawn a dead daemon under the same identity and re-point the
        address book at its fresh port.

        The child reopens the same ``kv_dir``/``data_dir`` (the config is
        identical), so a disk-backed KV replays its WAL and chunk storage
        rescans — everything that reached durable state before the crash
        is served again.  Returns the new endpoint spec.
        """
        proc = self.processes[address]
        if proc.poll() is None:
            raise RuntimeError(
                f"daemon {address} is still running (pid {proc.pid}); "
                f"kill or terminate it first"
            )
        spec = self._spawn([address])[address]
        self.deployment.add_daemon(address, spec)
        return spec

    def add_daemon(self) -> int:
        """Live join: fork one more ``repro serve`` child and register it.

        Returns the new daemon's address.  Placement is unchanged until
        the caller installs a wider distributor and migrates (see
        :meth:`resize_live`).
        """
        node = len(self.processes)
        self.deployment.add_daemon(node, self._spawn([node])[node])
        return node

    def resize_live(
        self,
        new_num_nodes: int,
        distributor_factory: Optional[Callable[[int], Distributor]] = None,
        *,
        rate: Optional[float] = None,
        verify: Optional[bool] = None,
    ) -> "MigrationReport":
        """Grow or shrink **online**: clients keep serving throughout.

        The multi-process twin of
        :meth:`~repro.core.cluster.GekkoFSCluster.resize_live`: joins new
        daemon processes first (live join, as :meth:`add_daemon`), then drives
        :func:`~repro.core.resize.live_migrate` purely over the wire —
        the replica engine's scans and copies, ``gkfs_set_epoch`` seals
        and ``gkfs_flight_dump`` snapshots are all RPCs.  On shrink the
        drained daemons are terminated afterwards.  Any failure before
        the flip aborts with the old placement authoritative.
        """
        from repro.core.resize import check_drained, live_migrate

        if new_num_nodes <= 0:
            raise ValueError(f"new_num_nodes must be > 0, got {new_num_nodes}")
        dead = [a for a in range(len(self.processes)) if not self.daemon_alive(a)]
        if dead:
            raise RuntimeError(
                f"cannot resize with dead daemons {dead}; restart them first"
            )
        factory = distributor_factory or type(self.distributor)
        new_distributor = factory(new_num_nodes)
        if new_distributor.num_daemons != new_num_nodes:
            raise ValueError("distributor_factory produced a mismatched span")
        # Live join, all at once: the new daemons start in parallel.
        joining = range(len(self.processes), new_num_nodes)
        for node, spec in self._spawn(joining).items():
            self.deployment.add_daemon(node, spec)
        report = live_migrate(
            self.deployment, new_distributor, rate=rate, verify=verify
        )
        retired = range(new_num_nodes, len(self.processes))
        check_drained(self.deployment, retired)
        for address in retired:
            self.terminate_daemon(address)
        del self.processes[new_num_nodes:]
        del self._pumps[new_num_nodes:]
        self.deployment.num_nodes = new_num_nodes
        return report

    def daemon_pid(self, address: int) -> int:
        return self.processes[address].pid

    def daemon_alive(self, address: int) -> bool:
        """Whether the child process still exists (a SIGSTOPped daemon
        counts as alive — it is hung, not dead)."""
        return self.processes[address].poll() is None

    def suspend_daemon(self, address: int) -> None:
        """SIGSTOP one daemon: hung-but-connected.  Its sockets stay
        open, so without per-call timeouts clients would stall silently.

        Returns only once the kernel reports the process stopped:
        ``kill(2)`` returns when the signal is *generated*, not
        *delivered*, so a daemon still runnable for a few more
        microseconds could answer one last RPC after this call.
        """
        pid = self.daemon_pid(address)
        os.kill(pid, signal.SIGSTOP)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat", "rb") as f:
                    state = f.read().rsplit(b")", 1)[1].split()[0]
            except OSError:
                return  # no /proc or process gone: best effort
            if state in (b"T", b"t"):
                return
            time.sleep(0.001)

    def resume_daemon(self, address: int) -> None:
        """SIGCONT a suspended daemon."""
        os.kill(self.daemon_pid(address), signal.SIGCONT)

    def replace_daemon(self, address: int) -> str:
        """Crash-replace one daemon with a *blank* successor.

        Force-kills the child if it still exists (covers the hung case —
        a SIGSTOPped process cannot drain), wipes its node-local
        ``kv_dir``/``data_dir`` so the replacement starts empty, and
        respawns under the same identity.  Restoring redundancy from the
        surviving replicas is the caller's job (``selfheal.WireRepairer``
        or ``core.resize.rereplicate``).  Returns the new
        endpoint spec.
        """
        proc = self.processes[address]
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for base in (self.config.kv_dir, self.config.data_dir):
            directory = node_dir(base, address)
            if directory is not None and os.path.isdir(directory):
                shutil.rmtree(directory, ignore_errors=True)
        spec = self._spawn([address])[address]
        self.deployment.add_daemon(address, spec)
        return spec

    def terminate_daemon(self, address: int, timeout: float = 15.0) -> int:
        """SIGTERM one daemon and wait for its graceful drain; returns
        the child's exit code (0 = clean)."""
        proc = self.processes[address]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        return proc.wait(timeout)

    def kill_daemon(self, address: int) -> None:
        """SIGKILL one daemon — a crash, no drain, no KV flush."""
        proc = self.processes[address]
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def shutdown(self, wipe: bool = True) -> None:
        if not getattr(self, "_running", False):
            return
        self._running = False
        self.deployment.shutdown()
        for proc in self.processes:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15.0
        for proc in self.processes:
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if wipe:
            self._wipe()
