"""The four workloads: the paper's mdtest and IOR op mixes plus a cached stat storm.

Every workload runs as 2 closed-loop ranks (threads), each with its own
``GekkoFSClient`` and a per-workload rate cap (see :class:`OpTimer`).  A
run is a sequence of *iterations*; an iteration is a
fixed list of *phases*, and every phase issues exactly one op kind.  Ranks
meet at a barrier between phases, the way mdtest and IOR separate their
phases, so a phase's wall time is the time from the barrier that opens it
to the barrier that closes it.  The run only stops at an iteration
boundary, which keeps per-op RPC and byte counts identical from run to
run: every iteration issues the same requests, only the data and the
names differ (names are fixed-width).

Correctness is checked inside the run.  A wrong result does not raise:
the op is counted as failed and its latency as infinite, so it misses
every latency percentile.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import threading
import time
from collections import Counter
from typing import Callable

from repro.common.errors import NotFoundError

OP_KINDS = ("create", "stat", "remove", "pwrite", "pread")

KiB = 1024
MiB = 1024 * KiB


class RankLog:
    """One rank's latencies (seconds) per op kind; a failure reads as inf."""

    def __init__(self):
        self.lat: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
        self.failed: Counter = Counter()
        self.user_bytes: Counter = Counter()
        self.due = 0.0  # earliest start of the rank's next op
        self.late = 0  # ops started more than LATE_AFTER behind schedule
        # Per iteration: where each kind's latencies start in ``lat``.
        self.marks: list[dict[str, int]] = []

    def begin_iteration(self) -> None:
        self.marks.append({kind: len(lat) for kind, lat in self.lat.items()})

    def iteration(self, kind: str, i: int) -> list[float]:
        """The latencies one iteration recorded for ``kind``."""
        lat = self.lat[kind]
        end = self.marks[i + 1][kind] if i + 1 < len(self.marks) else len(lat)
        return lat[self.marks[i][kind]:end]

    def record(self, kind: str, seconds: float, ok: bool) -> int:
        """Store one op's outcome; returns its index for a later :meth:`void`."""
        lat = self.lat[kind]
        lat.append(seconds if ok else math.inf)
        if not ok:
            self.failed[kind] += 1
        return len(lat) - 1

    def void(self, kind: str, index: int) -> None:
        """Mark an op that a later check found wrong as failed."""
        if self.lat[kind][index] != math.inf:
            self.lat[kind][index] = math.inf
            self.failed[kind] += 1


#: An op that starts this much behind its rank's schedule counts as late.
LATE_AFTER = 0.002


class OpTimer:
    """Paces a rank and times one op around the call into the client.

    Ranks are closed loops with a rate cap: each waits for its reply, and
    starts op *k* no earlier than *k* periods after its phase began.  An
    op more than :data:`LATE_AFTER` behind schedule is counted and the
    schedule restarts from it, so a stall never turns into a burst.

    The traced run substitutes a subclass that also opens the op's
    tracing context.
    """

    def __init__(self, rate_per_rank: float):
        self.period = 1.0 / rate_per_rank

    def pace(self, log: RankLog) -> None:
        ahead = log.due - time.perf_counter()
        if ahead > 0:
            time.sleep(ahead)
        elif ahead < -LATE_AFTER:
            log.late += 1
            log.due -= ahead
        log.due += self.period

    def __call__(self, log: RankLog, kind: str, fn: Callable, *args):
        """Run ``fn(*args)``; returns ``(ok, value, seconds)``."""
        self.pace(log)
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # counted as a failed op, never raised
            return False, exc, time.perf_counter() - t0
        return True, value, time.perf_counter() - t0


def steal_ticks() -> int:
    """Clock ticks, summed over CPUs, the hypervisor gave to other guests."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8])


#: An iteration is *quiet* when the hypervisor stole at most this share
#: of the host's CPU time while it ran.  Steal comes in bursts that slow
#: an iteration several-fold, and it is no property of the code measured.
QUIET_STEAL_SHARE = 0.02
#: A run lasts until its quiet iterations add up to the requested
#: seconds, but never longer than this multiple of them.
MAX_STRETCH = 4.0


class PhaseClock:
    """Barrier between phases that also accounts each phase's wall time.

    Every rank calls :meth:`sync` with the same label: the phase that
    begins once all ranks arrive (``None`` for untimed work such as
    checks).  The barrier action, which runs in exactly one thread,
    closes the previous phase and opens the next, and at each iteration
    boundary decides whether to stop: once the quiet iterations hold
    ``seconds`` of timed wall, or once ``MAX_STRETCH * seconds`` passed.
    """

    def __init__(self, ranks: int, seconds: float):
        self.seconds = seconds
        self.phase_wall: list[Counter] = []  # per iteration: kind -> seconds
        self.iteration_wall: list[float] = []  # timed wall of each iteration
        self.iteration_steal: list[int] = []  # steal ticks during those phases
        self.stop = False
        self.iterations = 0
        self.window = [None, None]  # first phase start, last phase end
        self._ticks_per_s = os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
        self._quiet_wall = 0.0
        self._start = time.perf_counter()
        self._next = None
        self._current = None
        self._t = 0.0
        self._steal = 0
        self._barrier = threading.Barrier(ranks, action=self._turn, timeout=120.0)

    def quiet(self, i: int) -> bool:
        wall = self.iteration_wall[i]
        return self.iteration_steal[i] <= QUIET_STEAL_SHARE * wall * self._ticks_per_s

    def selected(self) -> list[int]:
        """Iterations the figures are computed from: the quietest ones
        (lowest steal rate, earliest first on ties) until their wall
        reaches the requested seconds."""
        order = sorted(
            range(self.iterations),
            key=lambda i: (self.iteration_steal[i] / self.iteration_wall[i], i),
        )
        chosen, wall = [], 0.0
        for i in order:
            if wall >= self.seconds:
                break
            chosen.append(i)
            wall += self.iteration_wall[i]
        return sorted(chosen)

    def _turn(self) -> None:
        now = time.perf_counter()
        steal = steal_ticks()
        if self._current is not None:
            self.phase_wall[-1][self._current] += now - self._t
            self.iteration_wall[-1] += now - self._t
            self.iteration_steal[-1] += steal - self._steal
            self.window[1] = now
        if self._next == "iteration":
            if self.iterations and self.quiet(self.iterations - 1):
                self._quiet_wall += self.iteration_wall[-1]
            self.stop = self.iterations > 0 and (
                self._quiet_wall >= self.seconds
                or now - self._start >= MAX_STRETCH * self.seconds
            )
            if not self.stop:
                self.iterations += 1
                self.phase_wall.append(Counter())
                self.iteration_wall.append(0.0)
                self.iteration_steal.append(0)
            self._current = None
        else:
            self._current = self._next
            if self._current is not None and self.window[0] is None:
                self.window[0] = now
        self._t = now
        self._steal = steal

    def sync(self, label) -> None:
        self._next = label
        self._barrier.wait()

    def abort(self) -> None:
        self._barrier.abort()


class Workload:
    """Base: a name, a config, a namespace preload, and per-phase op loops."""

    name = ""
    phases: tuple = ()
    config: dict = {}
    #: Ops per second one rank may issue: about half of what the
    #: deployment sustains on a 2-vCPU host (see README.md).
    rate_per_rank = 0.0

    def __init__(self, seed: int, ranks: int):
        self.seed = seed
        self.ranks = ranks

    def preload(self, clients) -> None:
        """Untimed set-up of the namespace the phases work on."""

    def phase(self, kind: str, rank: int, client, it: int, log: RankLog, op: OpTimer) -> None:
        raise NotImplementedError

    def check(self, rank: int, client, it: int, log: RankLog) -> None:
        """Untimed correctness checks after the iteration's phases."""

    def close(self, clients) -> None:
        """Release descriptors the preload opened."""


class MdTest(Workload):
    """Zero-byte files in one shared directory: create, stat, remove."""

    name = "mdtest"
    phases = ("create", "stat", "remove")
    files_per_rank = 64
    rate_per_rank = 700.0

    def _path(self, rank: int, it: int, j: int) -> str:
        return f"/gkfs/mdtest/r{rank}.i{it:06d}.f{j:05d}"

    def preload(self, clients) -> None:
        clients[0].mkdir("/gkfs/mdtest")
        self._removed: dict[int, list] = {}

    def phase(self, kind, rank, client, it, log, op):
        n = self.files_per_rank
        if kind == "create":
            flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
            for j in range(n):
                ok, _v, dt = op(log, "create", _create, client, self._path(rank, it, j), flags)
                log.record("create", dt, ok)
        elif kind == "stat":
            for j in range(n):
                ok, md, dt = op(log, "stat", client.stat, self._path(rank, it, j))
                ok = ok and md.size == 0 and not md.is_dir
                log.record("stat", dt, ok)
        else:
            removed = self._removed[rank] = []
            for j in range(n):
                path = self._path(rank, it, j)
                ok, _v, dt = op(log, "remove", client.unlink, path)
                removed.append((path, log.record("remove", dt, ok)))

    def check(self, rank, client, it, log):
        # A removed file must be gone: its stat raises ENOENT.
        for path, index in self._removed.get(rank, ()):
            try:
                client.stat(path)
            except NotFoundError:
                continue
            except Exception:
                pass
            log.void("remove", index)


def _create(client, path: str, flags: int) -> None:
    client.close(client.open(path, flags))


class _Ior(Workload):
    """IOR with repeated iterations over the same offsets (``-i``).

    Every iteration writes fresh, stamped data and reads it back, so a
    read that returns the previous iteration's bytes is caught.
    """

    phases = ("pwrite", "pread")
    transfer = 0

    def _pattern(self, rank: int, it: int, index: int) -> bytes:
        # 16-byte stamp in front of a seeded block: unique per
        # (rank, iteration, transfer) at the cost of one copy.
        stamp = f"{rank:02d}{it:07d}{index:07d}".encode()
        return stamp + self._block[len(stamp):]

    def _offsets(self, rank: int) -> list[int]:
        raise NotImplementedError

    def phase(self, kind, rank, client, it, log, op):
        fd = self._fds[rank]
        order = self._offsets(rank)
        size = self.transfer
        if kind == "pwrite":
            for index, offset in enumerate(order):
                data = self._pattern(rank, it, index)
                ok, n, dt = op(log, "pwrite", client.pwrite, fd, data, offset)
                ok = ok and n == size
                log.record("pwrite", dt, ok)
                log.user_bytes["pwrite"] += size if ok else 0
        else:
            expected = {offset: index for index, offset in enumerate(order)}
            for offset in self._read_order(rank, it, order):
                ok, data, dt = op(log, "pread", client.pread, fd, size, offset)
                ok = ok and data == self._pattern(rank, it, expected[offset])
                log.record("pread", dt, ok)
                log.user_bytes["pread"] += size if ok else 0

    def _read_order(self, rank: int, it: int, order: list[int]) -> list[int]:
        return order

    def close(self, clients) -> None:
        for rank, client in enumerate(clients):
            client.close(self._fds[rank])


class Ior1M(_Ior):
    """One file per rank, sequential 1 MiB transfers."""

    name = "ior_1m"
    transfer = 1 * MiB
    transfers_per_rank = 16
    rate_per_rank = 100.0

    def preload(self, clients) -> None:
        self._block = random.Random(self.seed).randbytes(self.transfer)
        self._fds = [
            client.open(f"/gkfs/ior_1m.r{rank:02d}", os.O_CREAT | os.O_EXCL | os.O_RDWR)
            for rank, client in enumerate(clients)
        ]

    def _offsets(self, rank: int) -> list[int]:
        return [i * self.transfer for i in range(self.transfers_per_rank)]


class Ior8KShared(_Ior):
    """One shared file, 8 KiB transfers at seeded random offsets.

    The file holds ``slots`` 8 KiB slots; rank r owns the slots
    congruent to r, so every rank writes and reads only its own bytes
    while both hit the same metadata owner.  Every iteration visits the
    same slot set in a fresh seeded order.
    """

    name = "ior_8k_shared"
    transfer = 8 * KiB
    rate_per_rank = 375.0
    slots = 256  # a 2 MiB file: four 512 KiB chunks

    def preload(self, clients) -> None:
        self._block = random.Random(self.seed).randbytes(self.transfer)
        clients[0].close(clients[0].open("/gkfs/ior_8k_shared", os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        self._fds = [client.open("/gkfs/ior_8k_shared", os.O_RDWR) for client in clients]
        # The write order is fixed per rank for the run; the read order is
        # reshuffled per iteration (below).
        self._write_orders = []
        for rank in range(self.ranks):
            order = [s * self.transfer for s in range(rank, self.slots, self.ranks)]
            random.Random(f"{self.seed}:w:{rank}").shuffle(order)
            self._write_orders.append(order)

    def _offsets(self, rank: int) -> list[int]:
        return self._write_orders[rank]

    def _read_order(self, rank, it, order):
        order = list(order)
        random.Random(f"{self.seed}:r:{rank}:{it}").shuffle(order)
        return order


class StatHot(Workload):
    """Zipf-skewed stats over a namespace twice the metadata cache's size.

    Runs with the client metadata cache and hot-metadata plane of the
    EXT-HOTSPOT experiment, so lease hits, revalidations and LRU
    evictions all occur.
    """

    name = "stat_hot"
    phases = ("stat",)
    files = 8192
    stats_per_rank = 512
    zipf_s = 1.1
    rate_per_rank = 3000.0
    # EXT-HOTSPOT's settings, except for the lease: its 20 ms TTL makes the
    # hit ratio hinge on how fast the host runs (a slower run sees more
    # leases expire, revalidates more, and slows further), which spreads
    # the figures by 25-30 % between runs.  With a 1 s lease hits, lease
    # revalidations and LRU evictions all still occur at a steady mix.
    config = dict(
        metacache_enabled=True,
        metacache_ttl=1.0,
        metacache_capacity=4096,
        metacache_hot_enabled=True,
        metacache_hot_threshold=4,
        metacache_hot_window=0.5,
        metacache_hot_k=5,
        metacache_replica_ttl=20.0,
    )

    def _path(self, i: int) -> str:
        return f"/gkfs/hot/f{i:05d}"

    def preload(self, clients) -> None:
        clients[0].mkdir("/gkfs/hot")
        rng = random.Random(f"{self.seed}:modes")
        self._modes = [0o600 | rng.randrange(0o100) for _ in range(self.files)]
        # Popularity rank -> file index is a seeded permutation, so the
        # hot set is not simply the lowest names.
        self._by_rank = list(range(self.files))
        random.Random(f"{self.seed}:perm").shuffle(self._by_rank)
        weights = [1.0 / (k + 1) ** self.zipf_s for k in range(self.files)]
        total = 0.0
        self._cdf = []
        for w in weights:
            total += w
            self._cdf.append(total)
        errors: list[BaseException] = []

        def create(rank: int) -> None:
            client = clients[rank]
            flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
            try:
                for i in range(rank, self.files, self.ranks):
                    client.close(client.open(self._path(i), flags, self._modes[i]))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=create, args=(r,)) for r in range(self.ranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def phase(self, kind, rank, client, it, log, op):
        rng = random.Random(f"{self.seed}:s:{rank}:{it}")
        total = self._cdf[-1]
        for _ in range(self.stats_per_rank):
            i = self._by_rank[bisect.bisect_left(self._cdf, rng.random() * total)]
            ok, md, dt = op(log, "stat", client.stat, self._path(i))
            ok = ok and md.size == 0 and not md.is_dir and md.mode == self._modes[i]
            log.record("stat", dt, ok)


WORKLOADS = {cls.name: cls for cls in (MdTest, Ior1M, Ior8KShared, StatHot)}


def drive(workload: Workload, clients, seconds: float, op: OpTimer):
    """Run whole iterations on every rank until ``seconds`` of quiet
    iterations are in (see :class:`PhaseClock`).

    Returns ``(logs, clock)``: one :class:`RankLog` per rank and the
    :class:`PhaseClock` holding per-phase and per-iteration wall times.
    """
    ranks = len(clients)
    clock = PhaseClock(ranks, seconds)
    logs = [RankLog() for _ in range(ranks)]
    crashes: list[BaseException] = []

    def rank_loop(rank: int) -> None:
        client, log = clients[rank], logs[rank]
        try:
            it = 0
            while True:
                clock.sync("iteration")
                if clock.stop:
                    return
                log.begin_iteration()
                for kind in workload.phases:
                    clock.sync(kind)
                    log.due = time.perf_counter()
                    workload.phase(kind, rank, client, it, log, op)
                clock.sync(None)
                workload.check(rank, client, it, log)
                it += 1
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:
            crashes.append(exc)
            clock.abort()

    threads = [
        threading.Thread(target=rank_loop, args=(r,), name=f"rank{r}")
        for r in range(ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(MAX_STRETCH * seconds + 150.0)
    if any(t.is_alive() for t in threads):
        clock.abort()
        raise RuntimeError("a rank did not finish its last iteration")
    if crashes:
        raise crashes[0]
    return logs, clock
