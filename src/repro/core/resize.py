"""The replica engine: one wire-only path that moves and restores replicas.

GekkoFS daemons are independent and reachable only through RPC (§III),
so the engine is too.  :class:`Migrator` enumerates holdings with the
paged, read-only ``gkfs_scan`` handler and plans every record and chunk
against an *authoritative* placement (whose owners took the client
writes) and a *desired* one (the same placement for a restore):

* **Records.** The authoritative copy wins; among its replicas the
  larger size wins.  An authoritative replica is restored only when
  missing or smaller, any other desired owner is made equal — always by
  ``gkfs_replace_metadata``, a compare-and-swap against the planned copy.
* **Chunks.** The longest healthy authoritative copy is the source.  An
  authoritative replica is restored only when missing, shorter or
  rotted, CAS-guarded by re-reading its digest just before the replace
  (a foreground write is never rolled back); any other desired owner is
  made equal.  Every copy is throttled, pushed with its digest and read
  back.

Callers, in-process and over sockets alike:

* :func:`live_migrate` — online membership change by iterative pre-copy:
  ``begin_change`` stages the new placement (the old stays
  authoritative); throttled pre-copy passes converge the new owners; a
  brief write freeze and an unthrottled delta pass copy what changed and
  propagate deletions (an item its whole old-owner set lost was unlinked
  and must not resurrect); ``commit_change`` flips, reads fall back to
  the old owners while RELEASING; surplus copies are released after
  their new owners re-verify, and ``gkfs_set_epoch`` seals the epoch
  server-side.  A failure before the flip aborts with the old placement
  untouched and ``gkfs_flight_dump`` snapshots every black box.
* :func:`migrate` — the offline resize: one pass plus release.
* :func:`rereplicate` / :meth:`Migrator.restore` — one pass over the
  current placement: crash-replace, the supervisor's restore
  (:class:`~repro.selfheal.repair.WireRepairer`) and restart
  anti-entropy (:func:`~repro.faults.recovery.recover_daemon`).
* :meth:`Migrator.resync_chunk` — one chunk onto one known-stale
  replica: the dirty-replica resync and the scrubber's repair.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.common.errors import GekkoError, IntegrityError, NotFoundError
from repro.core.distributor import Distributor
from repro.core.membership import MIGRATING
from repro.core.metadata import Metadata
from repro.qos.admission import TokenBucket
from repro.storage.integrity import chunk_checksum

__all__ = [
    "MIGRATION_CLIENT_ID",
    "MigrationReport",
    "Migrator",
    "migrate",
    "live_migrate",
    "rereplicate",
    "check_drained",
]

#: Reserved client identity for migration traffic.  Negative so it can
#: never collide with the cluster's client-id counter; the cluster maps
#: it to ``config.migration_weight`` in the QoS plane, putting rebalance
#: I/O in a low-priority WFQ share that yields to foreground clients.
MIGRATION_CLIENT_ID = -1

#: Pre-copy rounds before the write freeze.  More passes shrink the
#: frozen delta under heavy write load; the final (frozen) pass always
#: runs regardless.
_DEFAULT_PRECOPY_PASSES = 2

#: Grace sleep bracketing the freeze and the flip: long enough for
#: in-flight operations that resolved their targets under the previous
#: state to drain (epoch-based-reclamation-style reasoning — nothing
#: issued *after* the state change can use the old resolution).
_DEFAULT_GRACE = 0.05

#: Entries per ``gkfs_scan`` page.
_SCAN_PAGE = 512

#: What a failed call raises: a daemon that is crash-stopped,
#: partitioned, breaker-open or lost by the transport, a corrupt source,
#: a stale epoch.
_FAILURES = (GekkoError, LookupError, ConnectionError, TimeoutError, OSError)

#: Sentinel: copy without a compare-and-swap guard.
_UNGUARDED = object()


@dataclass
class MigrationReport:
    """What one engine run actually moved.

    ``bytes_moved`` counts every payload that crossed the wire —
    re-copies of write-raced chunks included — which is exactly the
    figure the EXT-ELASTIC experiment bounds against the closed-form
    minimum.  ``per_daemon`` breaks traffic down per address:
    ``{address: {"bytes_in", "bytes_out", "chunks_in", "chunks_out",
    "records_in", "records_out"}}``.
    """

    old_nodes: int
    new_nodes: int
    metadata_total: int = 0
    metadata_moved: int = 0
    chunks_total: int = 0
    chunks_moved: int = 0
    bytes_moved: int = 0
    #: Wall-clock seconds the run took, end to end.
    duration: float = 0.0
    #: Copy passes run (pre-copy rounds plus the frozen delta pass).
    passes: int = 0
    #: Individual chunk copies verified against their source digest.
    verified: int = 0
    #: Target copies whose read-back digest did not match (fatal).
    verify_failures: int = 0
    #: Source copies dropped after their new owners re-verified.
    released: int = 0
    #: Restores skipped because the target changed since the plan (a
    #: foreground write took it); the next pass re-evaluates them.
    skipped_racing: int = 0
    #: Addresses a lenient run could not scan or restore.
    unreachable: list = field(default_factory=list)
    #: ``offline`` | ``live`` | ``replace`` | ``repair``.
    mode: str = "offline"
    #: Membership epoch the run worked under (created, for live changes).
    epoch: Optional[int] = None
    #: Per-address traffic breakdown (see class docstring).
    per_daemon: dict = field(default_factory=dict)

    @property
    def metadata_moved_fraction(self) -> float:
        return self.metadata_moved / self.metadata_total if self.metadata_total else 0.0

    @property
    def chunks_moved_fraction(self) -> float:
        return self.chunks_moved / self.chunks_total if self.chunks_total else 0.0

    def daemon_entry(self, address: int) -> dict:
        """The (created-on-demand) per-address traffic counters."""
        return self.per_daemon.setdefault(address, dict.fromkeys(
            ("bytes_in", "bytes_out", "chunks_in", "chunks_out",
             "records_in", "records_out"), 0))

    def as_dict(self) -> dict:
        """JSON-ready form (the ``repro resize --json`` export)."""
        data = asdict(self)
        data.update(
            metadata_moved_fraction=self.metadata_moved_fraction,
            chunks_moved_fraction=self.chunks_moved_fraction,
            unreachable=sorted(set(self.unreachable)),
            per_daemon={str(a): dict(e) for a, e in sorted(self.per_daemon.items())},
        )
        return data

    def __str__(self) -> str:
        text = (
            f"resize {self.old_nodes}->{self.new_nodes} nodes: moved "
            f"{self.metadata_moved}/{self.metadata_total} records, "
            f"{self.chunks_moved}/{self.chunks_total} chunks "
            f"({self.bytes_moved:,} bytes)"
        )
        if self.duration:
            text += f" in {self.duration:.3f}s [{self.mode}, {self.passes} passes]"
        return text


def _size(record: bytes) -> int:
    return Metadata.decode(record).size


def _same(before: Optional[dict], after: Optional[dict]) -> bool:
    """Same copy state across two digest reads (``None`` = rotted)."""
    if before is None or after is None:
        return before is None and after is None
    return before["length"] == after["length"] and before["digest"] == after["digest"]


class Migrator:
    """The replica engine: restores and moves replicas over RPC only.

    :param cluster: any deployment with ``config``, ``network``,
        ``num_nodes`` and a membership ``view``
        (:class:`~repro.core.cluster.GekkoFSCluster`,
        :class:`~repro.net.cluster.SocketDeployment`); an optional
        ``migration_network()`` supplies the mover port.
    :param report: accounting sink (a fresh ``repair`` report by default).
    :param rate: byte/s cap on copy traffic; ``None`` is unthrottled.
    :param verify: read back every copied chunk's digest.
    :param strict: a daemon that fails a scan or a copy raises (a
        migration must abort); otherwise it lands in
        ``report.unreachable`` and the run goes on.
    :param view: stamp calls with this view's epoch, so daemons sealed
        past it reject the work (``StaleEpochError``).
    """

    def __init__(
        self,
        cluster,
        report: Optional[MigrationReport] = None,
        *,
        rate: Optional[float] = None,
        verify: bool = True,
        strict: bool = True,
        view=None,
    ):
        self.cluster = cluster
        self.config = cluster.config
        self.chunk_size = cluster.config.chunk_size
        self.algorithm = cluster.config.integrity_algorithm
        if report is None:
            span = self._placement().num_daemons
            report = MigrationReport(old_nodes=span, new_nodes=span, mode="repair")
        self.report = report
        self.verify = verify
        self.strict = strict
        self.view = view
        # Burst must cover one whole chunk or a full-chunk acquire could
        # never succeed; beyond that, one second's worth of rate.
        self.bucket = (
            TokenBucket(rate, burst=max(float(rate), float(self.chunk_size)))
            if rate
            else None
        )
        mover = getattr(cluster, "migration_network", None)
        self.network = mover() if mover is not None else cluster.network
        #: How ``gkfs_chunk_digest`` answers for a chunk that is not there.
        self._empty = {"length": 0, "digest": chunk_checksum(b"", 0, self.algorithm)}
        # Items already counted in ``*_moved`` — re-copies across passes
        # count once as a move, but every time in ``bytes_moved``.
        self._already_moved_meta: set = set()
        self._already_moved_chunks: set = set()

    # -- plumbing -----------------------------------------------------------

    def _placement(self) -> Distributor:
        return self.cluster.view.distributor

    def _call(self, target: int, handler: str, *args):
        epoch = None if self.view is None else self.view.epoch
        return self.network.call(target, handler, *args, epoch=epoch)

    def _chunk_owners(self, rel: str, chunk_id: int) -> list[int]:
        """One chunk's replica set under the current placement."""
        dist = self._placement()
        return dist.replica_set(
            dist.locate_chunk(rel, chunk_id), self.config.replication
        )

    def _throttle(self, nbytes: int) -> None:
        """Debit ``nbytes`` from the token bucket, sleeping as it directs."""
        if self.bucket is None or nbytes <= 0:
            return
        amount = min(float(nbytes), self.bucket.burst)
        while True:
            wait = self.bucket.try_acquire(amount)
            if wait <= 0:
                return
            time.sleep(min(wait, 0.05))

    def _charge(self, address: int, metrics: Optional[dict] = None, **traffic: int) -> None:
        """Charge traffic to one address's report entry and, on
        in-process daemons, to ``migration.*`` metrics next to their
        foreground I/O (named as ``traffic`` unless ``metrics`` says
        otherwise)."""
        entry = self.report.daemon_entry(address)
        for name, amount in traffic.items():
            entry[name] += amount
        daemons = getattr(self.cluster, "daemons", None)
        if daemons is not None and address < len(daemons):
            for name, amount in (metrics or traffic).items():
                daemons[address].metrics.inc(f"migration.{name}", amount)

    def _target_failed(self, address: int) -> None:
        """A daemon could not be reached: re-raise when strict."""
        if self.strict:
            raise
        self.report.unreachable.append(address)

    # -- enumeration --------------------------------------------------------

    def scan(self, addresses) -> tuple[dict, dict, set]:
        """Who holds what: ``(records, chunks, reachable)`` as
        ``{path: {address: record}}``, ``{(path, chunk_id): {address:
        digest}}`` (``None`` = rotted) and the addresses that answered
        every ``gkfs_scan`` page.  A strict run raises on the first
        address that does not: what it holds is unknown, so no pass may
        plan without it."""
        records: dict[str, dict[int, bytes]] = {}
        chunks: dict[tuple[str, int], dict[int, Optional[dict]]] = {}
        reachable: set[int] = set()
        for address in addresses:
            found: tuple[list, list] = ([], [])
            cursor = None
            try:
                while True:
                    page = self._call(address, "gkfs_scan", cursor, _SCAN_PAGE)
                    found[0].extend(page["records"])
                    found[1].extend(page["chunks"])
                    cursor = page["next"]
                    if cursor is None:
                        break
            except _FAILURES:
                self._target_failed(address)
                continue
            reachable.add(address)
            for path, record in found[0]:
                records.setdefault(path, {})[address] = record
            for path, chunk_id, digest in found[1]:
                chunks.setdefault((path, chunk_id), {})[address] = digest
        return records, chunks, reachable

    def _addresses(self, *dists: Distributor) -> range:
        return range(max([self.cluster.num_nodes] + [d.num_daemons for d in dists]))

    @staticmethod
    def _sources(copies: dict, authoritative: list[int]) -> list[int]:
        """Healthy non-empty holders, authoritative first, longest first
        (ties in placement order)."""
        healthy = [
            a for a, digest in copies.items()
            if digest is not None and digest["length"] > 0
        ]
        head = [a for a in authoritative if a in healthy]
        tail = [a for a in healthy if a not in head]
        longest = lambda a: -copies[a]["length"]  # noqa: E731
        return sorted(head, key=longest) + sorted(tail, key=longest)

    @staticmethod
    def _deleted_under(copies: dict, authoritative: list[int], reachable: set) -> bool:
        """Deleted on its authoritative replicas: every one answered the
        scan (absence is a fact, not an outage) and none holds a copy.
        Only meaningful under the write freeze."""
        if any(address not in reachable for address in authoritative):
            return False
        return not any(address in copies for address in authoritative)

    # -- movers (RPC) -------------------------------------------------------

    def _digest(self, address: int, path: str, chunk_id: int) -> Optional[dict]:
        try:
            return self._call(address, "gkfs_chunk_digest", path, chunk_id)
        except IntegrityError:
            return None

    def _chunk_payload(self, source: int, path: str, chunk_id: int) -> bytes:
        """One whole chunk from one source.  A verified read's block
        proofs are re-checked over the received bytes — the client half
        of the end-to-end integrity protocol."""
        value = self._call(source, "gkfs_read_chunk", path, chunk_id, 0, self.chunk_size)
        if not isinstance(value, dict):
            return bytes(value)
        data = bytes(value["data"])
        for boff, blen, digest in value.get("proofs") or []:
            block = data[boff : boff + blen]
            if len(block) != blen or chunk_checksum(block, boff, self.algorithm) != digest:
                raise IntegrityError(
                    f"chunk {chunk_id} of {path!r}: source {source} block at "
                    f"offset {boff} failed its stored digest"
                )
        return data

    def _read_source_chunk(
        self, sources: list[int], path: str, chunk_id: int, skip: Optional[int] = None
    ) -> tuple[bytes, int]:
        """``(data, serving address)`` from the first source that serves
        a clean copy; corruption or unavailability falls over."""
        last: Optional[Exception] = None
        for source in sources:
            if source == skip:
                continue
            try:
                return self._chunk_payload(source, path, chunk_id), source
            except _FAILURES as exc:
                last = exc
        if last is not None:
            raise last
        raise IntegrityError(
            f"chunk {chunk_id} of {path!r}: no source replica could serve it"
        )

    def _copy_chunk(
        self,
        sources: list[int],
        path: str,
        chunk_id: int,
        target: int,
        expect=_UNGUARDED,
    ) -> Optional[int]:
        """Stream one chunk to ``target``: throttled, pushed with its
        digest, read back.  With ``expect`` (the target's planned digest)
        the target is re-read right before the replace and left alone if
        it changed — a foreground write landed.  Returns the payload
        size, or ``None`` if the guard tripped or the read-back differs.
        """
        data, served_by = self._read_source_chunk(sources, path, chunk_id, skip=target)
        self._throttle(len(data))
        if expect is not _UNGUARDED and not _same(
            expect, self._digest(target, path, chunk_id)
        ):
            return None
        digest = chunk_checksum(data, 0, self.algorithm)
        self._call(target, "gkfs_replace_chunk", path, chunk_id, data, digest)
        self.report.bytes_moved += len(data)
        self._charge(target, chunks_in=1, bytes_in=len(data))
        self._charge(served_by, chunks_out=1, bytes_out=len(data))
        if self.verify:
            echo = self._call(target, "gkfs_chunk_digest", path, chunk_id)
            if echo["digest"] != digest or echo["length"] != len(data):
                return None
            self.report.verified += 1
        return len(data)

    def _ensure_copy(
        self,
        path: str,
        chunk_id: int,
        target: int,
        sources: list[int],
        have: Optional[dict],
        want: dict,
        *,
        exact: bool,
        foreground: bool,
    ) -> str:
        """The per-chunk primitive: bring ``target``'s copy up to
        ``want``.  ``exact`` makes it equal; otherwise it is restored only
        when missing, shorter or rotted (``have is None``).  A
        ``foreground`` target takes client writes: the copy is CAS-guarded
        and a read-back mismatch is a racing write, not corruption.
        Returns ``"current"``, ``"copied"`` or ``"racing"``."""
        if have is not None and (
            _same(have, want) if exact else have["length"] >= want["length"]
        ):
            return "current"
        expect = have if foreground else _UNGUARDED
        if self._copy_chunk(sources, path, chunk_id, target, expect) is not None:
            return "copied"
        if foreground:
            self.report.skipped_racing += 1
            return "racing"
        self.report.verify_failures += 1
        raise IntegrityError(
            f"chunk {chunk_id} of {path!r}: target {target} read-back "
            f"digest mismatch after copy"
        )

    def _sync_record(
        self, rel: str, copies: dict, desired: list[int], authoritative: list[int]
    ) -> int:
        """Converge one record; returns key+value bytes written."""
        pool = [a for a in authoritative if a in copies] or list(copies)
        supplier = max(pool, key=lambda a: _size(copies[a]))
        best = copies[supplier]
        moved = 0
        for target in desired:
            have = copies.get(target)
            if have == best or (
                target in authoritative and have is not None
                and _size(have) >= _size(best)
            ):
                continue
            cost = len(rel.encode("utf-8")) + len(best)
            self._throttle(cost)
            try:
                stored = self._call(target, "gkfs_replace_metadata", rel, best, have)
            except _FAILURES:
                self._target_failed(target)
                continue
            if not stored:
                self.report.skipped_racing += 1
                continue
            moved += cost
            self._charge(target, records_in=1)
            self._charge(supplier, records_out=1)
        return moved

    def _sync_chunk(
        self,
        path: str,
        chunk_id: int,
        copies: dict,
        desired: list[int],
        authoritative: list[int],
    ) -> bool:
        """Converge one chunk; True if anything was copied."""
        sources = self._sources(copies, authoritative)
        if not sources:
            return False  # sparse, or no healthy copy to restore from
        want = copies[sources[0]]
        copied = False
        for target in desired:
            foreground = target in authoritative
            try:
                status = self._ensure_copy(
                    path, chunk_id, target, sources,
                    copies.get(target, self._empty), want,
                    exact=not foreground, foreground=foreground,
                )
            except _FAILURES:
                self._target_failed(target)
                continue
            copied = copied or status == "copied"
        return copied

    def _drop_record(self, holder: int, rel: str, metric: str) -> None:
        try:
            self._call(holder, "gkfs_remove_metadata", rel)
        except NotFoundError:
            pass
        self._charge(holder, {metric: 1}, records_out=1)

    def _drop_chunk(self, holder: int, path: str, chunk_id: int, metric: str) -> None:
        """Drop one chunk copy: an empty whole-chunk replace."""
        self._call(holder, "gkfs_replace_chunk", path, chunk_id, b"", self._empty["digest"])
        self._charge(holder, {metric: 1}, chunks_out=1)

    # -- passes -------------------------------------------------------------

    def copy_pass(
        self,
        new_dist: Distributor,
        *,
        source_dist: Optional[Distributor] = None,
        count_totals: bool = False,
        propagate_deletes: bool = False,
        throttle: bool = True,
    ) -> int:
        """One convergence round onto ``new_dist``; returns the bytes
        copied (chunk payloads plus record key+value bytes; 0 =
        converged).  Idempotent: repeated passes move only the delta
        foreground writes dirtied since the last.

        ``source_dist`` is the authoritative placement (default
        ``new_dist``: a restore); ``count_totals`` records the scanned
        universe.  ``propagate_deletes`` drops items their authoritative
        set no longer holds — only safe under the write freeze.
        ``throttle=False`` bypasses the token bucket, so the frozen pass
        cannot outlast the client gate's timeout.
        """
        authority = source_dist or new_dist
        records, chunks, reachable = self.scan(self._addresses(new_dist, authority))
        if count_totals:
            self.report.metadata_total = len(records)
            self.report.chunks_total = len(chunks)
        replication = self.config.replication

        def record(item) -> int:
            rel, copies = item
            auth = authority.replica_set(authority.locate_metadata(rel), replication)
            if propagate_deletes and self._deleted_under(copies, auth, reachable):
                for holder in copies:
                    self._drop_record(holder, rel, "records_deleted")
                return 0
            desired = new_dist.replica_set(new_dist.locate_metadata(rel), replication)
            return self._sync_record(rel, copies, desired, auth)

        def chunk(item) -> bool:
            (path, chunk_id), copies = item
            auth = authority.replica_set(
                authority.locate_chunk(path, chunk_id), replication
            )
            if propagate_deletes and self._deleted_under(copies, auth, reachable):
                for holder in copies:
                    self._drop_chunk(holder, path, chunk_id, "chunks_deleted")
                return False
            desired = new_dist.replica_set(
                new_dist.locate_chunk(path, chunk_id), replication
            )
            return self._sync_chunk(path, chunk_id, copies, desired, auth)

        bytes_before = self.report.bytes_moved
        saved_bucket = self.bucket
        if not throttle:
            self.bucket = None
        try:
            record_bytes = [record(item) for item in records.items()]
            copied = [chunk(item) for item in chunks.items()]
        finally:
            self.bucket = saved_bucket

        moved_meta = {rel for rel, n in zip(records, record_bytes) if n}
        moved_chunks = {key for key, hit in zip(chunks, copied) if hit}
        self.report.metadata_moved += len(moved_meta - self._already_moved_meta)
        self.report.chunks_moved += len(moved_chunks - self._already_moved_chunks)
        self._already_moved_meta |= moved_meta
        self._already_moved_chunks |= moved_chunks
        return sum(record_bytes) + self.report.bytes_moved - bytes_before

    def release_pass(self, new_dist: Distributor) -> None:
        """Drop the copies ``new_dist`` no longer wants.  A surplus chunk
        goes only after every desired owner serves a clean digest (not an
        equal one — post-flip writes diverge), so a copy that rotted
        after the move keeps its source for the scrubber."""
        records, chunks, _ = self.scan(self._addresses(new_dist))
        replication = self.config.replication
        for rel, copies in records.items():
            desired = new_dist.replica_set(new_dist.locate_metadata(rel), replication)
            for holder in copies:
                if holder not in desired:
                    self._drop_record(holder, rel, "records_released")
        for (path, chunk_id), copies in chunks.items():
            desired = new_dist.replica_set(new_dist.locate_chunk(path, chunk_id), replication)
            surplus = [h for h in copies if h not in desired]
            if surplus and self.verify:
                for target in desired:  # IntegrityError keeps the source
                    self._call(target, "gkfs_chunk_digest", path, chunk_id)
            for holder in surplus:
                self._drop_chunk(holder, path, chunk_id, "chunks_released")
                self.report.released += 1

    def restore(self) -> MigrationReport:
        """Restore redundancy under the current placement: one pass, plus
        a second for what foreground writes dirtied meanwhile."""
        dist = self._placement()
        moved = self.copy_pass(dist, count_totals=True)
        self.report.passes += 1
        if moved:
            self.copy_pass(dist)
            self.report.passes += 1
        return self.report

    # -- one chunk ----------------------------------------------------------

    def resync_chunk(
        self, rel: str, cid: int, stale: int, attempts: int = 3, exclude=()
    ) -> str:
        """Make a known-stale replica equal to the healthiest other
        owner's copy, CAS-guarded, with bounded retries.

        Passes cannot order two healthy same-length copies; a client
        whose replicated write lost a leg can, and so can the scrubber,
        whose copy fails verification.  ``exclude`` drops further owners
        from the sources (the other legs one write lost).  Returns
        ``"converged"``, ``"resynced"``, ``"gone"``, ``"no-source"``,
        ``"unreachable"`` (retry later) or ``"racing"`` (requeue).
        """
        owners = [
            o for o in self._chunk_owners(rel, cid)
            if o != stale and o not in exclude
        ]
        if not owners:
            return "no-source"
        for _ in range(max(1, attempts)):
            try:
                mine = self._digest(stale, rel, cid)
            except NotFoundError:
                return "gone"
            except _FAILURES:
                return "unreachable"
            copies: dict[int, dict] = {}
            for owner in owners:
                try:
                    copies[owner] = self._call(owner, "gkfs_chunk_digest", rel, cid)
                except NotFoundError:
                    return "gone"
                except _FAILURES:
                    continue
            sources = self._sources(copies, owners)
            if not sources:
                return "no-source"
            try:
                outcome = self._ensure_copy(
                    rel, cid, stale, sources, mine, copies[sources[0]],
                    exact=True, foreground=True,
                )
            except NotFoundError:
                return "gone"
            except _FAILURES:
                return "unreachable"
            if outcome == "current":
                return "converged"
            if outcome == "copied":
                return "resynced"
        return "racing"


# -- orchestration --------------------------------------------------------------


def _instant(cluster, name: str, **args) -> None:
    """Emit one migration timeline event when telemetry is up."""
    collector = getattr(cluster, "trace_collector", None)
    if collector is not None:
        collector.instant(name, "migration", **args)


def _broadcast(cluster, handler: str, *args) -> None:
    """Best-effort control RPC to every daemon that answers."""
    for address in range(cluster.num_nodes):
        try:
            cluster.network.call(address, handler, *args)
        except _FAILURES:
            pass


def check_drained(cluster, addresses) -> None:
    """Raise unless every daemon in ``addresses`` is empty (shrink guard)."""
    for address in addresses:
        stats = cluster.network.call(address, "gkfs_statfs")
        if stats["metadata_records"] or stats["used_bytes"]:
            raise RuntimeError(
                f"daemon {address} still holds data after migration"
            )


def migrate(
    cluster,
    new_distributor: Distributor,
    old_daemon_count: int,
) -> MigrationReport:
    """Offline resize between application phases: one unthrottled pass
    plus release; the caller retires the old membership view."""
    report = MigrationReport(
        old_nodes=old_daemon_count, new_nodes=new_distributor.num_daemons
    )
    started = time.monotonic()
    migrator = Migrator(cluster, report, verify=cluster.config.migration_verify)
    migrator.copy_pass(
        new_distributor, source_dist=cluster.view.distributor, count_totals=True
    )
    report.passes = 1
    migrator.release_pass(new_distributor)
    report.duration = time.monotonic() - started
    return report


def live_migrate(
    cluster,
    new_distributor: Distributor,
    *,
    rate: Optional[float] = None,
    verify: Optional[bool] = None,
    precopy_passes: int = _DEFAULT_PRECOPY_PASSES,
    grace: float = _DEFAULT_GRACE,
) -> MigrationReport:
    """Online membership change onto ``new_distributor`` (protocol in
    the module docstring).  Every address it spans must already serve
    (``resize_live`` joins them first).  A failure before the flip
    aborts with the old placement authoritative — retry after healing.
    """
    view = cluster.view
    config = cluster.config
    old_dist = view.distributor
    report = MigrationReport(
        old_nodes=old_dist.num_daemons,
        new_nodes=new_distributor.num_daemons,
        mode="live",
    )
    rate = rate if rate is not None else config.migration_rate
    verify = verify if verify is not None else config.migration_verify
    started = time.monotonic()
    epoch = view.begin_change(new_distributor)
    report.epoch = epoch
    _instant(cluster, "migration.begin", epoch=epoch,
             old_nodes=old_dist.num_daemons, new_nodes=new_distributor.num_daemons)
    migrator = Migrator(cluster, report, rate=rate, verify=verify)
    try:
        # Pre-copy rounds: foreground writes keep landing on the old
        # owners; whatever they dirty is re-copied next round.
        for round_ in range(max(0, precopy_passes)):
            moved = migrator.copy_pass(
                new_distributor,
                source_dist=old_dist,
                count_totals=(report.passes == 0),
            )
            report.passes += 1
            _instant(cluster, "migration.pass", epoch=epoch, round=round_, bytes=moved)
            if moved == 0:
                break
        # Freeze + final delta: mutations park at the client gate, the
        # grace sleep drains those already past it, and an unthrottled
        # pass copies the rest and propagates deletions.
        view.freeze_writes()
        try:
            time.sleep(grace)
            moved = migrator.copy_pass(
                new_distributor,
                source_dist=old_dist,
                count_totals=(report.passes == 0),
                propagate_deletes=True,
                throttle=False,
            )
            report.passes += 1
            _instant(cluster, "migration.freeze", epoch=epoch, bytes=moved)
            view.commit_change()  # the flip: new placement authoritative
        finally:
            view.unfreeze_writes()
    except BaseException:
        if view.state == MIGRATING:
            view.abort_change()
            _instant(cluster, "migration.abort", epoch=epoch)
            _broadcast(cluster, "gkfs_flight_dump", "migration-abort")
        raise
    _instant(cluster, "migration.flip", epoch=epoch)
    time.sleep(grace)  # RELEASING: pre-flip reads drain on the old owners
    migrator.release_pass(new_distributor)
    view.seal()
    _broadcast(cluster, "gkfs_set_epoch", epoch)
    report.duration = time.monotonic() - started
    _instant(cluster, "migration.seal", epoch=epoch,
             bytes_moved=report.bytes_moved, duration=report.duration)
    return report


def rereplicate(
    cluster,
    *,
    rate: Optional[float] = None,
    verify: Optional[bool] = None,
) -> MigrationReport:
    """Crash-replace: :meth:`Migrator.restore` refills a blank daemon
    (and anything else under-replicated) from the surviving replicas,
    throttled and verified like a rebalance."""
    config = cluster.config
    dist = cluster.view.distributor
    report = MigrationReport(
        old_nodes=dist.num_daemons, new_nodes=dist.num_daemons, mode="replace"
    )
    report.epoch = cluster.view.epoch
    rate = rate if rate is not None else config.migration_rate
    verify = verify if verify is not None else config.migration_verify
    started = time.monotonic()
    _instant(cluster, "migration.rereplicate", epoch=report.epoch)
    Migrator(cluster, report, rate=rate, verify=verify).restore()
    report.duration = time.monotonic() - started
    _instant(cluster, "migration.rereplicate_done", epoch=report.epoch,
             bytes_moved=report.bytes_moved, duration=report.duration)
    return report
