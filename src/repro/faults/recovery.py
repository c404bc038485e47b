"""Daemon restart recovery: what brings a replacement daemon up to date.

The paper's GekkoFS has no recovery story — a daemon that dies takes its
shard with it (§I).  This module is the extension's answer, run by
``cluster.restart_daemon`` after the replacement daemon has reopened the
node's local state:

1. **Local replay** happens implicitly at construction: the LSM store
   replays its un-truncated WAL over the sealed SSTables, and
   disk-backed chunk storage rediscovers every chunk file by directory
   rescan.  :func:`recover_daemon` accounts what that recovered.
2. **Replica anti-entropy**: with replication > 1, one pass of the
   replica engine (:class:`~repro.core.resize.Migrator`) over the
   current placement restores every record and chunk a replica lacks —
   the restarted daemon's included — from the surviving copies (largest
   size wins for metadata: a replica that missed a size update must not
   reintroduce a stale one).
3. **Root recreation**: if the restarted daemon is in the root
   directory's replica set and lost the record (in-memory KV), "/" is
   recreated so the namespace stays mountable.
4. **Cluster-wide fsck repair** reconciles whatever the crash left
   behind — orphaned chunks of records that died with an unreplicated
   daemon, understated sizes from lost size updates — using the same
   :mod:`repro.core.fsck` logic that audits retained campaigns.

Anti-entropy runs over RPC like every other replica move; only the
local-replay accounting and the fsck scan read the daemon objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import NotFoundError
from repro.core import fsck
from repro.core.metadata import new_dir_metadata
from repro.core.resize import Migrator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import GekkoFSCluster

__all__ = ["RecoveryReport", "recover_daemon"]


@dataclass
class RecoveryReport:
    """What one daemon restart recovered, and how."""

    address: int
    #: Metadata records present after reopening local state (WAL replay).
    records_recovered: int = 0
    #: Chunk files rediscovered by the storage rescan.
    chunks_rescanned: int = 0
    #: Records copied back from surviving replicas (anti-entropy).
    records_resynced: int = 0
    #: Chunks copied back from surviving replicas (anti-entropy).
    chunks_resynced: int = 0
    #: Whether the root directory record had to be recreated.
    root_recreated: bool = False
    #: Post-recovery cluster-wide consistency scan (after repair).
    fsck: "fsck.FsckReport" = field(default_factory=fsck.FsckReport)

    def __str__(self) -> str:
        return (
            f"recovery(daemon {self.address}): "
            f"{self.records_recovered} records + {self.chunks_rescanned} chunks "
            f"from local state, {self.records_resynced} records + "
            f"{self.chunks_resynced} chunks resynced from replicas, "
            f"root_recreated={self.root_recreated}, fsck={self.fsck}"
        )


def recover_daemon(cluster: "GekkoFSCluster", address: int) -> RecoveryReport:
    """Reconcile a freshly restarted daemon with the deployment.

    Assumes ``cluster.daemons[address]`` has already been replaced by a
    live daemon that reopened the node's ``kv_dir``/``data_dir`` (the
    local WAL replay and chunk rescan have happened).  Returns a
    :class:`RecoveryReport`; the embedded fsck report reflects the state
    *after* repair — a non-clean report means data was genuinely
    unrecoverable (e.g. an unreplicated in-memory daemon lost its shard).
    """
    daemon = cluster.daemons[address]
    report = RecoveryReport(address=address)
    report.records_recovered = len(daemon.kv)
    report.chunks_rescanned = sum(
        len(list(daemon.storage.chunk_ids(path))) for path in daemon.storage.paths()
    )

    if cluster.config.replication > 1:
        # Lenient: other daemons may still be down; restore what answers.
        resync = Migrator(cluster, strict=False).restore()
        report.records_resynced = resync.metadata_moved
        report.chunks_resynced = resync.chunks_moved

    dist = cluster.distributor
    root_owners = dist.replica_set(
        dist.locate_metadata("/"), cluster.config.replication
    )
    if address in root_owners:
        try:
            cluster.network.call(address, "gkfs_stat", "/")
        except NotFoundError:
            root_md = new_dir_metadata(maintain_times=cluster.config.maintain_mtime)
            cluster.network.call(address, "gkfs_create", "/", root_md.encode(), False)
            report.root_recreated = True

    report.fsck = fsck.repair(cluster)
    return report
