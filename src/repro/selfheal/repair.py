"""Wire-level redundancy repair: the supervisor's restore verb.

:class:`WireRepairer` is the replica engine
(:class:`~repro.core.resize.Migrator`) bound to a deployment's *current*
placement in lenient mode: one restore (a pass, plus a second to
converge what foreground writes dirtied meanwhile) brings every replica
that is missing, shorter or rotted back from the surviving copies, over
plain RPCs — so it runs against any deployment a client can mount,
in-process or a :class:`~repro.net.cluster.ProcessCluster` alike.
Daemons that do not answer are noted in the report, not fatal.

Around the pass it snapshots the epoch watermark (max ``min_epoch`` over
reachable daemons' pings, or the view's epoch): if it moves while the
pass copies, a membership change ran concurrently and the result is
untrustworthy — :class:`EpochMovedError` tells the supervisor to rerun
under the new placement.

The repairer restores *redundancy*, deliberately not *consensus*: two
healthy same-length divergent copies (a write raced the crash) are left
for :meth:`~repro.core.resize.Migrator.resync_chunk`, fed by the
clients' dirty-replica ledgers — overwriting either from here could lose
an acked write.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.resize import MigrationReport, Migrator

__all__ = ["WireRepairer", "RepairReport", "EpochMovedError"]


class EpochMovedError(RuntimeError):
    """The membership epoch advanced mid-repair; the pass must rerun."""


@dataclass
class RepairReport:
    """What one repair did (the supervisor's journal payload)."""

    paths_seen: int = 0
    records_restored: int = 0
    chunks_checked: int = 0
    chunks_restored: int = 0
    chunks_skipped_racing: int = 0
    bytes_restored: int = 0
    unreachable: list = field(default_factory=list)
    epoch: int = 0

    @classmethod
    def from_engine(cls, report: MigrationReport) -> "RepairReport":
        return cls(
            paths_seen=report.metadata_total,
            records_restored=report.metadata_moved,
            chunks_checked=report.chunks_total,
            chunks_restored=report.chunks_moved,
            chunks_skipped_racing=report.skipped_racing,
            bytes_restored=report.bytes_moved,
            unreachable=list(report.unreachable),
            epoch=report.epoch or 0,
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "unreachable": sorted(set(self.unreachable))}


class WireRepairer(Migrator):
    """Restore full replication over plain RPCs.

    :param deployment: any deployment the replica engine accepts
        (:class:`~repro.net.cluster.SocketDeployment`,
        :class:`~repro.core.cluster.GekkoFSCluster`).
    :param view: optional :class:`~repro.core.membership.MembershipView`;
        when given, calls are stamped with its epoch (so a daemon sealed
        past us rejects the repair with ``StaleEpochError`` instead of
        accepting stale placement) and the epoch-stability check reads
        the view instead of pinging.
    """

    def __init__(self, deployment, view=None):
        super().__init__(deployment, strict=False, view=view)
        self.deployment = deployment

    def _epoch_watermark(self) -> int:
        if self.view is not None:
            return self.view.epoch
        watermark = 0
        for address in range(self.deployment.num_nodes):
            try:
                reply = self._call(address, "gkfs_ping")
            except Exception:  # unreachable: no vote
                continue
            watermark = max(watermark, int(reply.get("min_epoch", 0)))
        return watermark

    def repair(self) -> RepairReport:
        """One restore over the current placement.

        Raises :class:`EpochMovedError` when a membership change commits
        underneath the pass — the caller (the supervisor) re-runs under
        the new placement.  Safe to run concurrently with foreground
        traffic: every restore is CAS-guarded against the target having
        changed since the scan (a changed copy took a foreground write
        and is skipped, never overwritten).
        """
        before = self._epoch_watermark()
        span = self._placement().num_daemons
        self.report = MigrationReport(
            old_nodes=span, new_nodes=span, mode="repair", epoch=before
        )
        self._already_moved_meta = set()
        self._already_moved_chunks = set()
        self.restore()
        after = self._epoch_watermark()
        if after != before:
            raise EpochMovedError(
                f"membership epoch moved {before} -> {after} during repair"
            )
        return RepairReport.from_engine(self.report)
