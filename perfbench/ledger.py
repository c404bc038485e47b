"""Turn probe records into the per-layer ledger and check it.

Layers are named after the modules they wrap (see README.md for the map
from layer to metric).  For every measured op the ledger walks the
op's *blocking path*:

* the op's own time outside any RPC and metadata-cache call is
  ``core.client`` self time, the cache calls are ``metacache``;
* the RPCs the caller issued between two waits form one fan-out batch.
  Within a batch the leg that resolved last is critical: it contributes
  its whole chain (issue, submit, server ingress and decode, queue wait,
  handler, kvstore, storage, reply, client receive, wake-up), and each
  leg issued before it contributes its issue and submit time, which the
  caller spent before it could wait.

What no layer claims — the socket hops and the receiving thread's wake-up
in both directions — is ``trace.unattributed_us``.  The closure check
requires it to stay within :data:`CLOSURE_TOLERANCE` of the traced op
time, and the attributed time never to exceed the op time by more than
:data:`OVERLAP_TOLERANCE` (which would mean a layer was counted twice).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from workloads import OP_KINDS

#: Handlers the ledger reports on.  A workload that issues one outside
#: this list fails the coverage check, so the list cannot silently rot.
HANDLERS = (
    "gkfs_create",
    "gkfs_stat",
    "gkfs_stat_lease",
    "gkfs_stat_if_changed",
    "gkfs_put_hot_replica",
    "gkfs_remove_metadata",
    "gkfs_update_size",
    "gkfs_write_chunk",
    "gkfs_write_chunks",
    "gkfs_read_chunk",
    "gkfs_read_chunks",
)

KV_KINDS = ("put", "get", "delete", "merge")
STORAGE_KINDS = ("write_chunk", "read_chunk")

#: Share of the traced op time the unattributed remainder may take.
CLOSURE_TOLERANCE = 0.40
#: Share by which attributed time may exceed the traced op time.
OVERLAP_TOLERANCE = 0.02

LAYERS = ("core.client", "metacache", "rpc", "net.codec", "net.client",
          "net.server", "rpc.threaded", "core.daemon", "kvstore", "storage")

#: Which layers each workload must exercise, and which it must bypass.
EXERCISES = {
    "mdtest": {"core.client", "rpc", "net.codec", "net.client", "net.server",
               "rpc.threaded", "core.daemon", "kvstore"},
    "ior_1m": {"core.client", "rpc", "net.codec", "net.client", "net.server",
               "rpc.threaded", "core.daemon", "kvstore", "storage", "bulk"},
    "ior_8k_shared": {"core.client", "rpc", "net.codec", "net.client", "net.server",
                      "rpc.threaded", "core.daemon", "kvstore", "storage", "bulk"},
    "stat_hot": {"core.client", "metacache", "rpc", "net.codec", "net.client",
                 "net.server", "rpc.threaded", "core.daemon", "kvstore"},
}
BYPASSES = {
    "mdtest": {"storage", "metacache", "bulk"},
    "ior_1m": {"metacache"},
    "ior_8k_shared": {"metacache"},
    "stat_hot": {"storage", "bulk"},
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for op in OP_KINDS:
        names += [(f"core.client.{op}.self_us", "us"),
                  (f"core.client.{op}.rpcs", "1/op"),
                  (f"core.client.{op}.legs", "count")]
    names += [("metacache.hit_ratio", "ratio"), ("metacache.lookup_us", "us"),
              ("metacache.revalidations", "1/op"), ("metacache.evictions", "1/op")]
    for h in HANDLERS:
        names += [(f"rpc.{h}.calls", "1/op"), (f"rpc.{h}.rtt_us", "us")]
    names += [("rpc.retries", "count"), ("rpc.failures", "count"),
              ("net.codec.encode_us", "us"), ("net.codec.decode_us", "us"),
              ("net.codec.bytes_per_rpc", "B"),
              ("net.client.submit_us", "us"), ("net.client.wake_us", "us"),
              ("net.client.bulk_bytes", "B"),
              ("net.server.decode_us", "us"), ("net.server.reply_us", "us"),
              ("rpc.threaded.queue_wait_us", "us"), ("rpc.threaded.queue_depth", "count")]
    names += [(f"core.daemon.{h}.self_us", "us") for h in HANDLERS]
    for k in KV_KINDS:
        names += [(f"kvstore.{k}.calls", "1/op"), (f"kvstore.{k}.us", "us")]
    names += [("kvstore.wal_bytes_per_user_byte", "B/B"), ("kvstore.wal_bytes_per_op", "B"),
              ("kvstore.flushes", "count"), ("kvstore.compactions", "count"),
              ("kvstore.compaction_us", "us")]
    for k in STORAGE_KINDS:
        names += [(f"storage.{k}.calls", "1/op"), (f"storage.{k}.us", "us"),
                  (f"storage.{k}.bytes", "B")]
    names += [("storage.bytes_per_user_byte", "B/B"),
              ("net.raw_rtt_us", "us"), ("trace.overhead_ratio", "ratio"),
              ("trace.unattributed_us", "us")]
    return names


#: Metrics that count work, not time: the same seed must reproduce them
#: exactly on the workloads whose request stream does not depend on
#: timing (every one but ``stat_hot``, whose lease expiries do).
def is_exact(name: str) -> bool:
    return (
        name.endswith((".rpcs", ".legs", ".calls", ".bytes"))
        or name in ("net.codec.bytes_per_rpc", "net.client.bulk_bytes",
                    "storage.bytes_per_user_byte", "kvstore.wal_bytes_per_op",
                    "kvstore.wal_bytes_per_user_byte")
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class _Row:
    """A daemon row, unpacked (see :class:`probes.DaemonProbe`)."""

    __slots__ = ("r0", "dec0", "dec1", "enq", "depth", "h0", "h1", "p1",
                 "kv_us", "st_us", "handler")

    def __init__(self, raw):
        (self.r0, self.dec0, self.dec1, self.enq, self.depth, self.h0,
         self.h1, self.p1, self.kv_us, self.st_us, self.handler) = raw


def _sent(rec, row: _Row) -> float:
    """When the request left the client: ``sendall`` returning, or the
    server's receipt if that came first (the caller then stalled on the
    interpreter lock after sending, off the request's path)."""
    return min(rec.s1, row.r0)


def _replied(rec, row: _Row) -> float:
    """When the reply left the daemon, clamped the same way."""
    return min(row.p1, rec.rx)


def _chain(rec, row: _Row, path: Counter) -> None:
    """Add one critical leg's chain to ``path`` (µs per layer).

    The chain tiles ``[t_call, resume]`` except for the two socket hops
    (``sent -> r0`` and ``replied -> rx``), which stay unattributed.
    """
    us = 1e6
    decode = (rec.c1 - rec.c0) * us
    path["rpc"] += (rec.s0 - rec.t_call) * us
    path["net.codec"] += rec.enc_us + decode
    path["net.client"] += (_sent(rec, row) - rec.s0) * us - rec.enc_us
    path["net.server"] += (row.enq - row.r0 + _replied(rec, row) - row.h1) * us
    path["rpc.threaded"] += (row.h0 - row.enq) * us
    path["core.daemon"] += (row.h1 - row.h0) * us - row.kv_us - row.st_us
    path["kvstore"] += row.kv_us
    path["storage"] += row.st_us
    # Client receive (header arrival to resolution, minus the decode),
    # then the caller's wake-up.
    path["net.client"] += (rec.f - rec.rx) * us - decode + (rec.resume - rec.f) * us


def _op_path(op, rows: dict) -> Counter:
    """Per-layer µs along one op's blocking path, plus its remainder."""
    us = 1e6
    path = Counter()
    covered = 0.0
    for batch in op.batches:
        crit = max(batch, key=lambda r: r.f)
        covered += max(r.resume for r in batch) - min(r.t_call for r in batch)
        for rec in batch:
            if rec is crit:
                _chain(rec, rows[rec.id], path)
            elif rec.t_call < crit.t_call:
                path["rpc"] += (rec.s0 - rec.t_call) * us
                path["net.codec"] += rec.enc_us
                path["net.client"] += (rec.s1 - rec.s0) * us - rec.enc_us
    total = (op.t1 - op.t0) * us
    path["metacache"] += op.cache_us
    path["core.client"] += total - covered * us - op.cache_us
    path["unattributed"] = total - sum(path[layer] for layer in LAYERS)
    path["total"] = total
    return path


def analyse(workload: str, probe, dumps: list[dict], window, extra: dict):
    """Build the per-layer metrics; returns ``(metrics, problems, notes)``.

    ``dumps`` are the daemon probes' records, ``window`` the traced
    phase's ``(start, end)`` on the shared clock, ``extra`` the values
    measured outside the probes (metadata-cache stat deltas, transport
    retries, raw round trip, overhead ratio).
    """
    rows: dict[str, _Row] = {}
    counts: dict[str, Counter] = {}
    events = []
    for dump in dumps:
        rows.update({rid: _Row(raw) for rid, raw in dump["rows"].items()})
        counts.update({rid: Counter(c) for rid, c in dump["counts"].items()})
        events += [e for e in dump["events"] if window[0] <= e[1] <= window[1]]

    problems: list[str] = []
    complete = []
    incomplete = Counter()
    for op in probe.ops:
        if not op.ok:
            continue
        if any(
            rec.f is None or rec.resume is None or rec.s1 is None or rec.rx is None
            or rec.id not in rows or None in (rows[rec.id].p1, rows[rec.id].h1,
                                              rows[rec.id].enq)
            for rec in op.rpcs
        ):
            incomplete[op.kind] += 1
            continue
        complete.append(op)
    for kind, n in sorted(incomplete.items()):
        problems.append(f"{n} {kind} ops have an RPC with missing stamps")
    ops_n = len(complete)
    m: dict[str, float] = {name: 0.0 for name, _unit in metric_names()}
    if not ops_n:
        problems.append("no complete traced ops")
        return m, problems, []

    paths = [(op, _op_path(op, rows)) for op in complete]
    rpcs = [rec for op in complete for rec in op.rpcs]
    rec_rows = [rows[rec.id] for rec in rpcs]

    # -- core.client / metacache ------------------------------------------
    for kind in OP_KINDS:
        mine = [(op, p) for op, p in paths if op.kind == kind]
        if mine:
            m[f"core.client.{kind}.self_us"] = _mean(p["core.client"] for _o, p in mine)
            m[f"core.client.{kind}.rpcs"] = _mean(len(o.rpcs) for o, _p in mine)
            m[f"core.client.{kind}.legs"] = _mean(
                max((len(b) for b in o.batches), default=0) for o, _p in mine
            )
    cache = extra.get("metacache", Counter())
    lookups = cache["attr_hits"] + cache["attr_misses"] + cache["expirations"]
    m["metacache.hit_ratio"] = cache["attr_hits"] / lookups if lookups else 0.0
    lookups_n = sum(op.lookups for op in complete)
    m["metacache.lookup_us"] = (
        sum(op.lookup_us for op in complete) / lookups_n if lookups_n else 0.0
    )
    m["metacache.revalidations"] = cache["revalidations"] / ops_n
    m["metacache.evictions"] = cache["evictions"] / ops_n

    # -- rpc -----------------------------------------------------------------
    by_handler = defaultdict(list)
    for rec in rpcs:
        by_handler[rec.handler].append(rec)
    for handler, recs in by_handler.items():
        if handler not in HANDLERS:
            problems.append(f"handler {handler} is not in the ledger's list")
            continue
        m[f"rpc.{handler}.calls"] = len(recs) / ops_n
        m[f"rpc.{handler}.rtt_us"] = _mean((r.f - r.t_call) * 1e6 for r in recs)
    m["rpc.retries"] = extra.get("retries", 0)
    m["rpc.failures"] = sum(1 for op in probe.ops for rec in op.rpcs if rec.failed)

    # -- net.codec / net.client / net.server / rpc.threaded ------------------
    from repro.net.codec import HEADER_SIZE

    m["net.codec.encode_us"] = _mean(r.enc_us for r in rpcs)
    m["net.codec.decode_us"] = _mean((r.c1 - r.c0) * 1e6 for r in rpcs)
    m["net.codec.bytes_per_rpc"] = sum(
        2 * HEADER_SIZE + r.req_bytes + r.resp_bytes for r in rpcs
    ) / len(rpcs)
    m["net.client.submit_us"] = _mean((_sent(r, w) - r.s0) * 1e6 for r, w in zip(rpcs, rec_rows))
    m["net.client.wake_us"] = _mean((r.resume - r.f) * 1e6 for r in rpcs)
    m["net.client.bulk_bytes"] = sum(r.bulk_bytes for r in rpcs) / len(rpcs)
    m["net.server.decode_us"] = _mean((w.dec1 - w.dec0) * 1e6 for w in rec_rows)
    m["net.server.reply_us"] = _mean((_replied(r, w) - w.h1) * 1e6 for r, w in zip(rpcs, rec_rows))
    m["rpc.threaded.queue_wait_us"] = _mean((w.h0 - w.enq) * 1e6 for w in rec_rows)
    m["rpc.threaded.queue_depth"] = _mean(w.depth for w in rec_rows)

    # -- core.daemon / kvstore / storage -------------------------------------
    self_by_handler = defaultdict(list)
    for w in rec_rows:
        self_by_handler[w.handler].append((w.h1 - w.h0) * 1e6 - w.kv_us - w.st_us)
    for handler, values in self_by_handler.items():
        if handler in HANDLERS:
            m[f"core.daemon.{handler}.self_us"] = _mean(values)
    layer_counts = Counter()
    for rec in rpcs:
        layer_counts.update(counts.get(rec.id, {}))
    for layer, kinds in (("kvstore", KV_KINDS), ("storage", STORAGE_KINDS)):
        for k in kinds:
            calls = layer_counts[f"{layer}.{k}.calls"]
            m[f"{layer}.{k}.calls"] = calls / ops_n
            m[f"{layer}.{k}.us"] = layer_counts[f"{layer}.{k}.us"] / calls if calls else 0.0
            if layer == "storage":
                m[f"{layer}.{k}.bytes"] = (
                    layer_counts[f"{layer}.{k}.bytes"] / calls if calls else 0.0
                )
    user_bytes = extra.get("user_bytes", 0)
    m["kvstore.wal_bytes_per_op"] = layer_counts["kvstore.wal_bytes"] / ops_n
    m["kvstore.wal_bytes_per_user_byte"] = (
        layer_counts["kvstore.wal_bytes"] / user_bytes if user_bytes else 0.0
    )
    m["kvstore.flushes"] = sum(1 for e in events if e[0] == "flush")
    m["kvstore.compactions"] = sum(1 for e in events if e[0] == "compaction")
    m["kvstore.compaction_us"] = sum(
        (e[2] - e[1]) * 1e6 for e in events if e[0] == "compaction"
    )
    storage_bytes = sum(layer_counts[f"storage.{k}.bytes"] for k in STORAGE_KINDS)
    m["storage.bytes_per_user_byte"] = storage_bytes / user_bytes if user_bytes else 0.0

    # -- reference and closure ---------------------------------------------------
    m["net.raw_rtt_us"] = extra.get("raw_rtt_us", 0.0)
    m["trace.overhead_ratio"] = extra.get("overhead_ratio", 0.0)
    total = sum(p["total"] for _o, p in paths)
    unattributed = sum(p["unattributed"] for _o, p in paths)
    m["trace.unattributed_us"] = unattributed / ops_n
    if unattributed > CLOSURE_TOLERANCE * total:
        problems.append(
            f"closure: {unattributed / total:.1%} of traced op time is unattributed "
            f"(tolerance {CLOSURE_TOLERANCE:.0%})"
        )
    if unattributed < -OVERLAP_TOLERANCE * total:
        problems.append(
            f"closure: attributed time exceeds traced op time by "
            f"{-unattributed / total:.1%} (tolerance {OVERLAP_TOLERANCE:.0%})"
        )

    # -- coverage --------------------------------------------------------------
    spans = {
        "core.client": ops_n,
        "metacache": lookups_n,
        "rpc": len(rpcs),
        "net.codec": sum(1 for r in rpcs if r.enc_us > 0),
        "net.client": sum(1 for r in rpcs if r.s1 is not None),
        "net.server": sum(1 for w in rec_rows if w.p1 is not None),
        "rpc.threaded": sum(1 for w in rec_rows if w.enq is not None),
        "core.daemon": sum(1 for w in rec_rows if w.h1 is not None),
        "kvstore": sum(layer_counts[f"kvstore.{k}.calls"] for k in KV_KINDS),
        "storage": sum(layer_counts[f"storage.{k}.calls"] for k in STORAGE_KINDS),
        "bulk": sum(r.bulk_bytes for r in rpcs),
    }
    for layer in sorted(EXERCISES[workload]):
        if not spans[layer]:
            problems.append(f"coverage: {layer} recorded nothing on {workload}")
    for layer in sorted(BYPASSES[workload]):
        if spans[layer]:
            problems.append(f"coverage: {layer} recorded {spans[layer]} on {workload}, "
                            f"which bypasses it")

    share = {layer: sum(p[layer] for _o, p in paths) / total for layer in LAYERS}
    share["unattributed"] = unattributed / total
    notes = [
        "path share " + " ".join(f"{k}={v:.1%}" for k, v in share.items()),
        "socket hops (median us): client->server "
        f"{statistics.median((w.r0 - _sent(r, w)) * 1e6 for r, w in zip(rpcs, rec_rows)):.1f}, "
        f"server->client "
        f"{statistics.median((r.rx - _replied(r, w)) * 1e6 for r, w in zip(rpcs, rec_rows)):.1f}",
    ]
    return m, problems, notes
