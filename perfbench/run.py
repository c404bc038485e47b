"""GekkoFS layer-ledger benchmark: the paper's mdtest/IOR mix on a ProcessCluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mdtest --seed 1 --seconds 10 --trace 0

Every run deploys 2 daemon processes (default ``FSConfig`` plus the
workload's own settings, 4 handlers each, KV store and chunk storage in a
fresh directory under ``.perfbench_tmp/``) and drives them from one
process with 2 rate-capped closed-loop ranks.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced, half with the layer probes installed, and prints the
per-layer ledger.  Lines starting with ``#`` are the human-readable
report (provenance, per-op figures, ledger notes); the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from workloads import OP_KINDS, WORKLOADS, OpTimer, drive, steal_ticks  # noqa: E402

RANKS = 2
DAEMONS = 2
HANDLERS_PER_DAEMON = 4
#: Deployments timed per run for ``setup_s``; the last one is used.
SETUPS = 3
RTT_ROUNDS = 2000


# -- deployment ------------------------------------------------------------------


def _deploy(workload, scratch: str, cluster_cls=None, **kwargs):
    """Start one deployment with fresh KV and chunk directories; returns
    ``(cluster, seconds)``."""
    from repro.core.config import FSConfig
    from repro.net.cluster import ProcessCluster

    cluster_cls = cluster_cls or ProcessCluster
    base = tempfile.mkdtemp(dir=scratch)
    config = FSConfig(
        kv_dir=os.path.join(base, "kv"),
        data_dir=os.path.join(base, "data"),
        **workload.config,
    )
    t0 = time.perf_counter()
    cluster = cluster_cls(
        DAEMONS, config, handlers_per_daemon=HANDLERS_PER_DAEMON, **kwargs
    )
    return cluster, time.perf_counter() - t0


def _traced_cluster_cls():
    """A ProcessCluster whose daemons run ``daemon.py serve`` (probes on)."""
    from repro.net.cluster import ProcessCluster, _Pump

    class TracedProcessCluster(ProcessCluster):
        def __init__(self, *args, spans_dir: str, **kwargs):
            self.spans_dir = spans_dir
            super().__init__(*args, **kwargs)

        def _launch(self, node):
            proc = subprocess.Popen(
                [
                    self._python, os.path.join(HERE, "daemon.py"), "serve",
                    "--daemon-id", str(node),
                    "--addr", "127.0.0.1:0",
                    "--handlers", str(self._handlers_per_daemon),
                    "--config-json", self._config_json,
                    "--spans-out", os.path.join(self.spans_dir, f"d{node}.json"),
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=self._env,
            )
            return proc, (
                _Pump(proc.stdout, f"bench-pump-out-{node}"),
                _Pump(proc.stderr, f"bench-pump-err-{node}"),
            )

    return TracedProcessCluster


def _run_workload(workload, cluster, seconds: float, op):
    """Preload, then drive; returns ``(logs, clock, usage)`` where
    ``usage`` holds what the drive cost (see :func:`_usage`)."""
    clients = [cluster.client(rank % DAEMONS) for rank in range(RANKS)]
    workload.preload(clients)
    before = _usage(cluster, clients)
    logs, clock = drive(workload, clients, seconds, op)
    usage = _usage(cluster, clients)
    usage.subtract(before)
    workload.close(clients)
    return logs, clock, usage


def _usage(cluster, clients) -> Counter:
    """CPU seconds, transparent reconnects and metadata-cache counters so far."""
    usage = Counter(
        cpu_s=_cpu_seconds(cluster),
        reconnects=cluster.deployment.socket_transport.reconnects,
    )
    for client in clients:
        if client.meta_cache is not None:
            usage.update(vars(client.meta_cache.stats))
    return usage


def _cpu_seconds(cluster) -> float:
    """User + system CPU of this process and every daemon process.

    Time the hypervisor steals is not charged to a process, though the
    cache and lock contention of a busy host still is.
    """
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for proc in cluster.processes:
        with open(f"/proc/{proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


# -- statistics ---------------------------------------------------------------------


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def _summary(logs, clock) -> dict:
    """Per-op-kind and overall figures from the rank logs.

    Rates and latencies come from the iterations :meth:`PhaseClock
    .selected` picks; attempts and failures count every iteration.
    """
    chosen = clock.selected()
    out = {"ops": {}, "attempted": 0, "failed": 0}
    everything = []
    ok_total = wall_total = 0.0
    for kind in OP_KINDS:
        attempted = sum(len(log.lat[kind]) for log in logs)
        if not attempted:
            continue
        failed = sum(log.failed[kind] for log in logs)
        lat = sorted(x for log in logs for i in chosen for x in log.iteration(kind, i))
        ok = sum(1 for x in lat if x != math.inf)
        wall = sum(clock.phase_wall[i][kind] for i in chosen)
        entry = {
            "n": len(lat),
            "failed": failed,
            "ops_s": ok / wall,
            "p50_us": percentile(lat, 0.50) * 1e6,
            "p99_us": percentile(lat, 0.99) * 1e6,
        }
        user = sum(log.user_bytes[kind] for log in logs)
        if user:
            # Every transfer of a kind has the same size.
            entry["mib_s"] = entry["ops_s"] * user / (attempted - failed) / (1 << 20)
        out["ops"][kind] = entry
        out["attempted"] += attempted
        out["failed"] += failed
        everything += lat
        ok_total += ok
        wall_total += wall
    everything.sort()
    out["ok_op_frac"] = (out["attempted"] - out["failed"]) / out["attempted"]
    out["ops_s"] = ok_total / wall_total
    out["p50_us"] = percentile(everything, 0.50) * 1e6
    out["p90_us"] = percentile(everything, 0.90) * 1e6
    out["p99_us"] = percentile(everything, 0.99) * 1e6
    out["mean_us"] = statistics.fmean(everything) * 1e6
    out["late_ops"] = sum(log.late for log in logs)
    out["iterations"] = clock.iterations
    out["selected"] = len(chosen)
    out["quiet"] = sum(1 for i in range(clock.iterations) if clock.quiet(i))
    out["iteration_steal"] = clock.iteration_steal
    out["iteration_wall"] = clock.iteration_wall
    return out


# -- provenance ---------------------------------------------------------------------


def _provenance() -> dict:
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha1": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


# -- raw socket reference -------------------------------------------------------------


def _raw_rtt_us(frame_bytes: int) -> float:
    """Median ping-pong of a ``frame_bytes`` frame to an echo process."""
    import socket

    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "daemon.py"), "echo", "--size", str(frame_bytes)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline().split()[1])
        frame = b"x" * frame_bytes
        samples = []
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(RTT_ROUNDS):
                t0 = time.perf_counter()
                sock.sendall(frame)
                got = 0
                while got < frame_bytes:
                    chunk = sock.recv(frame_bytes - got)
                    if not chunk:
                        raise ConnectionError("echo process closed the socket")
                    got += len(chunk)
                samples.append(time.perf_counter() - t0)
        proc.wait(30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return statistics.median(samples) * 1e6


def _stat_frame_bytes() -> int:
    from repro.net.codec import framed_request_size
    from repro.rpc.message import RpcRequest

    return framed_request_size(
        RpcRequest(target=0, handler="gkfs_stat", args=("/mdtest/r0.i000000.f00000",))
    )


# -- the two kinds of run ---------------------------------------------------------------


def run_untraced(workload, seconds: float, scratch: str):
    setup = []
    cluster = None
    try:
        for i in range(SETUPS):
            cluster, seconds_taken = _deploy(workload, scratch)
            setup.append(seconds_taken)
            if i < SETUPS - 1:
                cluster.shutdown()
                cluster = None
        logs, clock, usage = _run_workload(
            workload, cluster, seconds, OpTimer(workload.rate_per_rank)
        )
    finally:
        if cluster is not None:
            cluster.shutdown()
    s = _summary(logs, clock)
    s["cpu_us_per_op"] = usage["cpu_s"] / s["attempted"] * 1e6
    if usage["attr_hits"]:
        s["metacache_hit_ratio"] = usage["attr_hits"] / (
            usage["attr_hits"] + usage["attr_misses"] + usage["expirations"]
        )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ok_op_frac": (s["ok_op_frac"], "frac"),
        "ops_s": (s["ops_s"], "1/s"),
        "p50_us": (s["p50_us"], "us"),
        "cpu_us_per_op": (s["cpu_us_per_op"], "us"),
    }
    report = {"setup_samples_s": setup, **s}
    return metrics, s["attempted"], s["failed"], [], [], report


def run_traced(workload_cls, seed: int, seconds: float, scratch: str):
    from ledger import analyse, metric_names
    from probes import ClientProbe, TracedOpTimer

    half = seconds / 2.0
    # Untraced reference half: the same workload on a plain deployment.
    cluster, _ = _deploy(workload_cls(seed, RANKS), scratch)
    try:
        logs_u, clock_u, _usage_u = _run_workload(
            workload_cls(seed, RANKS), cluster, half, OpTimer(workload_cls.rate_per_rank)
        )
    finally:
        cluster.shutdown()
    raw_rtt = _raw_rtt_us(_stat_frame_bytes())

    probe = ClientProbe()
    probe.install()
    spans_dir = tempfile.mkdtemp(dir=scratch)
    workload = workload_cls(seed, RANKS)
    try:
        cluster, _ = _deploy(workload, scratch, _traced_cluster_cls(), spans_dir=spans_dir)
        try:
            logs_t, clock_t, usage = _run_workload(
                workload, cluster, half, TracedOpTimer(workload.rate_per_rank, probe)
            )
        finally:
            cluster.shutdown()
    finally:
        probe.uninstall()
    dumps = []
    for node in range(DAEMONS):
        with open(os.path.join(spans_dir, f"d{node}.json"), encoding="utf-8") as fh:
            dumps.append(json.load(fh))

    untraced, traced = _summary(logs_u, clock_u), _summary(logs_t, clock_t)
    extra = {
        "metacache": usage,
        "retries": usage["reconnects"],
        "raw_rtt_us": raw_rtt,
        "overhead_ratio": traced["mean_us"] / untraced["mean_us"],
        "user_bytes": sum(sum(log.user_bytes.values()) for log in logs_t),
    }
    values, problems, notes = analyse(
        workload.name, probe, dumps, clock_t.window, extra
    )
    units = dict(metric_names())
    metrics = {name: (values[name], units[name]) for name in units}
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    report = {"untraced": untraced, "traced": traced}
    return metrics, attempted, failed, problems, notes, report


# -- entry point ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="GekkoFS layer-ledger benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        parser.error(f"no GekkoFS sources under {SRC}; run from a full checkout")

    prov = _provenance()
    steal0 = steal_ticks()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_root)
    workload_cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, problems, notes, report = run_traced(
                workload_cls, args.seed, args.seconds, scratch
            )
        else:
            metrics, attempted, failed, problems, notes, report = run_untraced(
                workload_cls(args.seed, RANKS), args.seconds, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    prov["steal_ticks"] = steal_ticks() - steal0
    prov["workload"], prov["seed"], prov["seconds"] = args.workload, args.seed, args.seconds
    print("# provenance " + json.dumps(prov))
    print("# report " + json.dumps(report, default=str))
    for line in notes:
        print("# ledger " + line)
    for problem in problems:
        print("# CHECK FAILED " + problem)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
