"""Processes the traced run starts.

``python perfbench/daemon.py serve ...`` is one GekkoFS daemon with the
daemon-side probes installed: it takes the arguments of ``repro serve``
plus ``--spans-out``, installs :class:`probes.DaemonProbe` before any
daemon object exists, calls :func:`repro.net.serve.serve_daemon`, and
writes the probe records when the daemon has drained after SIGTERM.

``python perfbench/daemon.py echo`` is the reference for the socket
itself: a plain TCP echo of fixed-size frames, so the traced run can time
a ping-pong of a stat-sized frame between two processes.
"""

from __future__ import annotations

import argparse
import socket
import sys


def _serve(args) -> int:
    from probes import DaemonProbe
    from repro.net.serve import config_from_json, serve_daemon

    probe = DaemonProbe()
    probe.install()
    code = serve_daemon(
        config_from_json(args.config_json), args.daemon_id, args.addr,
        handlers=args.handlers,
    )
    probe.dump(args.spans_out)
    return code


def _echo(args) -> int:
    listener = socket.create_server(("127.0.0.1", 0))
    print(f"ECHO {listener.getsockname()[1]}", flush=True)
    conn, _ = listener.accept()
    listener.close()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    with conn:
        while True:
            frame = _recv_exact(conn, args.size)
            if frame is None:
                return 0
            conn.sendall(frame)


def _recv_exact(sock, count: int):
    parts = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        parts.append(chunk)
        count -= len(chunk)
    return b"".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--daemon-id", type=int, required=True)
    serve.add_argument("--addr", required=True)
    serve.add_argument("--handlers", type=int, default=4)
    serve.add_argument("--config-json", required=True)
    serve.add_argument("--spans-out", required=True)
    echo = sub.add_parser("echo")
    echo.add_argument("--size", type=int, required=True)
    args = parser.parse_args(argv)
    return _serve(args) if args.command == "serve" else _echo(args)


if __name__ == "__main__":
    sys.exit(main())
