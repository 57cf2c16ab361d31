"""The remote worker host: serve tuning workers to a dialing coordinator.

Cross-host topology inverts the local socket handshake.  Locally the
*worker* dials back into the coordinator's loopback listener (the
coordinator forked it and told it the port).  Across hosts the
coordinator cannot fork anything, so each worker machine runs this host
process listening on a configured address; the coordinator **dials out**
to it (``ServiceCluster(remote_workers=["hostA:9701", ...])``) and opens
the conversation with a :class:`~repro.service.ipc.Hello` frame carrying
the worker id and the full :class:`~repro.service.worker.WorkerConfig`.
From that frame on, the connection speaks exactly the pipe protocol —
the host hands it to the same ``_serve`` loop every forked worker runs.

One host accepts any number of coordinator connections (each gets its
own serve thread), which is how a restarting coordinator re-adopts a
remote fleet without touching the worker machines.  Requirements the
coordinator enforces for remotes: the model registry must be reachable
at the same filesystem root on both ends (a shared mount).  Scores ride
the reply frame, as on every other link.

Run one from a shell::

    python -m repro.service.remote --registry /mnt/models --port 9701

or embed it (tests do): ``RemoteWorkerHost(root, port=0)`` picks a free
port and exposes it as ``.address``.
"""

from __future__ import annotations

import argparse
import asyncio
import threading

from repro.service.ipc import Hello, recv_frame
from repro.service.transport import (
    SocketConnection,
    format_address,
    listen,
)
from repro.service.worker import _serve

__all__ = ["RemoteWorkerHost", "serve_worker"]


class RemoteWorkerHost:
    """A listener that turns each coordinator connection into a worker.

    Threading model: one accept thread; per accepted connection one serve
    thread running ``asyncio.run(_serve(...))`` — ``asyncio.run`` works in
    non-main threads, and each connection owning a private loop keeps
    concurrent coordinators (or a coordinator's reconnect racing the old
    link's teardown) fully isolated.
    """

    def __init__(
        self, registry_root: str, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.registry_root = str(registry_root)
        self._listener = listen(host=host, port=port)
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._accept_thread: "threading.Thread | None" = None
        self._serve_threads: list[threading.Thread] = []
        self._conns: list[SocketConnection] = []
        self._lock = threading.Lock()
        self._stopping = False
        #: connections that opened without a valid Hello (diagnostics)
        self.bad_handshakes = 0
        #: workers served over the host's lifetime (diagnostics)
        self.workers_served = 0

    @property
    def address(self) -> str:
        """The dialable ``host:port`` for ``ServiceCluster(remote_workers=...)``."""
        return format_address(self._host, self._port)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RemoteWorkerHost":
        """Begin accepting coordinator connections (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name=f"remote-worker-host-{self._port}",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Close the listener and every live worker connection."""
        self._stopping = True
        try:
            self._listener.close()  # unblocks accept()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()  # each _serve loop sees EOF and drains out
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout_s)
        for thread in list(self._serve_threads):
            thread.join(timeout=timeout_s)

    def __enter__(self) -> "RemoteWorkerHost":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- internals -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            conn = SocketConnection(sock)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"remote-worker-conn-{self._port}",
                daemon=True,
            )
            with self._lock:
                self._conns.append(conn)
                self._serve_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: SocketConnection) -> None:
        try:
            try:
                hello = recv_frame(conn)
            except Exception:
                hello = None
            if not isinstance(hello, Hello):
                # an HTTP probe, a port scan, a buggy peer: drop the
                # connection, never the host
                self.bad_handshakes += 1
                return
            self.workers_served += 1
            asyncio.run(
                _serve(hello.worker_id, self.registry_root, conn, hello.config)
            )
        finally:
            conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)


def serve_worker(
    registry_root: str, host: str = "0.0.0.0", port: int = 9701
) -> None:
    """Blocking entry point: host workers until interrupted."""
    with RemoteWorkerHost(registry_root, host=host, port=port) as hosted:
        print(f"remote worker host listening on {hosted.address}", flush=True)
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(
        description="Host tuning-service workers for a remote ServiceCluster."
    )
    parser.add_argument(
        "--registry",
        required=True,
        help="model registry root (must match the coordinator's, e.g. a shared mount)",
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument(
        "--port", type=int, default=9701, help="listen port (0 picks a free one)"
    )
    args = parser.parse_args(argv)
    serve_worker(args.registry, host=args.host, port=args.port)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    main()
