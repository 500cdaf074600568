"""TCP front for the scan service: length-prefixed JSON over loopback.

One :class:`ServiceServer` wraps a running
:class:`~repro.service.service.ScanService` and serves it to any number
of clients over the same framed-JSON protocol the cluster tier speaks
(:mod:`repro.cluster.protocol`: 4-byte big-endian length prefix, JSON
body). A connection handler thread per client keeps slow readers from
blocking each other; all real state lives in the (thread-safe) service.

Requests are ``{"type": ..., "protocol_version": 1, ...}``; responses
are ``{"type": "response", "ok": true, ...}`` or ``{"type": "response",
"ok": false, "error": ..., "kind": ...}`` where ``kind`` names the error
class (``admission``, ``unknown-run``, ``bad-request``) so clients can
react without parsing prose. (The frame codec requires every payload to
be a *typed* object, hence the constant ``type`` on responses.)

Request types::

    ping     -> {ok}
    submit   {config, backend?, jobs?}        -> {ok, run, coalesced}
    status   {run_id}                         -> {ok, run}
    runs     {}                               -> {ok, runs: [...]}
    results  {run_id, offset?, limit?}        -> {ok, ...paged payload}
    stats    {}                               -> {ok, stats}
    drain    {timeout?}                       -> {ok, drained}

Connections are serial per client (request, response, repeat), exactly
like the worker protocol — no pipelining, no partial responses.
"""

from __future__ import annotations

import socket
import threading

from ..cluster.protocol import ConnectionClosed, ProtocolError, recv_message, send_message
from .service import AdmissionError, ScanService, ServiceError, UnknownRunError

__all__ = ["SERVICE_PROTOCOL_VERSION", "ServiceServer"]

#: framed-request schema version; bumped on incompatible change.
SERVICE_PROTOCOL_VERSION = 1


class ServiceServer:
    """Serve a :class:`ScanService` on a TCP address.

    ``host``/``port`` default to an ephemeral loopback port (the bound
    address is ``self.address`` after :meth:`start`). The server owns
    only transport state; stopping it leaves the service running.
    """

    def __init__(self, service: ScanService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: live client connections and their handler threads; guarded by
        #: ``_lock`` so ``stop`` and the accept loop never race on it.
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self.address: tuple[str, int] | None = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(32)
        self._sock = sock
        self.address = sock.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(sock,), name="scan-service-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Stop serving: wake the blocked ``accept`` and every handler
        blocked in a read, then join them all.

        Closing a listening socket does not wake a thread blocked in
        ``accept``, and nothing else would wake a handler parked on an
        idle client, so both get ``shutdown(SHUT_RDWR)`` first. A request
        that arrives after ``stop`` is refused; stopping leaves the
        service itself running.
        """
        with self._lock:
            self._stopping.set()
            conns = dict(self._conns)
        sock, self._sock = self._sock, None
        if sock is not None:
            _shutdown(sock)
            sock.close()
        for conn in conns:
            _shutdown(conn)  # the handler closes it on its way out
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
            self._accept_thread = None
        for thread in conns.values():
            thread.join(5.0)

    # -- transport -------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener shut down under us: clean stop
                return
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="scan-service-conn",
                daemon=True,
            )
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._conns[conn] = thread
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._serve_requests(conn)
        finally:
            with self._lock:
                self._conns.pop(conn, None)
            conn.close()

    def _serve_requests(self, conn: socket.socket) -> None:
        while True:
            try:
                request = recv_message(conn)
            except (ConnectionClosed, ConnectionError, OSError):
                return
            except ProtocolError as exc:
                # unframeable input: answer once, then hang up — the
                # stream offset is unrecoverable.
                _reply(conn, {"ok": False, "error": str(exc), "kind": "bad-request"})
                return
            if self._stopping.is_set():
                _reply(conn, {"ok": False, "error": "server is stopping", "kind": "stopping"})
                return
            if not _reply(conn, self._dispatch(request)):
                return

    # -- request handling ------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        try:
            return self._handle(request)
        except AdmissionError as exc:
            return {"ok": False, "error": str(exc), "kind": "admission"}
        except UnknownRunError as exc:
            return {"ok": False, "error": str(exc), "kind": "unknown-run"}
        except (ServiceError, ValueError) as exc:
            return {"ok": False, "error": str(exc), "kind": "bad-request"}
        except TimeoutError as exc:
            return {"ok": False, "error": str(exc), "kind": "timeout"}

    def _handle(self, request: dict) -> dict:
        if not isinstance(request, dict):
            raise ServiceError("request is not a JSON object")
        version = request.get("protocol_version", SERVICE_PROTOCOL_VERSION)
        if version != SERVICE_PROTOCOL_VERSION:
            raise ServiceError(
                f"service protocol version mismatch — client speaks {version!r}, "
                f"server speaks v{SERVICE_PROTOCOL_VERSION}"
            )
        kind = request.get("type")
        if kind == "ping":
            return {"ok": True, "protocol_version": SERVICE_PROTOCOL_VERSION}
        if kind == "submit":
            config = request.get("config")
            if not isinstance(config, dict):
                raise ServiceError("submit needs a wire-form 'config' object")
            view, coalesced = self.service.submit(
                config,
                backend=request.get("backend"),
                jobs=int(request.get("jobs", 1)),
            )
            return {"ok": True, "run": view, "coalesced": coalesced}
        if kind == "status":
            return {"ok": True, "run": self.service.status(self._run_id(request))}
        if kind == "wait":
            timeout = request.get("timeout")
            view = self.service.wait(
                self._run_id(request),
                timeout=None if timeout is None else float(timeout),
            )
            return {"ok": True, "run": view}
        if kind == "runs":
            return {"ok": True, "runs": self.service.runs()}
        if kind == "results":
            limit = request.get("limit")
            payload = self.service.results(
                self._run_id(request),
                offset=int(request.get("offset", 0)),
                limit=None if limit is None else int(limit),
            )
            return {"ok": True, **payload}
        if kind == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if kind == "drain":
            timeout = request.get("timeout")
            drained = self.service.drain(
                None if timeout is None else float(timeout)
            )
            return {"ok": True, "drained": drained}
        raise ServiceError(f"unknown request type {kind!r}")

    @staticmethod
    def _run_id(request: dict) -> str:
        run_id = request.get("run_id")
        if not isinstance(run_id, str) or not run_id:
            raise ServiceError("request needs a 'run_id' string")
        return run_id


def _shutdown(sock: socket.socket) -> None:
    """``shutdown(SHUT_RDWR)``, ignoring a peer that already went away."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _reply(conn: socket.socket, response: dict) -> bool:
    """Send one response frame; ``False`` when the peer is gone."""
    try:
        send_message(conn, {"type": "response", **response})
    except OSError:
        return False
    return True
