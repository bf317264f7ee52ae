"""Node-to-node transports.

Three implementations of one small contract (:class:`Transport`):

* :class:`LoopbackTransport` — in-process queues behind a shared
  :class:`LoopbackHub`. Frames are *not* delivered inline on ``send``;
  they sit in the destination's inbox until the hub is pumped, so tests
  control interleaving exactly (deterministic, no threads, no sleeps).
* :class:`TcpTransport` — real sockets with length-prefixed frames
  (4-byte big-endian length + payload). Inbound: one background reader
  thread per connection appends whole frames to one inbox, which
  :meth:`TcpTransport.pump` delivers on the calling thread. Outbound: one
  writer thread per peer behind a bounded queue, so actor dispatch never
  blocks on ``sendall`` or connection setup; a full queue applies
  backpressure (block with timeout, then :class:`TransportError`).
* :class:`BatchingTransport` — a decorator over either of the above that
  coalesces outbound frames per peer into one multi-envelope container
  frame (``linger_ms`` / ``max_batch_bytes`` / ``max_batch_msgs``), the
  micro-batching that closes the cross-node throughput gap. Receivers
  unwrap container frames transparently.

All carry opaque byte frames; meaning (sender, target, correlation) lives
inside the encoded :class:`~repro.cluster.protocol.WireEnvelope`, so the
transports are interchangeable above this line. Whatever the transport,
``on_frame`` runs only on the thread that pumps — the hub's caller for
loopback, :meth:`Transport.pump`'s caller otherwise.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.cluster import codec


class TransportError(RuntimeError):
    """A frame could not be handed to the destination node."""


class Transport:
    """Minimal contract shared by the loopback, TCP and batching
    transports."""

    #: Externally reachable address peers use to send to this transport
    #: (node id for loopback, ``(host, port)`` for TCP).
    address: Any = None

    def start(self, on_frame: Callable[[bytes], None]) -> None:
        """Begin accepting inbound frames, to be delivered to ``on_frame``."""
        raise NotImplementedError

    def pump(self, timeout_s: float = 0.0) -> int:
        """Deliver the inbound frames queued so far to ``on_frame`` on the
        calling thread, waiting up to ``timeout_s`` for the first; returns
        how many were delivered. Loopback endpoints return 0: their hub
        delivers them (:meth:`LoopbackHub.pump`)."""
        return 0

    def add_peer(self, node_id: str, address: Any) -> None:
        """Register where ``node_id`` can be reached."""
        raise NotImplementedError

    def send(self, node_id: str, frame: bytes) -> None:
        """Queue one frame for ``node_id``; raises :class:`TransportError`
        if the destination is known to be unreachable."""
        raise NotImplementedError

    def flush(self) -> int:
        """Push any locally buffered outbound frames to the wire; returns
        how many frames moved (0 for unbuffered transports)."""
        return 0

    def stats(self) -> dict:
        """Monotonic outbound counters for node-level observability."""
        return {}

    def bind_telemetry(self, registry) -> None:
        """Attach this transport's metrics to a
        :class:`~repro.telemetry.MetricsRegistry`. The default is a no-op;
        implementations register snapshot-time callback gauges over their
        plain counters (zero hot-path cost) plus the histograms that need
        per-event observations (batch sizes)."""

    def close(self) -> None:
        """Stop accepting and release resources."""


# -- loopback --------------------------------------------------------------------


class LoopbackHub:
    """The shared medium connecting a set of in-process transports.

    ``pump()`` delivers queued frames in a deterministic order (nodes
    sorted by id, FIFO within each inbox) — the cluster-level analogue of
    :meth:`ActorSystem.run_until_idle`. Batching transports layered over
    loopback endpoints register flush hooks here, and ``pump`` flushes them
    synchronously before each delivery round, so batched loopback runs stay
    exactly as deterministic as unbatched ones.
    """

    def __init__(self) -> None:
        self._transports: dict[str, "LoopbackTransport"] = {}
        self._flushers: list[Callable[[], int]] = []
        self.frames_delivered = 0
        self.frames_dropped = 0

    def transport(self, node_id: str) -> "LoopbackTransport":
        """Create (or return) the transport endpoint for ``node_id``."""
        t = self._transports.get(node_id)
        if t is None:
            t = LoopbackTransport(self, node_id)
            self._transports[node_id] = t
        return t

    def register_flusher(self, flush: Callable[[], int]) -> None:
        """Register an outbound-buffer flush hook run before every pump
        round (used by :class:`BatchingTransport` over loopback)."""
        self._flushers.append(flush)

    def disconnect(self, node_id: str) -> None:
        """Abruptly remove a node (simulates a crash/partition): its queued
        inbox frames are discarded and future sends to it fail."""
        t = self._transports.pop(node_id, None)
        if t is not None:
            self.frames_dropped += len(t._inbox)
            t._inbox.clear()
            t._closed = True

    def _enqueue(self, dest: str, frame: bytes, src: str | None = None) -> None:
        """Accept one frame from ``src`` for ``dest``'s inbox.

        This is the fault-injection hook point: ``repro.sim.SimHub``
        overrides it to drop, duplicate, delay or partition frames per
        (src, dest) link before they reach an inbox.
        """
        t = self._transports.get(dest)
        if t is None or t._on_frame is None:
            raise TransportError(f"loopback destination {dest!r} unreachable")
        t._inbox.append(frame)

    def _flush_all(self) -> int:
        flushed = 0
        for flush in self._flushers:
            flushed += flush()
        return flushed

    def pump(self, max_frames: int = 100_000) -> int:
        """Deliver queued frames until every inbox is empty.

        Frames enqueued *during* delivery are delivered too (same pump),
        bounded by ``max_frames`` for livelock protection.
        """
        delivered = 0
        progress = True
        while progress:
            progress = self._flush_all() > 0
            for node_id in sorted(self._transports):
                t = self._transports.get(node_id)
                if t is None:
                    continue
                while t._inbox:
                    frame = t._inbox.popleft()
                    delivered += 1
                    self.frames_delivered += 1
                    if delivered > max_frames:
                        raise RuntimeError("loopback pump exceeded max_frames (livelock?)")
                    t._on_frame(frame)
                    progress = True
        return delivered

    @property
    def pending(self) -> int:
        return sum(len(t._inbox) for t in self._transports.values())


class LoopbackTransport(Transport):
    """One node's endpoint on a :class:`LoopbackHub`."""

    def __init__(self, hub: LoopbackHub, node_id: str) -> None:
        self._hub = hub
        self.node_id = node_id
        self.address = node_id
        self._inbox: deque[bytes] = deque()
        self._on_frame: Callable[[bytes], None] | None = None
        self._closed = False

    def start(self, on_frame: Callable[[bytes], None]) -> None:
        self._on_frame = on_frame

    def add_peer(self, node_id: str, address: Any) -> None:
        # Loopback peers are addressed by node id on the shared hub —
        # nothing to resolve.
        pass

    def send(self, node_id: str, frame: bytes) -> None:
        if self._closed:
            raise TransportError(f"transport of {self.node_id!r} is closed")
        self._hub._enqueue(node_id, frame, src=self.node_id)

    def close(self) -> None:
        self._hub.disconnect(self.node_id)


# -- TCP -------------------------------------------------------------------------

_LEN = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024

#: Sentinel telling a peer writer thread to exit.
_STOP = object()


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


class _PeerWriter:
    """Outbound state for one peer: bounded queue + dedicated writer
    thread + (lazily opened) connection. ``failed`` latches delivery
    errors so the next ``send`` can surface one :class:`TransportError`;
    a successful write clears the latch."""

    __slots__ = ("node_id", "queue", "thread", "conn", "failed", "last_error")

    def __init__(self, node_id: str, maxsize: int) -> None:
        self.node_id = node_id
        self.queue: queue.Queue = queue.Queue(maxsize)
        self.thread: threading.Thread | None = None
        self.conn: socket.socket | None = None
        self.failed = threading.Event()
        self.last_error: str | None = None


class TcpTransport(Transport):
    """Length-prefixed frames over TCP with background reader and writer
    threads that only move bytes.

    One listening socket per node. Each peer gets a dedicated writer
    thread draining a bounded queue, so ``send`` is a non-blocking enqueue
    (actor dispatch never waits on ``connect`` or ``sendall``); the writer
    coalesces queued frames into a single ``sendall`` when it finds more
    than one waiting. When a queue fills, ``send`` blocks up to
    ``block_timeout_s`` and then raises — the backpressure boundary.
    Reader threads append the frames of every connection to one inbox and
    :meth:`pump` hands them to ``on_frame`` on the calling thread — ordering
    is preserved per sender (one TCP stream each), not across senders,
    matching actor semantics.

    Delivery failures are detected in the writer thread; they latch a
    per-peer error that the *next* ``send`` to that peer raises (the
    cluster's heartbeat failure detector is the authoritative signal).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_frames: int = 10_000,
        block_timeout_s: float = 2.0,
        connect_timeout_s: float = 5.0,
        coalesce_bytes: int = 256 * 1024,
    ) -> None:
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(16)
        self.address = self._server.getsockname()
        self._queue_frames = queue_frames
        self._block_timeout_s = block_timeout_s
        self._connect_timeout_s = connect_timeout_s
        self._coalesce_bytes = coalesce_bytes
        self._peers: dict[str, tuple[str, int]] = {}
        self._writers: dict[str, _PeerWriter] = {}
        self._lock = threading.Lock()
        self._on_frame: Callable[[bytes], None] | None = None
        #: Inbound frames from every reader thread, drained by :meth:`pump`.
        self._inbox: queue.SimpleQueue[bytes] = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._closed = False
        self.send_errors = 0
        self.enqueue_timeouts = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.writes = 0

    def start(self, on_frame: Callable[[bytes], None]) -> None:
        self._on_frame = on_frame
        t = threading.Thread(
            target=self._accept_loop, name=f"tcp-accept-{self.address[1]}", daemon=True
        )
        t.start()
        self._threads.append(t)

    def add_peer(self, node_id: str, address: Any) -> None:
        with self._lock:
            self._peers[node_id] = (str(address[0]), int(address[1]))

    # -- outbound ------------------------------------------------------------------

    def _writer_for(self, node_id: str) -> _PeerWriter:
        with self._lock:
            if node_id not in self._peers:
                raise TransportError(f"no known address for node {node_id!r}")
            writer = self._writers.get(node_id)
            if writer is None:
                writer = _PeerWriter(node_id, self._queue_frames)
                self._writers[node_id] = writer
                writer.thread = threading.Thread(
                    target=self._writer_loop,
                    args=(writer,),
                    name=f"tcp-writer-{self.address[1]}-{node_id}",
                    daemon=True,
                )
                writer.thread.start()
            return writer

    def send(self, node_id: str, frame: bytes) -> None:
        if self._closed:
            raise TransportError("transport is closed")
        writer = self._writer_for(node_id)
        if writer.failed.is_set():
            writer.failed.clear()
            raise TransportError(f"send to {node_id} failed: {writer.last_error}")
        try:
            writer.queue.put(frame, timeout=self._block_timeout_s)
        except queue.Full:
            self.enqueue_timeouts += 1
            raise TransportError(
                f"outbound queue to {node_id} full "
                f"({self._queue_frames} frames) for "
                f"{self._block_timeout_s}s"
            ) from None

    def _writer_loop(self, writer: _PeerWriter) -> None:
        while True:
            item = writer.queue.get()
            if item is _STOP:
                return
            frames = [item]
            size = len(item)
            stop = False
            # Opportunistic coalescing: everything already queued goes out
            # in one sendall (bounded so one write stays cheap to retry).
            while size < self._coalesce_bytes:
                try:
                    nxt = writer.queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                frames.append(nxt)
                size += len(nxt)
            self._write_frames(writer, frames)
            if stop:
                return

    def _write_frames(self, writer: _PeerWriter, frames: list[bytes]) -> None:
        payload = b"".join(_LEN.pack(len(f)) + f for f in frames)
        with self._lock:
            addr = self._peers.get(writer.node_id)
        if addr is None:
            self._record_failure(writer, len(frames), "peer removed")
            return
        for attempt in (0, 1):
            sock = writer.conn
            if sock is None:
                try:
                    sock = socket.create_connection(addr, timeout=self._connect_timeout_s)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    writer.conn = sock
                except OSError as exc:
                    self._record_failure(writer, len(frames), f"cannot connect to {addr}: {exc}")
                    return
            try:
                sock.sendall(payload)
                writer.failed.clear()
                self.frames_sent += len(frames)
                self.bytes_sent += len(payload)
                self.writes += 1
                return
            except OSError as exc:
                # Stale connection — drop it and retry once fresh.
                try:
                    sock.close()
                except OSError:
                    pass
                writer.conn = None
                if attempt == 1:
                    self._record_failure(writer, len(frames), str(exc))

    def _record_failure(self, writer: _PeerWriter, n_frames: int, error: str) -> None:
        writer.last_error = error
        writer.failed.set()
        self.send_errors += n_frames

    # -- inbound -------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name=f"tcp-reader-{self.address[1]}",
                daemon=True,
            )
            t.start()
            # Reap finished reader threads so churny peers don't grow the
            # list without bound.
            self._threads = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            while not self._closed:
                header = _read_exact(conn, _LEN.size)
                if header is None:
                    return
                (length,) = _LEN.unpack(header)
                if length > MAX_FRAME:
                    return  # protocol violation; drop the connection
                frame = _read_exact(conn, length)
                if frame is None:
                    return
                self._inbox.put(frame)
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def pump(self, timeout_s: float = 0.0) -> int:
        try:
            frames = [self._inbox.get(timeout=timeout_s)]
        except queue.Empty:
            return 0
        # Only what is queued now: readers may keep appending, and a pump
        # must return.
        frames.extend(self._inbox.get_nowait() for _ in range(self._inbox.qsize()))
        for frame in frames:
            self._on_frame(frame)
        return len(frames)

    # -- introspection / lifecycle --------------------------------------------------

    @property
    def queued_frames(self) -> int:
        with self._lock:
            writers = list(self._writers.values())
        return sum(w.queue.qsize() for w in writers)

    def stats(self) -> dict:
        return {
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "writes": self.writes,
            "send_errors": self.send_errors,
            "enqueue_timeouts": self.enqueue_timeouts,
            "queued_frames": self.queued_frames,
        }

    def bind_telemetry(self, registry) -> None:
        # Callback gauges evaluated at snapshot time: the send path and
        # the writer threads pay nothing.
        registry.gauge("transport_frames_sent", fn=lambda: self.frames_sent)
        registry.gauge("transport_bytes_sent", fn=lambda: self.bytes_sent)
        registry.gauge("transport_writes", fn=lambda: self.writes)
        registry.gauge("transport_send_errors", fn=lambda: self.send_errors)
        #: Backpressure events: sends that timed out on a full queue.
        registry.gauge("transport_backpressure_events", fn=lambda: self.enqueue_timeouts)
        registry.gauge("transport_queued_frames", fn=lambda: self.queued_frames)

    def close(self) -> None:
        self._closed = True
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            writers = list(self._writers.values())
            self._writers.clear()
        for writer in writers:
            while True:
                try:
                    writer.queue.put_nowait(_STOP)
                    break
                except queue.Full:
                    try:
                        writer.queue.get_nowait()
                    except queue.Empty:
                        pass
        for writer in writers:
            if writer.thread is not None:
                writer.thread.join(timeout=1.0)
            if writer.conn is not None:
                try:
                    writer.conn.close()
                except OSError:
                    pass


# -- batching decorator ----------------------------------------------------------


class BatchingTransport(Transport):
    """Per-peer outbound micro-batching over any inner transport.

    ``send`` appends to a per-peer buffer; a buffer is flushed as **one**
    container frame (:func:`repro.cluster.codec.encode_batch`) when it
    reaches ``max_batch_msgs`` or ``max_batch_bytes``, when ``linger_ms``
    elapses (background flusher thread, TCP mode), or on an explicit
    :meth:`flush`. Over a :class:`LoopbackTransport` no thread is started:
    the hub pumps this transport's flush hook synchronously before every
    delivery round, keeping deterministic tests exact. Single-frame
    buffers are sent unwrapped, so a batched sender interoperates with any
    receiver and pays no container overhead at low rates. Inbound,
    :meth:`pump` is the inner transport's, so container frames unwrap on
    the pumping thread.

    Delivery failures during a flush are absorbed (frames counted in
    ``frames_dropped``): once batching is on, loss of in-flight frames to
    a dead peer falls inside the cluster's documented redelivery window —
    the heartbeat failure detector, not the send path, is the
    authoritative failure signal.
    """

    def __init__(
        self,
        inner: Transport,
        linger_ms: float = 2.0,
        max_batch_bytes: int = 64 * 1024,
        max_batch_msgs: int = 128,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_msgs < 1:
            raise ValueError("max_batch_msgs must be >= 1")
        self.inner = inner
        self.linger_ms = linger_ms
        self.max_batch_bytes = max_batch_bytes
        self.max_batch_msgs = max_batch_msgs
        self._clock = clock
        self._lock = threading.Lock()
        self._buffers: dict[str, list[bytes]] = {}
        self._sizes: dict[str, int] = {}
        self._oldest: dict[str, float] = {}
        self._flush_locks: dict[str, threading.Lock] = {}
        self._stop = threading.Event()
        self._flusher: threading.Thread | None = None
        self._on_frame: Callable[[bytes], None] | None = None
        self.batches_sent = 0
        self.frames_batched = 0
        self.batched_bytes = 0
        self.frames_dropped = 0
        #: Why batches left the buffer: ``capacity`` (size/count bound
        #: hit on send), ``linger`` (background timer) or ``explicit``
        #: (direct ``flush()`` calls — the loopback hub's pump path).
        self.flush_reasons = {"capacity": 0, "linger": 0, "explicit": 0}
        self._tel_batch_frames = None
        self._tel_batch_bytes = None
        self._tel_flush_counters: dict[str, Any] | None = None

    @property
    def address(self) -> Any:  # type: ignore[override]
        return self.inner.address

    # -- lifecycle -----------------------------------------------------------------

    def start(self, on_frame: Callable[[bytes], None]) -> None:
        self._on_frame = on_frame
        self.inner.start(self._unwrap)
        hub = getattr(self.inner, "_hub", None)
        if hub is not None:
            # Deterministic loopback: the hub flushes us before each pump
            # round instead of a wall-clock thread.
            hub.register_flusher(self.flush)
        elif self.linger_ms > 0:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="batch-flusher", daemon=True
            )
            self._flusher.start()

    def pump(self, timeout_s: float = 0.0) -> int:
        return self.inner.pump(timeout_s)

    def close(self) -> None:
        self._stop.set()
        try:
            self.flush()
        except Exception:
            pass
        if self._flusher is not None:
            self._flusher.join(timeout=1.0)
        self.inner.close()

    # -- outbound ------------------------------------------------------------------

    def add_peer(self, node_id: str, address: Any) -> None:
        self.inner.add_peer(node_id, address)

    def send(self, node_id: str, frame: bytes) -> None:
        with self._lock:
            buf = self._buffers.get(node_id)
            if buf is None:
                buf = self._buffers[node_id] = []
                self._sizes[node_id] = 0
                self._flush_locks.setdefault(node_id, threading.Lock())
            if not buf:
                self._oldest[node_id] = self._clock()
            buf.append(frame)
            self._sizes[node_id] += len(frame)
            full = len(buf) >= self.max_batch_msgs or self._sizes[node_id] >= self.max_batch_bytes
        if full:
            self._flush_peer(node_id, reason="capacity")

    def flush(self, node_id: str | None = None) -> int:
        """Flush one peer's buffer (or all of them); returns the number of
        frames pushed to the inner transport."""
        if node_id is not None:
            return self._flush_peer(node_id, reason="explicit")
        with self._lock:
            peers = sorted(k for k, v in self._buffers.items() if v)
        return sum(self._flush_peer(peer, reason="explicit") for peer in peers)

    def _flush_peer(self, node_id: str, reason: str = "explicit") -> int:
        # The per-peer flush lock is held across take-buffer + inner.send
        # so the linger flusher and the pumping thread cannot reorder a
        # peer's batches.
        flush_lock = self._flush_locks.get(node_id)
        if flush_lock is None:
            return 0
        with flush_lock:
            with self._lock:
                frames = self._buffers.get(node_id) or []
                if not frames:
                    return 0
                self._buffers[node_id] = []
                self._sizes[node_id] = 0
            blob = frames[0] if len(frames) == 1 else codec.encode_batch(frames)
            try:
                self.inner.send(node_id, blob)
            except TransportError:
                self.frames_dropped += len(frames)
                return 0
            self.batches_sent += 1
            self.frames_batched += len(frames)
            self.batched_bytes += len(blob)
            self.flush_reasons[reason] += 1
            if self._tel_batch_frames is not None:
                self._tel_batch_frames.observe(len(frames))
                self._tel_batch_bytes.observe(len(blob))
                self._tel_flush_counters[reason].inc()
            return len(frames)

    def _flush_loop(self) -> None:
        linger_s = self.linger_ms / 1e3
        while not self._stop.wait(linger_s / 2):
            now = self._clock()
            with self._lock:
                due = sorted(
                    peer
                    for peer, buf in self._buffers.items()
                    if buf and now - self._oldest.get(peer, now) >= linger_s
                )
            for peer in due:
                self._flush_peer(peer, reason="linger")

    # -- inbound -------------------------------------------------------------------

    def _unwrap(self, frame: bytes) -> None:
        if codec.is_batch(frame):
            for sub in codec.decode_batch(frame):
                self._on_frame(sub)
        else:
            self._on_frame(frame)

    # -- introspection -------------------------------------------------------------

    @property
    def buffered_frames(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers.values())

    def stats(self) -> dict:
        merged = dict(self.inner.stats())
        merged.update(
            {
                "batches_sent": self.batches_sent,
                "frames_batched": self.frames_batched,
                "batched_bytes": self.batched_bytes,
                "frames_dropped": self.frames_dropped,
                "buffered_frames": self.buffered_frames,
                "flush_reasons": dict(self.flush_reasons),
            }
        )
        return merged

    def bind_telemetry(self, registry) -> None:
        self._tel_batch_frames = registry.histogram("transport_batch_frames")
        self._tel_batch_bytes = registry.histogram("transport_batch_bytes")
        self._tel_flush_counters = {
            reason: registry.counter("transport_flush_total", {"reason": reason})
            for reason in self.flush_reasons
        }
        registry.gauge("transport_batches_sent", fn=lambda: self.batches_sent)
        registry.gauge("transport_frames_batched", fn=lambda: self.frames_batched)
        registry.gauge("transport_batched_bytes", fn=lambda: self.batched_bytes)
        registry.gauge("transport_frames_dropped", fn=lambda: self.frames_dropped)
        registry.gauge("transport_buffer_occupancy_frames", fn=lambda: self.buffered_frames)
        self.inner.bind_telemetry(registry)
