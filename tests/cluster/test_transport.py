"""Tests for the transports: deterministic loopback and real TCP framing.

TCP tests wait by pumping the receiving transport on the test thread."""

import threading
import time

import pytest

from repro.cluster import LoopbackHub, TcpTransport, TransportError
from repro.cluster import codec
from repro.cluster.protocol import WireEnvelope


class Sink:
    """Starts ``transport`` collecting frames; :meth:`wait_for` pumps it
    until an exact count has arrived."""

    def __init__(self, transport):
        self.transport = transport
        self.frames = []
        transport.start(self.frames.append)

    def wait_for(self, count: int, timeout: float = 10.0) -> list[bytes]:
        deadline = time.monotonic() + timeout
        while len(self.frames) < count:
            assert time.monotonic() < deadline, \
                f"got {len(self.frames)}/{count} frames"
            self.transport.pump(0.05)
        return self.frames


class TestLoopback:
    def test_frames_wait_for_pump(self):
        hub = LoopbackHub()
        ta, tb = hub.transport("a"), hub.transport("b")
        got = []
        ta.start(got.append)
        tb.start(got.append)
        ta.add_peer("b", tb.address)
        ta.send("b", b"hello")
        assert got == []          # nothing moves until the hub is pumped
        assert hub.pending == 1
        hub.pump()
        assert got == [b"hello"]

    def test_fifo_per_destination(self):
        hub = LoopbackHub()
        ta, tb = hub.transport("a"), hub.transport("b")
        got = []
        ta.start(lambda f: None)
        tb.start(got.append)
        ta.add_peer("b", tb.address)
        for i in range(10):
            ta.send("b", str(i).encode())
        hub.pump()
        assert got == [str(i).encode() for i in range(10)]

    def test_disconnected_peer_raises(self):
        hub = LoopbackHub()
        ta, tb = hub.transport("a"), hub.transport("b")
        ta.start(lambda f: None)
        tb.start(lambda f: None)
        ta.add_peer("b", tb.address)
        hub.disconnect("b")
        with pytest.raises(TransportError):
            ta.send("b", b"x")

    def test_unknown_peer_raises(self):
        hub = LoopbackHub()
        ta = hub.transport("a")
        ta.start(lambda f: None)
        with pytest.raises(TransportError):
            ta.send("ghost", b"x")


class TestTcp:
    def test_round_trip_both_directions(self):
        ta = TcpTransport(port=0)
        tb = TcpTransport(port=0)
        try:
            sink_a, sink_b = Sink(ta), Sink(tb)
            ta.add_peer("b", tb.address)
            tb.add_peer("a", ta.address)
            ta.send("b", b"ping")
            assert sink_b.wait_for(1) == [b"ping"]
            tb.send("a", b"pong")
            assert sink_a.wait_for(1) == [b"pong"]
        finally:
            ta.close()
            tb.close()

    def test_many_frames_stay_ordered(self):
        ta = TcpTransport(port=0)
        tb = TcpTransport(port=0)
        try:
            ta.start(lambda f: None)
            sink = Sink(tb)
            ta.add_peer("b", tb.address)
            frames = [f"frame-{i}".encode() for i in range(500)]
            for frame in frames:
                ta.send("b", frame)
            assert sink.wait_for(500) == frames
        finally:
            ta.close()
            tb.close()

    def test_binary_safety_and_large_frame(self):
        ta = TcpTransport(port=0)
        tb = TcpTransport(port=0)
        try:
            ta.start(lambda f: None)
            sink = Sink(tb)
            ta.add_peer("b", tb.address)
            blob = bytes(range(256)) * 4096   # 1 MiB, every byte value
            ta.send("b", blob)
            assert sink.wait_for(1)[0] == blob
        finally:
            ta.close()
            tb.close()

    def test_send_to_unknown_peer_raises(self):
        ta = TcpTransport(port=0)
        try:
            ta.start(lambda f: None)
            with pytest.raises(TransportError):
                ta.send("ghost", b"x")
        finally:
            ta.close()

    def test_send_to_dead_peer_latches_error(self):
        """Delivery failures happen in the writer thread (send never blocks
        on connect); the error latches and the *next* send raises."""
        import time

        ta = TcpTransport(port=0)
        ta.start(lambda f: None)
        # Port 1 refuses deterministically; a closed listener's ephemeral
        # port can self-connect on Linux (simultaneous open).
        ta.add_peer("b", ("127.0.0.1", 1))
        try:
            ta.send("b", b"x")    # enqueues; the writer thread fails
            deadline = time.monotonic() + 10.0
            while ta.send_errors == 0:
                assert time.monotonic() < deadline, "writer never failed"
                time.sleep(0.01)
            with pytest.raises(TransportError):
                ta.send("b", b"y")
        finally:
            ta.close()

    def test_full_outbound_queue_applies_backpressure(self, monkeypatch):
        """With the writer thread stuck in connection setup, a bounded
        queue fills and send() raises after the block timeout — dispatch
        threads are never wedged behind a slow peer."""
        from repro.cluster import transport as transport_mod

        release = threading.Event()

        def stuck_connect(addr, timeout=None):
            release.wait(30.0)
            raise OSError("unreachable")

        monkeypatch.setattr(transport_mod.socket, "create_connection",
                            stuck_connect)
        ta = TcpTransport(port=0, queue_frames=2, block_timeout_s=0.05)
        ta.start(lambda f: None)
        ta.add_peer("b", ("127.0.0.1", 1))
        try:
            deadline = threading.Event()
            # First frame is taken by the writer (now stuck in connect);
            # the next two fill the bounded queue.
            for _ in range(8):
                try:
                    ta.send("b", b"x")
                except TransportError:
                    deadline.set()
                    break
            assert deadline.is_set(), "queue never filled"
            assert ta.enqueue_timeouts >= 1
        finally:
            release.set()
            ta.close()

    def test_reader_threads_are_reaped(self):
        """Reader threads of closed connections are pruned on later
        accepts instead of accumulating one per connection ever made."""
        import time

        tb = TcpTransport(port=0)
        sink = Sink(tb)
        try:
            sent = 0
            deadline = time.monotonic() + 20.0
            while True:
                ta = TcpTransport(port=0)
                ta.start(lambda f: None)
                ta.add_peer("b", tb.address)
                ta.send("b", b"x")
                sent += 1
                sink.wait_for(sent)
                ta.close()
                # accept thread + the just-created reader + at most a
                # couple of not-yet-exited older readers
                if sent >= 6 and len(tb._threads) <= 4:
                    break
                assert time.monotonic() < deadline, \
                    f"thread list never pruned: {len(tb._threads)}"
        finally:
            tb.close()

    def test_stats_counters(self):
        ta = TcpTransport(port=0)
        tb = TcpTransport(port=0)
        try:
            ta.start(lambda f: None)
            sink = Sink(tb)
            ta.add_peer("b", tb.address)
            for i in range(10):
                ta.send("b", b"abc")
            sink.wait_for(10)
            # Delivery can be observed before the writer thread updates
            # its counters (it increments after sendall returns), so give
            # the sender a bounded window to catch up.
            deadline = time.monotonic() + 5.0
            while (ta.stats()["frames_sent"] < 10
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            stats = ta.stats()
            assert stats["frames_sent"] == 10
            assert stats["bytes_sent"] == 10 * (4 + 3)
            assert 1 <= stats["writes"] <= 10   # coalescing may merge
            assert stats["send_errors"] == 0
        finally:
            ta.close()
            tb.close()


class TestCodec:
    def test_wire_envelope_round_trip(self):
        env = WireEnvelope(kind="sharded", src="n1", entity="vessel",
                           key=239000001, message={"t": 1.5}, hops=1)
        assert codec.decode(codec.encode(env)) == env

    def test_platform_message_round_trip(self):
        from repro.ais.message import AISMessage
        from repro.platform.messages import PositionIngested

        msg = PositionIngested(AISMessage(mmsi=1, t=0.0, lat=37.9,
                                          lon=23.5, sog=10.0, cog=90.0))
        out = codec.decode(codec.encode(msg))
        assert out.message.mmsi == 1
        assert out.message.lat == pytest.approx(37.9)

    def test_untrusted_global_rejected(self):
        import pickle

        payload = pickle.dumps(pytest.raises)  # _pytest.* is not trusted
        with pytest.raises(codec.WireDecodeError):
            codec.decode(payload)

    def test_os_system_rejected(self):
        import os
        import pickle

        payload = pickle.dumps(os.system)
        with pytest.raises(codec.WireDecodeError):
            codec.decode(payload)
