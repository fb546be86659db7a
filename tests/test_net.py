"""The shared frame codec (``repro.net``) and the one-of-each guard.

The property test runs over both codec instances — the store's RSTP and
the replication channel's RPLC — and pins the contract the selectors
daemon relies on: reading a byte stream frame by frame off a blocking
socket and popping it incrementally off a buffer, under *any* split of
the stream, yield the same frames and reject the same garbage with the
protocol's own typed error.
"""

from __future__ import annotations

import inspect
import pathlib
import random
import re
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.store
from repro.errors import ReplicationProtocolError, StoreProtocolError
from repro.net import BIG_FRAME, HEADER, FrameBuffer, FrameCodec
from repro.replication import wire as rplc
from repro.store import protocol as rstp

CODECS = {
    "RSTP": (rstp.CODEC, StoreProtocolError),
    "RPLC": (rplc.CODEC, ReplicationProtocolError),
}


class ChoppedSocket:
    """``recv`` over a fixed byte string, cut at the given offsets."""

    def __init__(self, data: bytes, cuts: list[int]) -> None:
        bounds = [0, *sorted({c % (len(data) + 1) for c in cuts}), len(data)]
        self._parts = [
            data[a:b] for a, b in zip(bounds, bounds[1:]) if a != b
        ]

    def recv(self, n: int) -> bytes:
        if not self._parts:
            return b""  # EOF
        part = self._parts[0]
        self._parts[0] = part[n:]
        if not self._parts[0]:
            self._parts.pop(0)
        return part[:n]

    def recv_into(self, buf, nbytes: int = 0) -> int:
        data = self.recv(nbytes or len(buf))
        buf[: len(data)] = data
        return len(data)


def recv_all(codec: FrameCodec, sock) -> list:
    frames = []
    while (frame := codec.recv_frame(sock, allow_eof=True)) is not None:
        frames.append(frame)
    return frames


def pop_all(codec: FrameCodec, sock) -> list:
    frames, buf = [], bytearray()
    while data := sock.recv(7):
        buf += data
        while (frame := codec.pop_frame(buf)) is not None:
            frames.append(frame)
    assert not buf, "a clean stream leaves no partial frame behind"
    return frames


def buffer_all(codec: FrameCodec, sock) -> list:
    frames, incoming = [], FrameBuffer(codec)
    while incoming.fill(sock):
        while (frame := incoming.pop()) is not None:
            frames.append(frame)
    assert not incoming.buf and incoming.big is None
    return frames


frame_lists = st.lists(
    st.tuples(st.integers(0, 255), st.binary(max_size=200)), max_size=8
)
cut_lists = st.lists(st.integers(0, 4096), max_size=24)


@pytest.mark.parametrize("name", CODECS)
class TestFrameCodecProperty:
    @settings(max_examples=60, deadline=None)
    @given(frames=frame_lists, cuts=cut_lists)
    def test_blocking_and_incremental_readers_agree(self, name, frames, cuts):
        codec, _error = CODECS[name]
        stream = b"".join(
            codec.encode_frame(op, payload) for op, payload in frames
        )
        assert recv_all(codec, ChoppedSocket(stream, cuts)) == frames
        assert pop_all(codec, ChoppedSocket(stream, cuts)) == frames
        assert buffer_all(codec, ChoppedSocket(stream, cuts)) == frames

    @settings(max_examples=10, deadline=None)
    @given(cuts=cut_lists, seed=st.integers(0, 2**16))
    def test_big_frames_are_read_in_place(self, name, cuts, seed):
        """Big payloads read back the same on both readers however the
        stream is cut — the blocking one hands back the bytearray it
        received each into — and sending them as parts puts the same
        bytes on the wire."""
        codec, _error = CODECS[name]
        rng = random.Random(seed)
        frames = [
            (1, b"small"),
            (2, rng.randbytes(BIG_FRAME)),
            (3, b""),
            (4, rng.randbytes(3 * BIG_FRAME + 5)),
        ]
        stream = b"".join(codec.encode_frame(op, p) for op, p in frames)
        a, b = socket.socketpair()
        with a, b:
            sender = threading.Thread(target=lambda: [
                codec.send_frame(a, op, [payload[:7], payload[7:]])
                for op, payload in frames
            ])
            sender.start()
            sent = b""
            while len(sent) < len(stream):
                sent += b.recv(1 << 20)
            sender.join()
        assert sent == stream
        cuts = cuts + [rng.randrange(len(stream)) for _ in range(8)]
        assert buffer_all(codec, ChoppedSocket(stream, cuts)) == frames
        # A big frame whose header came in without the rest is read in
        # place, and that buffer is the payload.
        (big,) = buffer_all(codec, ChoppedSocket(
            codec.encode_frame(*frames[1]), [HEADER.size + 100]
        ))
        assert big == frames[1] and type(big[1]) is bytearray
        got = recv_all(codec, ChoppedSocket(stream, cuts))
        assert got == frames
        assert [type(p) for _op, p in got] == [
            bytes, bytearray, bytes, bytearray
        ]

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(max_size=64), cuts=cut_lists)
    def test_garbage_raises_the_protocols_own_error(self, name, payload, cuts):
        codec, error = CODECS[name]
        good = codec.encode_frame(7, payload)
        damaged = {
            "magic": b"EVIL" + good[4:],
            "version": good[:4] + bytes([codec.version ^ 3]) + good[5:],
            "MAX_FRAME": HEADER.pack(
                codec.magic, codec.version, 7, codec.max_frame + 1
            ),
        }
        for what, stream in damaged.items():
            with pytest.raises(error, match=what):
                recv_all(codec, ChoppedSocket(stream, cuts))
            with pytest.raises(error, match=what):
                pop_all(codec, ChoppedSocket(stream, cuts))
            with pytest.raises(error, match=what):
                buffer_all(codec, ChoppedSocket(stream, cuts))
        # Truncation: the blocking reader sees EOF mid-frame and raises;
        # the incremental one just keeps waiting for the rest.
        torn = good[: len(good) - 1]
        with pytest.raises(error, match="mid-frame"):
            recv_all(codec, ChoppedSocket(torn, cuts))
        assert codec.pop_frame(bytearray(torn)) is None


SRC = pathlib.Path(repro.store.__file__).resolve().parents[2]


def _modules_matching(pattern: str) -> list[str]:
    rx = re.compile(pattern, re.MULTILINE)
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if rx.search(path.read_text())
    )


class TestOneOfEach:
    """Tier-1 guard: the duplicate wire/daemon paths stay deleted."""

    def test_no_socketserver_under_src(self):
        assert _modules_matching(r"^\s*(import|from)\s+socketserver\b") == []

    def test_frame_plumbing_is_defined_once(self):
        assert _modules_matching(r"def _recv_exact\(") == ["repro/net.py"]
        assert _modules_matching(r'struct\.Struct\("<4sBBI"\)') == [
            "repro/net.py"
        ]

    def test_fast_tier_instruction_accounting_is_defined_once(self):
        """The fast dispatch tier charges the preemption countdown in
        ``Interpreter._advance`` and nowhere else; the one other
        decrement in the package is the oracle loop's own."""
        from repro.interpreter.interpreter import Interpreter

        assert _modules_matching(r"_countdown -=") == [
            "repro/interpreter/interpreter.py"
        ]
        source = (SRC / "repro/interpreter/interpreter.py").read_text()
        assert source.count("_countdown -=") == 2
        for site in (Interpreter._advance, Interpreter._run_reference):
            assert inspect.getsource(site).count("_countdown -=") == 1

    def test_store_exports_one_daemon_and_two_clients(self):
        exported = {
            name: getattr(repro.store, name) for name in repro.store.__all__
        }
        daemons = [
            n
            for n, obj in exported.items()
            if hasattr(obj, "start") and hasattr(obj, "stop")
        ]
        clients = [n for n in exported if n.endswith("Client")]
        assert daemons == ["FleetNode"]
        assert sorted(clients) == ["FleetClient", "StoreClient"]

    def test_store_stack_is_one_of_each(self):
        """One wire revision, one protocol module, one daemon class, one
        request validator, one ``host:port`` parser."""
        assert _modules_matching(
            r"wire_rev|SUPPORTED_VERSIONS|RSTP2|recv_message|StoreOpHandlers"
        ) == []
        for definition in (
            r"def decode_ops\(", r"def error_payload\(",
            r"def decode_request\(", r"^VERSION = ",
        ):
            assert [
                m for m in _modules_matching(definition)
                if m.startswith("repro/store/")
            ] == ["repro/store/protocol.py"], definition
        assert _modules_matching(r'rpartition\(":"\)') == [
            "repro/store/client.py"
        ]
        store = SRC / "repro/store"
        daemons = [
            (path.name, re.match(r"\w+", cls).group())
            for path in sorted(store.rglob("*.py"))
            for cls in re.split(r"^class ", path.read_text(), flags=re.M)[1:]
            if "    def start(" in cls and "    def stop(" in cls
        ]
        assert daemons == [("server.py", "FleetNode")]
        # The import graph is a DAG: no load-order pins, no imports
        # deferred into a function body to dodge a cycle.
        assert [
            m for m in _modules_matching(
                r"isort: *skip|^[ \t]+(from|import) repro\.store"
            )
            if m.startswith("repro/store/")
        ] == []
        assert sorted(p.stem for p in (store / "fleet").glob("*.py")) == [
            "__init__", "client", "ring"
        ]
