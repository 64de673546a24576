"""Wire-format unit tests for the sweep-service protocol."""

import socket

import pytest

from repro.netsim.simulator import SIMULATOR_REV
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageSocket,
    ProtocolError,
    check_welcome,
    decode_message,
    encode_message,
    hello_message,
    parse_address,
)


class TestFraming:
    def test_roundtrip(self):
        msg = {"type": "work", "key": "abc", "config": {"injection_rate": 0.1}}
        assert decode_message(encode_message(msg).rstrip(b"\n")) == msg

    def test_one_line_per_message(self):
        assert encode_message({"type": "lease"}).endswith(b"\n")
        assert encode_message({"type": "lease"}).count(b"\n") == 1

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json")

    def test_typeless_message_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b'{"no_type": 1}')
        with pytest.raises(ProtocolError):
            decode_message(b'[1, 2, 3]')


class TestHandshake:
    def test_hello_carries_simulator_salt(self):
        msg = hello_message("worker")
        assert msg["salt"] == f"sim-rev-{SIMULATOR_REV}"
        assert msg["version"] == PROTOCOL_VERSION

    def test_welcome_accepted(self):
        check_welcome({"type": "welcome", "version": PROTOCOL_VERSION})

    def test_error_reply_raises_with_server_message(self):
        with pytest.raises(ProtocolError, match="revision mismatch"):
            check_welcome({"type": "error", "message": "revision mismatch"})

    def test_version_skew_raises(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            check_welcome({"type": "welcome", "version": PROTOCOL_VERSION + 1})

    def test_eof_during_handshake_raises(self):
        with pytest.raises(ProtocolError, match="closed the connection"):
            check_welcome(None)


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("example.com:4000") == ("example.com", 4000)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_address(":4000") == ("127.0.0.1", 4000)

    def test_rejects_portless(self):
        with pytest.raises(ValueError):
            parse_address("example.com")
        with pytest.raises(ValueError):
            parse_address("example.com:http")


class TestMessageSocket:
    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        left, right = MessageSocket(a), MessageSocket(b)
        try:
            left.send({"type": "lease"})
            assert right.recv() == {"type": "lease"}
            right.send({"type": "work", "key": "k", "config": {}})
            assert left.recv()["key"] == "k"
        finally:
            left.close()
            right.close()

    def test_recv_returns_none_on_eof(self):
        a, b = socket.socketpair()
        left, right = MessageSocket(a), MessageSocket(b)
        left.close()
        try:
            assert right.recv() is None
        finally:
            right.close()

    def test_connect_disables_nagle(self):
        # The worker sends ``result`` then ``lease`` back to back; with
        # Nagle on, the second write waits out the peer's delayed ACK.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            channel = MessageSocket.connect(*listener.getsockname())
            try:
                assert channel._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ) != 0
                assert channel._sock.gettimeout() is None
            finally:
                channel.close()
