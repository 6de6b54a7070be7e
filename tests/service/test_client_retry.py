"""Connection retry and request replay discipline of the service client.

The client promises: connection attempts back off exponentially with
bounded jitter (injectable sleep/rng, so the schedule is asserted without
real waiting); a dropped connection replays *idempotent* requests once
over a fresh socket; and ``submit`` is never replayed — a replay would
double-run the job.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.service import CheckService
from repro.service.client import (
    CONNECT_ATTEMPTS,
    IDEMPOTENT_OPS,
    ServiceClient,
    ServiceClientError,
)
from repro.service.server import CheckServer


class _ZeroRandom(random.Random):
    """Deterministic rng: random() is always 0.0 (no jitter)."""

    def random(self):
        return 0.0


class TestConnectRetry:
    def test_unreachable_port_retries_with_backoff(self):
        sleeps = []
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(
                host="127.0.0.1", port=1,  # reserved, nothing listens
                connect_timeout=0.05,
                connect_attempts=4, connect_backoff=0.1,
                sleep=sleeps.append, rng=_ZeroRandom(),
            )
        # Attempt 1 is immediate; each retry doubles the previous delay.
        assert sleeps == [0.1, 0.2, 0.4]
        assert excinfo.value.kind == "ConnectionError"
        assert "after 4 attempt(s)" in str(excinfo.value)

    def test_jitter_scales_the_delay(self):
        class _MaxRandom(random.Random):
            def random(self):
                return 1.0

        sleeps = []
        with pytest.raises(ServiceClientError):
            ServiceClient(
                host="127.0.0.1", port=1,
                connect_timeout=0.05,
                connect_attempts=2, connect_backoff=0.1,
                sleep=sleeps.append, rng=_MaxRandom(),
            )
        assert sleeps == [pytest.approx(0.125)]  # 0.1 * (1 + 0.25)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(port=1, connect_attempts=0)

    def test_defaults_are_sane(self):
        assert CONNECT_ATTEMPTS >= 3  # a restarting server gets a chance


class _FlakyServer(threading.Thread):
    """A server that drops the first connection after one request."""

    def __init__(self):
        super().__init__(daemon=True)
        self.port = None
        self._ready = threading.Event()
        self.requests_seen = 0

    def run(self):
        import json
        import socket

        listener = socket.create_server(("127.0.0.1", 0))
        self.port = listener.getsockname()[1]
        self._ready.set()
        connections = 0
        while connections < 3:
            conn, _addr = listener.accept()
            connections += 1
            # The file object keeps the socket open: it must close first
            # (``with`` exits right to left), or the peer gets no EOF and
            # waits out its timeout.
            with conn, conn.makefile("rwb") as file:
                line = file.readline()
                if not line:
                    continue
                self.requests_seen += 1
                if connections == 1:
                    # First connection: drop without answering.
                    continue
                file.write(
                    (json.dumps({"ok": True, "pong": "test"}) + "\n").encode()
                )
                file.flush()
        listener.close()

    def wait_ready(self):
        self._ready.wait(5.0)
        return self.port


class TestRequestRetry:
    def test_idempotent_request_survives_a_dropped_connection(self):
        server = _FlakyServer()
        server.start()
        port = server.wait_ready()
        client = ServiceClient(
            host="127.0.0.1", port=port, timeout=5.0,
            sleep=lambda _s: None, rng=_ZeroRandom(),
        )
        try:
            # First exchange dies with the connection; 'ping' is
            # idempotent, so the client reconnects and replays it.
            assert client.ping() == "test"
            assert server.requests_seen == 2
        finally:
            client.close()

    def test_submit_is_never_replayed(self):
        assert "submit" not in IDEMPOTENT_OPS
        server = _FlakyServer()
        server.start()
        port = server.wait_ready()
        client = ServiceClient(
            host="127.0.0.1", port=port, timeout=5.0,
            sleep=lambda _s: None, rng=_ZeroRandom(),
        )
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit("storage-3-1")
            assert excinfo.value.kind == "ConnectionError"
            assert server.requests_seen == 1  # no replay
        finally:
            client.close()

    def test_cancel_is_idempotent(self):
        assert "cancel" in IDEMPOTENT_OPS


class TestAgainstRealServer:
    def test_cancel_op_round_trip(self):
        async def run_all():
            service = CheckService(workers=1)
            # The blocker holds the only slot until the cancel has round-
            # tripped, so the second job is still queued when the cancel
            # arrives however slowly the client connects.
            release = threading.Event()
            execute = service._execute

            def gated_execute(slot, job):
                if job.request.model == "single":
                    release.wait(timeout=30.0)
                execute(slot, job)

            service._execute = gated_execute
            server = CheckServer(service, port=0)
            await server.start()
            from repro.service import JobRequest

            blocker = await service.submit(
                JobRequest(cell="multicast-3-0-1-1", model="single")
            )
            queued = await service.submit(
                JobRequest(cell="multicast-3-0-1-1")
            )
            loop = asyncio.get_running_loop()

            def client_cancel():
                with ServiceClient(port=server.port) as client:
                    return client.cancel(queued.id, wait=True)

            try:
                record = await loop.run_in_executor(None, client_cancel)
            finally:
                release.set()
            await service.wait(blocker.id)
            await server.stop()
            return record

        record = asyncio.run(run_all())
        assert record["status"] == "cancelled"
        assert record["job"].startswith("job-")
