"""Client-side behaviour: transport-error taxonomy and retry policy.

The regression pinned here: a connection dropped mid-exchange raises
``http.client.BadStatusLine`` — an ``HTTPException``, *not* an
``OSError`` — and the load generator used to let it kill the worker
thread instead of counting it as an error.
"""

import http.client
import socket
import threading

import pytest

from repro.errors import ExecutionError
from repro.serving import BackgroundServer, RetryPolicy, ServingConfig
from repro.serving import client


@pytest.fixture
def garbage_server():
    """A listener that answers every connection with a non-HTTP line
    then closes — the client sees ``BadStatusLine`` (HTTPException)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    sock.settimeout(0.1)
    stop = threading.Event()
    accepted = []

    def serve():
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            accepted.append(1)
            try:
                conn.recv(65536)
                conn.sendall(b"garbage\r\n\r\n")
            except OSError:
                pass
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1", sock.getsockname()[1], accepted
    finally:
        stop.set()
        thread.join(timeout=2.0)
        sock.close()


class TestTransportErrors:
    def test_http_exception_is_a_transport_error(self):
        assert http.client.HTTPException in client.TRANSPORT_ERRORS
        assert OSError in client.TRANSPORT_ERRORS
        assert issubclass(http.client.BadStatusLine,
                          http.client.HTTPException)
        assert not issubclass(http.client.BadStatusLine, OSError)

    def test_garbage_response_raises_http_exception(self, garbage_server,
                                                    rows):
        host, port, _ = garbage_server
        with pytest.raises(http.client.HTTPException):
            client.predict(host, port, "toy", rows[0], timeout=5.0)

    def test_run_load_counts_transport_errors(self, garbage_server, rows):
        """Workers must survive BadStatusLine and count it — the report
        error count proves no thread died mid-run."""
        host, port, _ = garbage_server
        with pytest.raises(ExecutionError, match=r"\(2 errors\)"):
            client.run_load(
                host, port, "toy", rows,
                concurrency=1, requests_per_worker=2, timeout=5.0,
            )


class TestRetryTransport:
    def test_retry_exhausts_attempts_then_raises(self, garbage_server,
                                                 rows):
        host, port, accepted = garbage_server
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.005,
                             max_backoff_s=0.01, jitter=0.0,
                             total_budget_s=30.0)
        with pytest.raises(http.client.HTTPException):
            client.predict(host, port, "toy", rows[0], timeout=5.0,
                           retry=policy)
        assert len(accepted) == 3, "every attempt should hit the server"

    def test_zero_budget_disables_retrying(self, garbage_server, rows):
        host, port, accepted = garbage_server
        policy = RetryPolicy(max_attempts=10, base_backoff_s=0.05,
                             max_backoff_s=0.05, jitter=0.0,
                             total_budget_s=0.0)
        with pytest.raises(http.client.HTTPException):
            client.predict(host, port, "toy", rows[0], timeout=5.0,
                           retry=policy)
        assert len(accepted) == 1


class TestLoadGeneratorResilience:
    def test_run_load_retries_recover_goodput(self, registry, rows):
        """With chaos dropping two connections, a retrying load run
        completes every request and reports the spent retries."""
        from repro.chaos import ChaosPlan, ConnectionDropInjector

        chaos = ChaosPlan([ConnectionDropInjector(after=1, count=2)])
        config = ServingConfig(port=0, models=("toy",))
        policy = RetryPolicy(max_attempts=4, base_backoff_s=0.005,
                             max_backoff_s=0.01, jitter=0.0,
                             total_budget_s=30.0, seed=3)
        with BackgroundServer(registry, config, chaos=chaos) as server:
            report = client.run_load(
                server.host, server.port, "toy", rows,
                concurrency=1, requests_per_worker=4,
                timeout=5.0, retry=policy,
            )
        assert report.requests == 4
        assert report.errors == 0
        assert report.retries >= 2, "the dropped connections were retried"
