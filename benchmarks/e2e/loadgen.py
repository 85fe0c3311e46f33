"""Serving workloads: daemon lifecycle, open- and closed-loop load.

All load comes from this process: at most two generator threads, each
holding at most one connection (the daemon answers ``Connection:
close``, so one request is one connection).  The daemon runs in its own
process (``child.py serve``), so client threads never share its
interpreter lock.

* **Open loop** -- requests follow a seeded Poisson schedule regardless
  of how fast answers come back; each latency is timed from the
  request's *scheduled* send time, so a stall also charges the requests
  queued behind it.  The generator's own lateness (a free thread waking
  after the due time) is reported as ``loadgen.late_ms_p99``.
* **Closed loop** -- each connection sends its next request as soon as
  the previous answer arrived; completions per second is the throughput.

Every answer is checked against the labels the in-process
``ModelRegistry`` predicts for the same row; any non-200 answer,
transport error or label mismatch counts as a failure.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from child import digest
from layers import LAYER_NAMES

#: Generator lateness above which a run is flagged as load-limited.
LATE_FLAG_MS = 2.0
#: Open-loop generator threads (each holds at most one connection).
GENERATOR_THREADS = 2
#: Equal-count runs the closed-loop completions are cut into.
CAPACITY_WINDOWS = 8


class Daemon:
    """One ``repro serve`` process started through ``child.py serve``.

    ``popen`` starts the process; the caller owns its lifetime limit and
    kills it when the run overstays, which ends every wait below.
    """

    def __init__(self, cmd: List[str], popen: Callable[..., subprocess.Popen]
                 ) -> None:
        self.started = time.perf_counter()
        self.proc = popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
        self.stderr: List[str] = []
        self.port: Optional[int] = None
        self.ready_s: Optional[float] = None
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        self._listening.wait()
        if self.port is None:
            self.kill()
            raise RuntimeError(
                "daemon did not start: " + "".join(self.stderr[-5:])
            )

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            if self.port is None and "listening on http://" in line:
                self.ready_s = time.perf_counter() - self.started
                self.port = int(line.split("http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
                self._listening.set()
            self.stderr.append(line)
        self._listening.set()

    def stop(self) -> dict:
        """SIGTERM (the daemon drains), then the child's JSON report."""
        self.proc.send_signal(signal.SIGTERM)
        out = self.proc.stdout.read()
        self.proc.wait()
        self._reader.join()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"daemon exited {self.proc.returncode}: "
                + "".join(self.stderr[-5:])
            )
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Client:
    """Pre-encoded predict requests against one daemon port."""

    def __init__(self, port: int, bodies: List[str],
                 expected: List[int]) -> None:
        self.port = port
        self.payloads = [
            (f"POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n{body}").encode()
            for body in bodies
        ]
        self.expected = expected

    def call(self, index: int) -> Tuple[bool, Optional[dict]]:
        """Send request ``index``; ``(ok, response document)``."""
        row = index % len(self.payloads)
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=30) as sock:
                sock.sendall(self.payloads[row])
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
        except OSError:
            return False, None
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        try:
            status = int(head.split(b" ", 2)[1])
            doc = json.loads(body)
        except (IndexError, ValueError):
            return False, None
        ok = (status == 200
              and doc.get("predictions") == [self.expected[row]])
        return ok, doc


def poisson_schedule(seed: int, rate_rps: float, seconds: float
                     ) -> List[float]:
    """Seeded send offsets (seconds) of an open-loop Poisson stream."""
    rng = random.Random(seed)
    offsets, t = [], rng.expovariate(rate_rps)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate_rps)
    return offsets


def open_loop(client: Client, schedule: List[float]) -> List[dict]:
    """Send ``schedule`` on time from the generator threads."""
    records: List[Optional[dict]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def generator() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            due = t0 + schedule[index]
            free = time.perf_counter()
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            ok, doc = client.call(index)
            done = time.perf_counter()
            records[index] = {
                "ok": ok, "doc": doc,
                "latency_ms": (done - due) * 1e3,
                "service_ms": (done - sent) * 1e3,
                "late_ms": (sent - max(due, free)) * 1e3,
            }

    pool = [threading.Thread(target=generator)
            for _ in range(GENERATOR_THREADS)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return records  # type: ignore[return-value]


def closed_loop(client: Client, connections: int, seconds: float
                ) -> Tuple[float, int, int]:
    """``(requests/s, attempted, failed)`` with ``connections`` callers.

    The completions are cut into :data:`CAPACITY_WINDOWS` runs of equal
    count and the rate is that of the fastest run: stalls of the shared
    host only ever slow a run down, so the best one is the steadiest
    estimate of the daemon's capacity.
    """
    done: List[List[float]] = [[] for _ in range(connections)]
    failures = [0] * connections
    start = time.perf_counter()
    stop = start + seconds

    def caller(slot: int) -> None:
        index = slot
        while time.perf_counter() < stop:
            ok, _ = client.call(index)
            if ok:
                done[slot].append(time.perf_counter())
            else:
                failures[slot] += 1
            index += connections

    pool = [threading.Thread(target=caller, args=(slot,))
            for slot in range(connections)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    stamps = sorted(t for slot in done for t in slot)
    per = len(stamps) // CAPACITY_WINDOWS
    if per == 0:
        raise RuntimeError("closed loop completed too few requests")
    best, previous = 0.0, start
    for k in range(CAPACITY_WINDOWS):
        end = stamps[(k + 1) * per - 1]
        best = max(best, per / (end - previous))
        previous = end
    attempted = len(stamps) + sum(failures)
    return best, attempted, sum(failures)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
def serve_profile(records: List[dict], spans_path: str,
                  stats: Dict[str, List[float]], served: int) -> dict:
    """Per-request latency decomposition of a traced open-loop phase.

    Serving phases come from the daemon's own spans (joined to each
    response by its ``trace_id``); the compute phase is split into
    simulator layers in proportion to the layer totals the daemon's
    shims measured over all ``served`` requests.
    """
    spans: Dict[int, dict] = {}
    with open(spans_path) as fh:
        for line in fh:
            if line.strip():
                span = json.loads(line)
                spans[span["span_id"]] = span
    roots = {s["trace_id"]: s for s in spans.values()
             if s["name"] == "serve.request"}
    children: Dict[int, Dict[str, dict]] = {}
    for span in spans.values():
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], {})[span["name"]] = span
    compute_total = sum(s["duration_s"] for s in spans.values()
                        if s["name"] == "serve.compute")

    phases = {k: 0.0 for k in ("parse", "queue", "dispatch", "compute",
                               "respond", "transport")}
    n = 0
    wall = 0.0
    for rec in records:
        doc = rec["doc"] or {}
        root = roots.get(doc.get("trace_id"))
        if not rec["ok"] or root is None:
            continue
        mine = children.get(root["span_id"], {})
        queue = mine["serve.queue"]
        batch = spans[queue["attrs"]["batch_span"]]
        compute = children[batch["span_id"]]["serve.compute"]
        server_ms = doc["latency_ms"]
        parse_ms = mine["serve.parse"]["duration_s"] * 1e3
        queue_ms = queue["duration_s"] * 1e3
        batch_ms = batch["duration_s"] * 1e3
        phases["parse"] += parse_ms
        phases["queue"] += queue_ms
        phases["dispatch"] += batch_ms - compute["duration_s"] * 1e3
        phases["compute"] += compute["duration_s"] * 1e3
        phases["respond"] += server_ms - parse_ms - queue_ms - batch_ms
        phases["transport"] += rec["service_ms"] - server_ms
        wall += rec["service_ms"]
        n += 1
    if n == 0:
        raise RuntimeError("no traced request could be joined to its spans")
    phases = {k: v / n for k, v in phases.items()}
    # Apportion the mean compute time a request waits through over the
    # simulator layers by their share of all compute.
    layers = {}
    layered = 0.0
    for layer in LAYER_NAMES:
        self_s, calls = stats.get(layer, (0.0, 0))
        if layer.startswith("setup."):
            # Once, at daemon start-up: reported whole, not per request.
            layers[layer] = {"self_ms": self_s * 1e3, "calls": calls}
            continue
        share = self_s / compute_total if compute_total else 0.0
        layers[layer] = {"self_ms": share * phases["compute"],
                         "calls": calls / served}
        layered += layers[layer]["self_ms"]
    phases["compute"] -= layered
    for name, value in phases.items():
        layers[f"serving.{name}"] = {"self_ms": value, "calls": 1.0}
    wall_ms = wall / n
    attributed = sum(v["self_ms"] for k, v in layers.items()
                     if not k.startswith("setup."))
    return {
        "units": n, "wall_ms": wall_ms, "layers": layers,
        "once": [layer for layer in layers if layer.startswith("setup.")],
        "coverage": attributed / wall_ms,
        "residual_ms": wall_ms - attributed,
    }


def run_serve(spec: dict, seed: int, seconds: float, trace: bool,
              child_cmd: List[str], popen: Callable[..., subprocess.Popen],
              work: str, setup_reps: int, n_samples: int) -> dict:
    """One serving run; returns the same report shape as a batch child."""
    with open(os.path.join(work, "requests.json")) as fh:
        requests = json.load(fh)
    serve_args = ["--", "serve", "--models", requests["model"],
                  "--port", "0", "--samples", str(n_samples)]

    def start(traced: bool, telemetry_dir: Optional[str] = None) -> Daemon:
        cmd = child_cmd + ["serve"] + (["--trace"] if traced else [])
        cmd += serve_args
        if telemetry_dir is not None:
            cmd += ["--telemetry", telemetry_dir]
        return Daemon(cmd, popen)

    def warm(daemon: Daemon) -> Client:
        """One untimed pass over every row; its labels, in row order,
        are the run's output digest (independent of the run length)."""
        client = Client(daemon.port, requests["bodies"], requests["expected"])
        for index in range(len(client.payloads)):
            ok, doc = client.call(index)
            labels.append(doc["predictions"] if ok else None)
            counts[0] += 1
            counts[1] += 0 if ok else 1
        return client

    def summarise(records: List[dict]) -> dict:
        latencies = [r["latency_ms"] for r in records]
        return {
            "samples": len(records),
            "failed": sum(0 if r["ok"] else 1 for r in records),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
            "late_ms_p99": percentile([r["late_ms"] for r in records], 99),
            "batch_requests": sum(
                (r["doc"] or {}).get("batch_requests", 0) for r in records
            ) / len(records),
        }

    report: dict = {"setup_s": []}
    labels: List[Optional[list]] = []
    counts = [0, 0]  # attempted, failed
    daemons: List[Daemon] = []
    try:
        if not trace:
            for _ in range(setup_reps - 1):
                daemon = start(False)
                daemons.append(daemon)
                report["setup_s"].append(daemon.ready_s)
                daemon.stop()
                daemons.remove(daemon)
        daemon = start(False)
        daemons.append(daemon)
        report["setup_s"].append(daemon.ready_s)
        client = warm(daemon)
        report["digest"] = digest(labels)
        open_s = seconds * (0.5 if trace else 0.6)
        schedule = poisson_schedule(seed, spec["rate_rps"], open_s)
        records = open_loop(client, schedule)
        report["open_loop"] = summarise(records)
        counts[0] += len(records)
        counts[1] += report["open_loop"]["failed"]
        if not trace:
            rps, n_closed, n_failed = closed_loop(
                client, spec["connections"], seconds - open_s
            )
            report["throughput_per_s"] = rps
            counts[0] += n_closed
            counts[1] += n_failed
        report["peak_rss_mb"] = daemon.stop()["peak_rss_mb"]
        daemons.remove(daemon)

        if trace:
            telemetry_dir = os.path.join(work, "telemetry")
            daemon = start(True, telemetry_dir)
            daemons.append(daemon)
            traced = open_loop(warm(daemon), schedule)
            stats = daemon.stop()["stats"]
            daemons.remove(daemon)
            with open(os.path.join(telemetry_dir, "manifest.json")) as fh:
                counters = json.load(fh)["metrics"]["counters"]
            served = counters.get("serve.requests", 0) or 1
            profile = serve_profile(
                traced, os.path.join(telemetry_dir, "spans.jsonl"), stats,
                served,
            )
            profile["counts"] = {
                key: counters.get(key, 0) / served
                for key in ("mvm.count", "mvm.elements")
            }
            traced_summary = summarise(traced)
            profile["tracing_overhead"] = (
                traced_summary["latency_p50_ms"]
                / report["open_loop"]["latency_p50_ms"] - 1.0
            )
            report["traced_open_loop"] = traced_summary
            report["profile"] = profile
            counts[0] += len(traced)
            counts[1] += traced_summary["failed"]
    finally:
        for daemon in daemons:
            daemon.kill()
    report["attempted"], report["failed"] = counts
    late = report["open_loop"]["late_ms_p99"]
    if late > LATE_FLAG_MS:
        report["problems_flagged"] = (
            f"load generator ran late (p99 {late:.2f} ms > "
            f"{LATE_FLAG_MS} ms): the client, not the daemon, may have "
            "limited this run"
        )
    return report
