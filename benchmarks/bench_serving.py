"""Serving throughput/latency: cross-request batching on vs off.

Starts a `repro serve` daemon in-process (registry loaded once from the
artifact store), sweeps offered concurrency with the closed-loop load
generator of :mod:`repro.serving.client`, and writes
``benchmarks/results/BENCH_serving.json``:

* per concurrency level: p50/p99/mean latency, throughput, and the
  server-reported mean coalesced batch size — once with micro-batching
  (``max_batch``) and once unbatched (``max_batch=1``);
* a byte-identity hard gate: predictions of concurrent single-row
  requests must equal serial ``PIMExecutor.predict`` on the same rows
  (non-zero exit on divergence, like ``bench_perf_mc.py``);
* headline ``speedup``: batched/unbatched throughput at the highest
  concurrency level;
* a ``deadline`` section: the daemon is deliberately overloaded
  (small ``max_batch``, high concurrency) while every request carries
  a ``deadline_ms`` budget — admission control must shed the
  over-budget tail with 503 + ``Retry-After`` while the p99 of the
  *admitted* requests stays within the deadline, and a retrying load
  run shows the recovered goodput.

Run directly (CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_serving.py --fast
"""

import argparse
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _serve_rows(host, port, model, rows):
    """Predictions of per-row concurrent requests, in row order."""
    from repro.serving.client import predict

    def one(row):
        status, doc = predict(host, port, model, row)
        if status != 200:
            raise RuntimeError(f"predict failed: {status} {doc}")
        return doc["predictions"][0]

    with ThreadPoolExecutor(max_workers=min(16, len(rows))) as pool:
        return list(pool.map(one, rows))


def deadline_mode(model, rows, n_samples=600, seed=0,
                  concurrency=32, requests_per_worker=8, max_batch=4,
                  queue_depth=256, floor_ms=30.0,
                  ensemble_trials=64, ensemble_sigma=0.05):
    """Deadline-aware admission control under deliberate overload.

    A small ``max_batch`` against high closed-loop concurrency forces
    queue waits beyond the budget, so the EWMA-based admission control
    must shed.  The deadline is derived from the daemon's own warmed
    service-time budget (``4 x`` the tail budget of a coalesced batch,
    floored), so the section is meaningful on fast and slow machines
    alike.  Crucially the warm-up load runs at the *same* concurrency
    as the measurement: batch service under full client contention is
    several times the lightly-loaded figure, and calibrating on serial
    or low-concurrency traffic would under-predict it and let the
    first overload waves through late.

    The served model carries a variation ensemble
    (``ensemble_trials``), which multiplies per-batch compute: queue
    waits then dominate the single-process measurement noise (client
    threads share the GIL with the daemon), so "admitted p99 within
    deadline" exercises the controller rather than scheduler jitter.
    """
    import numpy as np

    from repro.serving import BackgroundServer, ModelRegistry, ServingConfig
    from repro.serving.client import RetryPolicy, predict, request, run_load

    registry = ModelRegistry.from_benchmarks(
        [model], n_samples=n_samples, seed=seed,
        ensemble_sigma=ensemble_sigma, ensemble_trials=ensemble_trials,
    )
    config = ServingConfig(
        models=(model,), port=0, n_samples=n_samples, seed=seed,
        max_batch=max_batch, queue_depth=queue_depth,
        ensemble_sigma=ensemble_sigma, ensemble_trials=ensemble_trials,
    )
    with BackgroundServer(registry, config) as server:
        # Serial baseline: the single-request round trip, for the report.
        samples = []
        for k in range(6):
            t0 = time.perf_counter()
            status, _ = predict(server.host, server.port, model,
                                rows[k % len(rows)])
            if status != 200:
                raise RuntimeError(f"calibration predict failed: {status}")
            samples.append((time.perf_counter() - t0) * 1e3)
        baseline_ms = float(np.mean(samples[1:]))  # drop cold first call

        # Warm the admission EWMA under the exact overload the
        # measurement applies (no deadline: every request completes,
        # and the estimator converges on contended batch service),
        # then read the tail budget back from the daemon's metrics.
        warmup = run_load(
            server.host, server.port, model, rows,
            concurrency=concurrency,
            requests_per_worker=requests_per_worker,
        )
        _, warm_metrics = request(server.host, server.port, "GET", "/metrics")
        budget_ms = float(
            warm_metrics["models"][model]["service_budget_ms"]
        )
        deadline_ms = max(floor_ms, 4.0 * budget_ms)

        # A budget no admission controller can accept — pins the shed
        # taxonomy: 503 with both the JSON float and the Retry-After
        # header.
        probe_status, probe_doc = predict(
            server.host, server.port, model, rows[0], deadline_ms=0.05
        )

        no_retry = run_load(
            server.host, server.port, model, rows,
            concurrency=concurrency,
            requests_per_worker=requests_per_worker,
            deadline_ms=deadline_ms,
        )
        # Twice the requests: with retries most of them are eventually
        # admitted, and the p99 of the admitted set should be a real
        # percentile, not the single worst scheduler stall.  The
        # backoff schedule has to reach the per-client admission period
        # (service rate / concurrency, here roughly hundreds of ms) —
        # clients retrying faster than the queue drains just re-shed.
        with_retry = run_load(
            server.host, server.port, model, rows,
            concurrency=concurrency,
            requests_per_worker=2 * requests_per_worker,
            deadline_ms=deadline_ms,
            retry=RetryPolicy(max_attempts=6, base_backoff_s=0.02,
                              max_backoff_s=0.5, jitter=0.5, seed=seed),
        )
        _, metrics = request(server.host, server.port, "GET", "/metrics")

    return {
        "deadline_ms": deadline_ms,
        "baseline_latency_ms": baseline_ms,
        "warm_service_budget_ms": budget_ms,
        "warmup": warmup.to_dict(),
        "concurrency": concurrency,
        "requests_per_worker": requests_per_worker,
        "max_batch": max_batch,
        "ensemble_trials": ensemble_trials,
        "probe": {
            "status": probe_status,
            "retry_after_s": probe_doc.get("retry_after_s"),
            "retry_after_header_s": probe_doc.get("retry_after_hint_s"),
        },
        "no_retry": no_retry.to_dict(),
        "with_retry": with_retry.to_dict(),
        "shed_total": (metrics["totals"]["shed_deadline"]
                       + metrics["totals"]["shed_expired"]),
        # The deadline claim is about the window admission control
        # governs — parse-to-answer on the server — and is evaluated on
        # the retrying run: those clients honor Retry-After, so their
        # arrivals are the cooperating traffic the controller is
        # designed for.  The no-retry run hammers the daemon with
        # instant re-fires after every shed (its answers arrive in
        # microseconds), which floods the event loop and documents the
        # *failure mode* retrying exists to avoid; both are recorded.
        "admitted_p99_ms": with_retry.server_latency_p99_ms,
        "admitted_client_p99_ms": with_retry.latency_p99_ms,
        "p99_within_deadline": (
            with_retry.server_latency_p99_ms <= deadline_ms
        ),
        "retry_after_seen": (
            probe_status == 503
            and probe_doc.get("retry_after_hint_s") is not None
        ),
    }


def run_benchmark(model="mlp-1", n_samples=600, seed=0, eval_rows=48,
                  concurrencies=(1, 4, 16), requests_per_worker=8,
                  max_batch=32, queue_depth=256,
                  ensemble_sigma=0.0, ensemble_trials=0,
                  deadline_concurrency=32, deadline_requests=8,
                  deadline_max_batch=4, deadline_floor_ms=30.0):
    import numpy as np

    from repro.datasets import make_mnist_like
    from repro.serving import BackgroundServer, ModelRegistry, ServingConfig
    from repro.serving.client import run_load

    registry = ModelRegistry.from_benchmarks(
        [model], n_samples=n_samples, seed=seed,
        ensemble_sigma=ensemble_sigma, ensemble_trials=ensemble_trials,
    )
    entry = registry.get(model)
    data = make_mnist_like(max(eval_rows, 16), seed=seed + 7).flattened()
    rows = [data.images[i : i + 1] for i in range(eval_rows)]

    def sweep(batching):
        config = ServingConfig(
            models=(model,), port=0, n_samples=n_samples, seed=seed,
            max_batch=max_batch if batching else 1,
            queue_depth=queue_depth,
            ensemble_sigma=ensemble_sigma, ensemble_trials=ensemble_trials,
        )
        out = {}
        with BackgroundServer(registry, config) as server:
            for concurrency in concurrencies:
                report = run_load(
                    server.host, server.port, model, rows,
                    concurrency=concurrency,
                    requests_per_worker=requests_per_worker,
                )
                out[str(concurrency)] = report.to_dict()
        return out

    batched = sweep(batching=True)
    unbatched = sweep(batching=False)

    # Byte-identity gate: concurrent serving == serial executor.predict.
    config = ServingConfig(
        models=(model,), port=0, n_samples=n_samples, seed=seed,
        max_batch=max_batch, queue_depth=queue_depth,
        ensemble_sigma=ensemble_sigma, ensemble_trials=ensemble_trials,
    )
    with BackgroundServer(registry, config) as server:
        served = _serve_rows(server.host, server.port, model, rows)
    serial = entry.predict(np.concatenate(rows, axis=0))
    matches = served == [int(p) for p in serial]

    deadline = deadline_mode(
        model, rows, n_samples=n_samples, seed=seed,
        concurrency=deadline_concurrency,
        requests_per_worker=deadline_requests,
        max_batch=deadline_max_batch, queue_depth=queue_depth,
        floor_ms=deadline_floor_ms,
    )

    top = str(max(concurrencies))
    speedup = (batched[top]["throughput_rps"]
               / unbatched[top]["throughput_rps"])
    return {
        "config": {
            "model": model,
            "n_samples": n_samples,
            "seed": seed,
            "eval_rows": eval_rows,
            "concurrencies": list(concurrencies),
            "requests_per_worker": requests_per_worker,
            "max_batch": max_batch,
            "queue_depth": queue_depth,
            "ensemble_sigma": ensemble_sigma,
            "ensemble_trials": ensemble_trials,
        },
        "batched": batched,
        "unbatched": unbatched,
        "deadline": deadline,
        "matches_serial": matches,
        # Headline: batching gain at the highest offered concurrency.
        "speedup": speedup,
        "throughput_rps": batched[top]["throughput_rps"],
        "latency_p99_ms": batched[top]["latency_p99_ms"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="mlp-1")
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-rows", type=int, default=48)
    parser.add_argument("--concurrency", nargs="+", type=int,
                        default=[1, 4, 16])
    parser.add_argument("--requests-per-worker", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--ensemble-sigma", type=float, default=0.0)
    parser.add_argument("--ensemble-trials", type=int, default=0)
    parser.add_argument("--deadline-concurrency", type=int, default=32)
    parser.add_argument("--deadline-requests", type=int, default=8)
    parser.add_argument("--deadline-max-batch", type=int, default=4)
    parser.add_argument("--deadline-floor-ms", type=float, default=30.0)
    parser.add_argument("--fast", action="store_true",
                        help="small CI preset (300 samples, fewer requests)")
    parser.add_argument("--output", default=os.path.join(
        RESULTS_DIR, "BENCH_serving.json"
    ))
    args = parser.parse_args(argv)
    if args.fast:
        args.samples = 300
        args.requests_per_worker = 6
        args.eval_rows = 32
        args.deadline_requests = 6

    report = run_benchmark(
        model=args.model, n_samples=args.samples, seed=args.seed,
        eval_rows=args.eval_rows, concurrencies=tuple(args.concurrency),
        requests_per_worker=args.requests_per_worker,
        max_batch=args.max_batch, queue_depth=args.queue_depth,
        ensemble_sigma=args.ensemble_sigma,
        ensemble_trials=args.ensemble_trials,
        deadline_concurrency=args.deadline_concurrency,
        deadline_requests=args.deadline_requests,
        deadline_max_batch=args.deadline_max_batch,
        deadline_floor_ms=args.deadline_floor_ms,
    )
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"[bench_serving] {args.model} — batched (max_batch="
          f"{args.max_batch}) vs unbatched")
    for c in args.concurrency:
        b, u = report["batched"][str(c)], report["unbatched"][str(c)]
        print(f"  c={c:<3d} batched {b['throughput_rps']:7.1f} rps "
              f"p50 {b['latency_p50_ms']:6.1f} ms "
              f"p99 {b['latency_p99_ms']:6.1f} ms "
              f"(mean batch {b['mean_batch_requests']:.1f})   "
              f"unbatched {u['throughput_rps']:7.1f} rps "
              f"p99 {u['latency_p99_ms']:6.1f} ms")
    print(f"  batching speedup at c={max(args.concurrency)}: "
          f"x{report['speedup']:.2f}   "
          f"matches_serial={report['matches_serial']}")
    dl = report["deadline"]
    print(f"  deadline mode: budget {dl['deadline_ms']:.1f} ms at "
          f"c={dl['concurrency']} (max_batch {dl['max_batch']}) — "
          f"no-retry admitted {dl['no_retry']['requests']}, "
          f"shed {dl['no_retry']['shed']}, "
          f"probe 503+Retry-After={dl['retry_after_seen']}")
    print(f"  deadline mode with retry: {dl['with_retry']['requests']} ok, "
          f"{dl['with_retry']['retries']} retries, "
          f"{dl['with_retry']['shed']} still shed, admitted p99 "
          f"{dl['admitted_p99_ms']:.1f} ms, within="
          f"{dl['p99_within_deadline']}")
    print(f"  -> {args.output}")
    if not report["matches_serial"]:
        print("[bench_serving] FAIL: served predictions diverged from "
              "serial PIMExecutor.predict")
        return 1
    if not dl["retry_after_seen"]:
        print("[bench_serving] FAIL: deadline shed did not answer "
              "503 + Retry-After")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
