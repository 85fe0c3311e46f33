"""Telemetry overhead: the enabled-path budget and the disabled floor.

The observability layer makes two performance promises:

* **disabled** (no active session) every instrumentation point —
  ``telemetry.span``, ``telemetry.count``, ``context.trace_scope`` —
  collapses to a dictionary/context-var check costing well under a
  microsecond, so production hot loops pay nothing for being
  instrumented;
* **enabled** (``--telemetry``) each recorded span stays within a
  fixed per-span budget, so tracing a serving request (~6 spans) adds
  microseconds, not milliseconds, to a path whose compute is measured
  in milliseconds.

This bench times both paths with bare ``time.perf_counter`` loops
(benchmarks sit outside the TEL001 clock discipline), plus a macro
check — the served single-request latency with and without an active
session — and writes ``benchmarks/results/BENCH_telemetry.json``.
The micro budgets are hard gates (non-zero exit on overrun, like
``bench_serving.py``'s byte-identity gate); the macro ratio is
reported for trending but not gated, because single-request serving
latency on a loaded CI box is dominated by scheduler noise.

Run directly (CI observability job)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --fast
"""

import argparse
import json
import os
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _per_call_us(fn, calls):
    """Best-of-3 mean microseconds per call of ``fn(calls)``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(calls)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def measure_instrumentation(calls):
    """Per-call microseconds of each instrumentation point, with the
    telemetry session disabled and enabled."""
    from repro.telemetry import context
    from repro.telemetry import session as telemetry

    def span_loop(n):
        for i in range(n):
            with telemetry.span("bench.step", index=i):
                pass

    def count_loop(n):
        for _ in range(n):
            telemetry.count("bench.events")

    def scope_loop(n):
        for _ in range(n):
            with context.trace_scope():
                pass

    def log_loop(n):
        # Filtered-out level: the cost of a log call that goes nowhere.
        from repro.telemetry.logging import get_logger

        log = get_logger("bench")
        for i in range(n):
            log.debug("step %d", i)

    points = {"span": span_loop, "count": count_loop,
              "trace_scope": scope_loop, "log_filtered": log_loop}

    assert telemetry.active() is None
    disabled = {name: _per_call_us(fn, calls)
                for name, fn in points.items()}
    with telemetry.capture() as session:
        enabled = {name: _per_call_us(fn, calls)
                   for name, fn in points.items()}
        spans_recorded = len(session.tracer.spans)
    return {"disabled_us": disabled, "enabled_us": enabled,
            "spans_recorded": spans_recorded}


def measure_serving(model="mlp-1", n_samples=300, seed=0, requests=24):
    """Mean served single-request latency, telemetry off vs on.

    Reported for trending only — on a busy box the difference is noise
    next to the per-span micro numbers, which is itself the point: the
    enabled path must be invisible at serving granularity.
    """
    import numpy as np

    from repro.datasets import make_mnist_like
    from repro.serving import BackgroundServer, ModelRegistry, ServingConfig
    from repro.serving.client import predict
    from repro.telemetry import session as telemetry

    registry = ModelRegistry.from_benchmarks(
        [model], n_samples=n_samples, seed=seed
    )
    data = make_mnist_like(16, seed=seed + 7).flattened()
    rows = [data.images[i : i + 1] for i in range(8)]
    config = ServingConfig(
        models=(model,), port=0, n_samples=n_samples, seed=seed,
    )

    def mean_latency_ms(server):
        samples = []
        for k in range(requests):
            t0 = time.perf_counter()
            status, _ = predict(server.host, server.port, model,
                                rows[k % len(rows)])
            if status != 200:
                raise RuntimeError(f"predict failed: {status}")
            samples.append((time.perf_counter() - t0) * 1e3)
        return float(np.mean(samples[2:]))  # drop cold first calls

    with BackgroundServer(registry, config) as server:
        off_ms = mean_latency_ms(server)
        with telemetry.capture() as session:
            on_ms = mean_latency_ms(server)
            spans = len(session.tracer.spans)
    return {
        "requests": requests,
        "latency_off_ms": off_ms,
        "latency_on_ms": on_ms,
        "overhead_ratio": on_ms / off_ms if off_ms > 0 else None,
        "spans_recorded": spans,
    }


def run_benchmark(calls=20000, enabled_budget_us=150.0,
                  disabled_budget_us=25.0, serving_requests=24,
                  n_samples=300, seed=0):
    micro = measure_instrumentation(calls)
    serving = measure_serving(
        n_samples=n_samples, seed=seed, requests=serving_requests
    )
    worst_enabled = max(micro["enabled_us"].values())
    worst_disabled = max(micro["disabled_us"].values())
    return {
        "config": {
            "calls": calls,
            "enabled_budget_us": enabled_budget_us,
            "disabled_budget_us": disabled_budget_us,
            "serving_requests": serving_requests,
            "n_samples": n_samples,
            "seed": seed,
        },
        "micro": micro,
        "serving": serving,
        "worst_enabled_us": worst_enabled,
        "worst_disabled_us": worst_disabled,
        "enabled_within_budget": worst_enabled <= enabled_budget_us,
        "disabled_within_budget": worst_disabled <= disabled_budget_us,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=20000,
                        help="loop length per instrumentation point")
    parser.add_argument("--enabled-budget-us", type=float, default=150.0,
                        help="per-call budget with a session active")
    parser.add_argument("--disabled-budget-us", type=float, default=25.0,
                        help="per-call budget with telemetry off")
    parser.add_argument("--serving-requests", type=int, default=24)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true",
                        help="small CI preset (fewer loop iterations)")
    parser.add_argument("--output", default=os.path.join(
        RESULTS_DIR, "BENCH_telemetry.json"
    ))
    args = parser.parse_args(argv)
    if args.fast:
        args.calls = 5000
        args.serving_requests = 12

    report = run_benchmark(
        calls=args.calls,
        enabled_budget_us=args.enabled_budget_us,
        disabled_budget_us=args.disabled_budget_us,
        serving_requests=args.serving_requests,
        n_samples=args.samples, seed=args.seed,
    )
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("[bench_telemetry] per-call microseconds "
          f"(n={report['config']['calls']})")
    for name in sorted(report["micro"]["disabled_us"]):
        off = report["micro"]["disabled_us"][name]
        on = report["micro"]["enabled_us"][name]
        print(f"  {name:<12s} disabled {off:8.3f} us   "
              f"enabled {on:8.3f} us")
    serving = report["serving"]
    print(f"  serving: {serving['latency_off_ms']:.2f} ms off, "
          f"{serving['latency_on_ms']:.2f} ms on "
          f"(x{serving['overhead_ratio']:.2f}, "
          f"{serving['spans_recorded']} span(s) recorded)")
    print(f"  budgets: enabled worst {report['worst_enabled_us']:.1f} us "
          f"<= {report['config']['enabled_budget_us']:g} us: "
          f"{report['enabled_within_budget']}   "
          f"disabled worst {report['worst_disabled_us']:.1f} us "
          f"<= {report['config']['disabled_budget_us']:g} us: "
          f"{report['disabled_within_budget']}")
    print(f"  -> {args.output}")
    if not report["enabled_within_budget"]:
        print("[bench_telemetry] FAIL: enabled-path instrumentation "
              "exceeded its per-call budget")
        return 1
    if not report["disabled_within_budget"]:
        print("[bench_telemetry] FAIL: disabled-path instrumentation is "
              "no longer near-free")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
