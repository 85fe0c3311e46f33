"""Child-process side of the end-to-end benchmark.

``run.py`` never imports the simulator: every piece of work runs in a
fresh interpreter started from this file, so set-up time and peak
memory are measured on a clean process and each workload is isolated
from the others.  The parent sets ``PYTHONPATH`` to the checkout's
``src`` and ``REPRO_CACHE`` to a private scratch store.

Phases (one per invocation)::

    child.py prime W --seed N --scale S --work DIR
        train the workload's network into the scratch store; for the
        serving workloads also write the request bodies and their
        expected labels (the in-process predict oracle)
    child.py setup W --seed N --scale S --work DIR
        import, load, compile and calibrate, print READY, exit
    child.py run W --seed N --scale S --work DIR --seconds T --trace 0|1
        set up, print READY, one untimed warm-up unit, then timed units
        for T seconds; with --trace 1 half the time untraced and half
        traced; prints one JSON report as its last line
    child.py serve [--trace] -- <repro serve arguments>
        the serving daemon, optionally with the layer shims installed;
        prints its peak RSS (and layer totals) as JSON after draining

Importing this module only defines the workload table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

READY = "READY"

#: Per-workload parameters at the ``full`` scale (what the benchmark
#: measures) and the ``smoke`` scale (seconds, for the smoke test).
WORKLOADS: Dict[str, dict] = {
    # Call-overhead-bound: 210 tiles of <= 32x32 see 120-row batches.
    "mc-mlp2": {
        "kind": "mc", "network": "mlp-2",
        "full": {"sigmas": (0.0, 0.05, 0.10, 0.20), "trials": 16,
                 "eval_samples": 120, "trial_batch": 16},
        "smoke": {"sigmas": (0.0, 0.10), "trials": 2,
                  "eval_samples": 20, "trial_batch": 2},
    },
    # Array-bound: im2col lowers 20 images to ~16k rows per tile call.
    "mc-cnn1": {
        "kind": "mc", "network": "cnn-1",
        "full": {"sigmas": (0.0, 0.10, 0.20), "trials": 8,
                 "eval_samples": 20, "trial_batch": 8},
        "smoke": {"sigmas": (0.0, 0.10), "trials": 2,
                  "eval_samples": 10, "trial_batch": 2},
    },
    # The only workload with the process pool, IPC, store writes and
    # detect-and-remap.
    "faults-mlp2": {
        "kind": "faults", "network": "mlp-2",
        "full": {"rates": (0.0, 0.01, 0.02, 0.05), "sigmas": (0.05,),
                 "trials": 4, "trial_batch": 4, "workers": 2},
        "smoke": {"rates": (0.0, 0.05), "sigmas": (0.05,),
                  "trials": 1, "trial_batch": 1, "workers": 2},
    },
    # Requests mostly arrive alone: fixed per-request costs dominate.
    "serve-sparse": {"kind": "serve", "network": "mlp-1",
                     "rate_rps": 50.0, "connections": 1},
    # ~55 % of the 2-connection capacity: queueing and coalescing matter.
    "serve-busy": {"kind": "serve", "network": "mlp-1",
                   "rate_rps": 100.0, "connections": 2},
}

N_SAMPLES = {"full": 600, "smoke": 300}
#: Distinct request rows of the serving workloads (cycled).
SERVE_ROWS = 128


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# prime
def prime(name: str, seed: int, scale: str, work: str) -> None:
    from repro.experiments.networks import get_benchmark_networks

    spec = WORKLOADS[name]
    n_samples = N_SAMPLES[scale]
    if spec["kind"] != "serve":
        get_benchmark_networks(
            keys=[spec["network"]], n_samples=n_samples, seed=seed
        )
        return
    # The daemon serves the seed-0 model; the seed picks the requests.
    from repro.datasets import make_mnist_like
    from repro.serving import ModelRegistry

    entry = ModelRegistry.from_benchmarks(
        [spec["network"]], n_samples=n_samples
    ).get(spec["network"])
    rows = make_mnist_like(SERVE_ROWS, seed=1000 + seed).flattened().images
    expected = [int(entry.predict(row[None, :])[0]) for row in rows]
    with open(os.path.join(work, "requests.json"), "w") as fh:
        json.dump({
            "model": spec["network"],
            "bodies": [json.dumps({"model": spec["network"],
                                   "inputs": [row.tolist()]})
                       for row in rows],
            "expected": expected,
        }, fh)


# ----------------------------------------------------------------------
# setup + units of work
def setup(name: str, seed: int, scale: str) -> None:
    """What every batch workload does before its first unit: import,
    load the trained network from the warm store, compile, calibrate."""
    from repro.config import CircuitParameters
    from repro.core.mvm import MVMMode
    from repro.experiments.fig7_accuracy import run_fig7  # noqa: F401
    from repro.experiments.networks import get_benchmark_networks
    from repro.faults import FaultCampaign  # noqa: F401
    from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network

    spec = WORKLOADS[name]
    (net,) = get_benchmark_networks(
        keys=[spec["network"]], n_samples=N_SAMPLES[scale], seed=seed
    )
    mode = MVMMode.EXACT if spec["kind"] == "mc" else MVMMode.LINEAR
    backend = ReSiPEBackend(params=CircuitParameters.calibrated(), mode=mode)
    PIMExecutor(compile_network(net.model, backend), net.train.images[:64])


Unit = Callable[[], Tuple[float, str, List[str]]]


def make_unit(name: str, seed: int, scale: str, work: str
              ) -> Tuple[Unit, int]:
    """``(unit, trials_per_unit)``; ``unit()`` returns ``(seconds,
    output digest, problems)`` for one repetition."""
    spec = WORKLOADS[name]
    params = spec[scale]
    n_samples = N_SAMPLES[scale]
    if spec["kind"] == "mc":
        from repro.experiments.fig7_accuracy import Fig7Config, run_fig7

        config = Fig7Config(
            networks=(spec["network"],), sigmas=params["sigmas"],
            trials=params["trials"], eval_samples=params["eval_samples"],
            n_samples=n_samples, seed=seed,
        )

        def mc_unit():
            start = time.perf_counter()
            result = run_fig7(config, trial_batch=params["trial_batch"])
            elapsed = time.perf_counter() - start
            rows = [[row.display, row.software_accuracy,
                     sorted(row.by_sigma.items())] for row in result.rows]
            return elapsed, digest(rows), []

        # The sigma = 0 column is one deterministic realization.
        trials = sum(params["trials"] if s > 0 else 1
                     for s in params["sigmas"])
        return mc_unit, trials

    from repro.faults import CampaignSpec, FaultCampaign
    from repro.store import ArtifactStore

    campaign = CampaignSpec(
        network=spec["network"], rates=params["rates"],
        sigmas=params["sigmas"], trials=params["trials"], mode="linear",
        remap=True, seed=seed, n_samples=n_samples,
    )
    points = len(campaign.points())

    def faults_unit():
        # A fresh store per repetition: a warm one would resume every
        # trial from disk and time nothing.
        store_dir = tempfile.mkdtemp(prefix="store-", dir=work)
        try:
            store = ArtifactStore(store_dir)
            start = time.perf_counter()
            result = FaultCampaign(campaign, store=store).run(
                workers=params["workers"], trial_batch=params["trial_batch"]
            )
            elapsed = time.perf_counter() - start
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        problems = []
        if result.computed != points or result.cached != 0:
            problems.append(
                f"campaign computed {result.computed} and resumed "
                f"{result.cached} of {points} trials"
            )
        records = sorted(result.records, key=lambda r: json.dumps(
            r, sort_keys=True))
        return elapsed, digest(records), problems

    return faults_unit, points


def _measure(unit: Unit, seconds: float, reference: str,
             times: List[float], problems: List[str]) -> int:
    """Repeat ``unit`` until ``seconds`` of it have run; returns the
    number of failed repetitions."""
    failed = 0
    spent = 0.0
    while spent < seconds or not times:
        elapsed, out, issues = unit()
        spent += elapsed
        times.append(elapsed)
        if out != reference:
            issues = issues + [f"output digest {out[:12]} != warm-up "
                               f"{reference[:12]}"]
        if issues:
            failed += 1
            problems.extend(issues)
    return failed


def run(name: str, seed: int, scale: str, work: str, seconds: float,
        trace: bool) -> dict:
    setup(name, seed, scale)
    _say(READY)
    unit, trials = make_unit(name, seed, scale, work)
    _, reference, problems = unit()  # untimed warm-up
    times: List[float] = []
    report = {"trials_per_unit": trials, "digest": reference}
    if not trace:
        failed = _measure(unit, seconds, reference, times, problems)
        report.update(unit_s=times, failed=failed, attempted=len(times),
                      problems=problems, peak_rss_mb=peak_rss_mb())
        return report

    # Traced run: an untraced half for reference, then the traced half.
    failed = _measure(unit, seconds / 2, reference, times, problems)
    import repro.telemetry as telemetry

    from layers import Profiler, add_stats, per_unit, read_dumps, \
        self_total_ms

    session = telemetry.enable(command="bench-e2e", seed=seed)

    def counters():
        return {c.name: c.value for c in session.registry.counters()
                if c.name.startswith("mvm.")}

    dump_dir = tempfile.mkdtemp(prefix="dumps-", dir=work)
    profiler = Profiler(dump_dir=dump_dir, counters=counters)
    profiler.install()
    traced: List[float] = []
    failed += _measure(unit, seconds / 2, reference, traced, problems)
    telemetry.disable()

    units = len(traced)
    wall_ms = sum(traced) * 1e3 / units
    parent = per_unit(profiler.snapshot(), units)
    worker_stats, worker_counters = read_dumps(dump_dir)
    counts = dict(profiler.counter_values())
    for key, value in worker_counters.items():
        counts[key] = counts.get(key, 0) + value
    profile = {
        "units": units,
        "wall_ms": wall_ms,
        "host_ms": wall_ms,
        "tracing_overhead": (statistics.median(traced)
                             / statistics.median(times) - 1.0),
        "coverage": self_total_ms(parent) / wall_ms,
        "residual_ms": wall_ms - self_total_ms(parent),
        "counts": {k: v / units for k, v in sorted(counts.items())},
        "layers": parent,
    }
    if worker_stats:
        workers = per_unit(worker_stats, units)
        # Worker busy time: the program's own campaign.trial_group spans,
        # shipped back from the pool and grafted into the parent trace.
        busy_ms = sum(
            span.duration_s or 0.0 for span in session.tracer.spans
            if span.name == "campaign.trial_group"
        ) * 1e3 / units
        profile["host_ms"] = wall_ms + busy_ms
        profile["residual_ms"] += busy_ms - self_total_ms(workers)
        profile["workers"] = {
            "busy_ms": busy_ms,
            "coverage": self_total_ms(workers) / busy_ms,
            "utilisation": busy_ms / (
                WORKLOADS[name][scale]["workers"] * wall_ms),
        }
        combined: Dict[str, List[float]] = {}
        add_stats(combined, profiler.snapshot())
        add_stats(combined, worker_stats)
        profile["layers"] = per_unit(combined, units)
    report.update(unit_s=times, traced_unit_s=traced, failed=failed,
                  attempted=len(times) + units, problems=problems,
                  peak_rss_mb=peak_rss_mb(), profile=profile)
    return report


# ----------------------------------------------------------------------
# serve
def serve(argv: List[str], trace: bool) -> int:
    """Run ``repro serve`` in this process; report peak RSS (and, when
    traced, the layer totals of the compute thread) after draining."""
    profiler = None
    if trace:
        from layers import Profiler

        profiler = Profiler()
        profiler.install()
    from repro.cli import main as repro_main

    code = repro_main(argv)
    report = {"peak_rss_mb": peak_rss_mb()}
    if profiler is not None:
        report["stats"] = profiler.snapshot()
    _say(json.dumps(report))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        rest = argv[1:]
        trace = bool(rest) and rest[0] == "--trace"
        if trace:
            rest = rest[1:]
        if rest and rest[0] == "--":
            rest = rest[1:]
        return serve(rest, trace)
    parser = argparse.ArgumentParser(description="benchmark child process")
    parser.add_argument("phase", choices=("prime", "setup", "run"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(N_SAMPLES), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.phase == "prime":
        prime(args.workload, args.seed, args.scale, args.work)
    elif args.phase == "setup":
        setup(args.workload, args.seed, args.scale)
        _say(READY)
    else:
        report = run(args.workload, args.seed, args.scale, args.work,
                     args.seconds, bool(args.trace))
        _say(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
