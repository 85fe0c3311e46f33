"""End-to-end benchmark of the ReSiPE simulator.

Five workloads exercise the three ways the simulator is used: Fig. 7
Monte-Carlo sweeps (``mc-mlp2``, ``mc-cnn1``), a pooled fault campaign
(``faults-mlp2``) and the ``repro serve`` daemon under open-loop load
(``serve-sparse``, ``serve-busy``).  All times are host time.

Usage, from the root of a checkout (no ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py --workload mc-mlp2 --seed 0 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py [--workloads W ...] [--seed N] [--trace]
                                  [--runs N] [--output PATH] [--smoke]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each run prints every metric by name, unit and workload, checks the
outputs (repeatable digests, the recorded seed-0 digests, and each served
label against the in-process predict), and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace`` runs report its ``per_layer`` metrics (and the full profile
with ``--output``).  A failed check exits 1; a checkout without the
simulator's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from child import N_SAMPLES, READY, WORKLOADS  # noqa: E402
from loadgen import run_serve  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_JSON = os.path.join(HERE, "digests.json")
WORK_DIR = os.path.join(HERE, ".work")
CHILD = [sys.executable, "-u", os.path.join(HERE, "child.py")]

#: Spawns per run whose spawn-to-ready time is sampled for ``setup_s``
#: (the last one goes on to do the work).
SETUP_REPS = {"full": 3, "smoke": 1}
#: Hard limit on one workload run, children included (under 3 minutes).
RUN_BUDGET_S = 170.0

UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms", "peak_rss_mb": "MB",
    "tracing_overhead": "ratio", "coverage": "ratio",
    "residual.self_ms": "ms", "mvm.count": "count", "mvm.elements": "count",
    "runtime.worker_busy_ms": "ms", "runtime.utilisation": "ratio",
    "runtime.worker_coverage": "ratio",
    "serving.batch_requests": "count", "loadgen.late_ms_p99": "ms",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "ms" if metric.endswith(".self_ms") else "count"


class CheckoutError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad config)."""


def load_benchmark() -> dict:
    if not os.path.isfile(BENCHMARK_JSON):
        raise CheckoutError(f"missing {BENCHMARK_JSON}")
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# child processes
def child_env(work: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_CACHE"] = os.path.join(work, "cache")
    # Telemetry manifests ask git for the commit; keep it in the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


class Children:
    """Every process one workload run starts, under one deadline.

    At the deadline all of them are killed, which ends any wait on them
    and fails the run; :meth:`close` kills and reaps whatever is left.
    """

    def __init__(self, env: Dict[str, str], seconds: float) -> None:
        self.env = env
        self.procs: List[subprocess.Popen] = []
        self._timer = threading.Timer(seconds, self._kill_all)
        self._timer.daemon = True
        self._timer.start()

    def popen(self, cmd: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, **kwargs)
        self.procs.append(proc)
        return proc

    def _kill_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def close(self) -> None:
        self._timer.cancel()
        self._kill_all()
        for proc in self.procs:
            proc.wait()

    def run(self, args: List[str]) -> Tuple[Optional[float], dict]:
        """Run one child; ``(spawn-to-READY seconds, final JSON or {})``."""
        start = time.perf_counter()
        proc = self.popen(CHILD + args, stdout=subprocess.PIPE, text=True)
        ready = None
        last = ""
        for line in proc.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        if proc.wait() != 0:
            raise RuntimeError(
                f"child {' '.join(args[:2])} exited {proc.returncode}"
            )
        return ready, (json.loads(last) if last.startswith("{") else {})


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    """One run of one workload in a private scratch directory."""
    spec = WORKLOADS[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    children = Children(child_env(work), RUN_BUDGET_S)
    common = [name, "--seed", str(seed), "--scale", scale, "--work", work]
    try:
        children.run(["prime"] + common)  # untimed
        if spec["kind"] == "serve":
            return run_serve(spec, seed, seconds, trace, CHILD,
                             children.popen, work, SETUP_REPS[scale],
                             N_SAMPLES[scale])
        setup_s = []
        if not trace:
            for _ in range(SETUP_REPS[scale] - 1):
                setup_s.append(children.run(["setup"] + common)[0])
        ready, report = children.run(
            ["run"] + common + ["--seconds", str(seconds),
                                "--trace", str(int(trace))]
        )
        report["setup_s"] = setup_s + [ready]
        return report
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# metrics
def end_to_end(name: str, report: dict) -> Dict[str, float]:
    metrics = {"setup_s": statistics.median(report["setup_s"]),
               "peak_rss_mb": report["peak_rss_mb"]}
    if WORKLOADS[name]["kind"] == "serve":
        loop = report["open_loop"]
        metrics.update(
            throughput_per_s=report["throughput_per_s"],
            latency_p50_ms=loop["latency_p50_ms"],
            latency_p99_ms=loop["latency_p99_ms"],
            **{"serving.batch_requests": loop["batch_requests"],
               "loadgen.late_ms_p99": loop["late_ms_p99"],
               "latency.samples": loop["samples"]},
        )
        return metrics
    times = report["unit_s"]
    # Host noise only ever adds time, so the fastest repetition is the
    # steadiest estimate of what the code can sustain.
    metrics.update(
        throughput_per_s=report["trials_per_unit"] / min(times),
        latency_p50_ms=statistics.median(times) * 1e3,
    )
    metrics["latency.samples"] = len(times)
    return metrics


def per_layer(report: dict) -> Dict[str, float]:
    profile = report["profile"]
    metrics: Dict[str, float] = {}
    for layer, entry in profile["layers"].items():
        metrics[f"{layer}.self_ms"] = entry["self_ms"]
        metrics[f"{layer}.calls"] = entry["calls"]
    metrics["residual.self_ms"] = profile["residual_ms"]
    metrics["coverage"] = profile["coverage"]
    metrics["tracing_overhead"] = profile["tracing_overhead"]
    metrics.update(profile["counts"])
    workers = profile.get("workers")
    if workers:
        metrics["runtime.worker_busy_ms"] = workers["busy_ms"]
        metrics["runtime.utilisation"] = workers["utilisation"]
        metrics["runtime.worker_coverage"] = workers["coverage"]
    traced = report.get("traced_open_loop")
    if traced:
        metrics["serving.batch_requests"] = traced["batch_requests"]
        metrics["loadgen.late_ms_p99"] = traced["late_ms_p99"]
    return metrics


def recorded_digest(name: str, scale: str) -> Optional[str]:
    if not os.path.isfile(DIGESTS_JSON):
        return None
    with open(DIGESTS_JSON) as fh:
        return json.load(fh).get(scale, {}).get(name)


def evaluate(name: str, seed: int, seconds: float, trace: bool,
             scale: str) -> dict:
    """Run, check and reduce one workload run to its metrics."""
    report = run_workload(name, seed, seconds, trace, scale)
    problems = list(report.get("problems", []))
    attempted, failed = report["attempted"], report["failed"]
    expected = recorded_digest(name, scale) if seed == 0 else None
    if expected is not None and report["digest"] != expected:
        problems.append(f"seed-0 output digest {report['digest'][:12]} != "
                        f"recorded {expected[:12]}")
        failed = attempted
    metrics = per_layer(report) if trace else end_to_end(name, report)
    return {
        "workload": name, "seed": seed, "trace": trace, "scale": scale,
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "problems": problems,
        "flagged": report.get("problems_flagged"),
        "digest": report["digest"],
        "metrics": metrics, "report": report,
    }


def print_profile(run: dict) -> None:
    """Self time per layer and its share of the unit's host time."""
    profile = run["report"]["profile"]
    host = profile.get("host_ms", profile["wall_ms"])
    print(f"{run['workload']}: self time per unit of work (wall "
          f"{profile['wall_ms']:.3f} ms, {profile['units']} units traced)")
    once = profile.get("once", ())
    for layer, entry in profile["layers"].items():
        if not entry["calls"]:
            continue
        share = "once" if layer in once else f"{entry['self_ms'] / host:.1%}"
        print(f"  {layer:<20} {entry['self_ms']:12.3f} ms {share:>7} "
              f"{entry['calls']:12.1f} calls")
    print(f"  {'residual':<20} {profile['residual_ms']:12.3f} ms "
          f"{profile['residual_ms'] / host:7.1%}")
    workers = profile.get("workers")
    if workers:
        print(f"  (rows add up the parent and its pool workers, and shares "
              f"are of their sum: the wall plus {workers['busy_ms']:.1f} ms "
              f"of worker time; pool utilisation "
              f"{workers['utilisation']:.1%})")


# ----------------------------------------------------------------------
# summaries and comparison
def summarise(values: List[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def summary_of(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        per = grouped.setdefault(run["workload"], {})
        for metric, value in run["metrics"].items():
            per.setdefault(metric, []).append(value)
    return {w: {m: summarise(v) for m, v in metrics.items()}
            for w, metrics in grouped.items()}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved, B against A."""
    sign = 1.0 if better == "lower" else -1.0
    a_med, b_med = a["median"], b["median"]
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    b_best, b_worst = (b["q1"], b["q3"]) if sign > 0 else (b["q3"], b["q1"])
    a_best, a_worst = (a["q1"], a["q3"]) if sign > 0 else (a["q3"], a["q1"])
    if sign * (b_worst - a_best) < 0:
        return "better"  # B's worse quartile beats A's better quartile
    if change > bound:
        return "worse"
    if max(a["spread"], b["spread"]) > bound and sign * (b_best - a_worst) <= 0:
        return "unresolved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        runs_a = json.load(fh)["runs"]
    with open(path_b) as fh:
        runs_b = json.load(fh)["runs"]
    sa, sb = summary_of(runs_a), summary_of(runs_b)
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    header = (f"{'workload':<13} {'metric':<17} {'A median':>10} "
              f"{'A q1-q3':>19} {'B median':>10} {'B q1-q3':>19} "
              f"{'change':>8}  verdict")
    print(header)
    for workload in sorted(set(sa) & set(sb)):
        for name, meta in metrics.items():
            if name not in sa[workload] or name not in sb[workload]:
                continue
            a, b = sa[workload][name], sb[workload][name]
            change = (b["median"] - a["median"]) / abs(a["median"])
            print(f"{workload:<13} {name:<17} {a['median']:>10.4g} "
                  f"{a['q1']:>9.4g}-{a['q3']:<9.4g} {b['median']:>10.4g} "
                  f"{b['q1']:>9.4g}-{b['q3']:<9.4g} {change:>+8.1%}  "
                  f"{verdict(a, b, meta['better'], meta['bound'])}")
    return 0


# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the ReSiPE simulator "
                    "(python3 benchmarks/e2e/run.py compare A.json B.json "
                    "compares two --output files)")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced run: report the per-layer profile")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the suite N times, interleaving the "
                             "workloads, with seeds seed .. seed+N-1")
    parser.add_argument("--output", default=None,
                        help="write every run, its profile and the "
                             "summary to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                           "__init__.py")):
            raise CheckoutError(
                f"no simulator sources under {os.path.join(ROOT, 'src')}"
            )
        bench = load_benchmark()
    except CheckoutError as exc:
        print(f"[e2e] cannot run: {exc}", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else float(
        bench["run_seconds"])
    trace = bool(args.trace)
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]

    runs = []
    for offset in range(args.runs):
        for name in args.workloads:
            try:
                run = evaluate(name, args.seed + offset, seconds, trace,
                               scale)
            except RuntimeError as exc:
                print(f"[e2e] {name}: run failed: {exc}", file=sys.stderr)
                return 1
            runs.append(run)
            if trace:
                print_profile(run)
            for metric in sorted(run["metrics"]):
                print(f"{name:<13} seed {run['seed']:<3} {metric:<32} "
                      f"{run['metrics'][metric]:>14.6g} {unit_of(metric)}")
            print(f"{name:<13} seed {run['seed']:<3} "
                  f"{'output_sha256':<32} {run['digest']}")
            for problem in run["problems"]:
                print(f"[e2e] {name}: CHECK FAILED: {problem}",
                      file=sys.stderr)
            if run["flagged"]:
                print(f"[e2e] {name}: {run['flagged']}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"seconds": seconds, "scale": scale, "trace": trace,
                       "runs": runs, "summary": summary_of(runs)},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    # One run reports its own values; several report each workload's
    # median as "<workload>:<metric>".
    summary = summary_of(runs)
    metrics = {}
    for workload, values in summary.items():
        for metric in wanted:
            if metric not in values:
                print(f"[e2e] {workload} did not report {metric}",
                      file=sys.stderr)
                return 1
            key = metric if len(runs) == 1 else f"{workload}:{metric}"
            metrics[key] = {"value": values[metric]["median"],
                            "unit": unit_of(metric)}
    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
