"""Monte-Carlo engine throughput: serial vs stacked vs parallel.

Times a Fig. 7-style 16-trial variation sweep three ways and writes the
numbers to ``BENCH_mc.json`` at the repository root:

* **serial** — one forward pass per trial (``trial_batch=1``): each
  clone runs alone, as a ``T = 1`` stack;
* **stacked** — all trials as one ``(T, rows, cols)`` trial stack in
  one pass (``trial_batch=trials``);
* **parallel** — the ``repro fig7 --workers 4 --trial-batch 8``
  configuration end to end, asserted byte-identical to the serial run.

The top-level ``predictions_sha256`` hashes the stacked per-trial
predictions; it must not change across refactors of the datapath.

Two phases are reported separately because they scale differently:

* ``evaluate`` — the datapath inner loop (accuracy of T pre-drawn
  realizations), where trial stacking shines;
* ``sweep`` — clone drawing + evaluation, i.e. the full per-sigma
  column as Fig. 7's campaign trial groups, including the per-trial
  RNG work that must stay serial for bit-reproducibility.

Run directly (CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_perf_mc.py
"""

import argparse
import json
import os
import statistics
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _median_time(fn, repeats):
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _fig7_rows(result):
    """Comparable projection of a Fig7Result (plain floats only)."""
    return [
        (row.display, row.software_accuracy, sorted(row.by_sigma.items()))
        for row in result.rows
    ]


def run_benchmark(network="mlp-1", sigma=0.10, trials=16, n_samples=600,
                  eval_samples=50, seed=0, workers=4, trial_batch=8,
                  repeats=7):
    import hashlib

    import numpy as np

    from repro.experiments.fig7_accuracy import (
        Fig7Config,
        _campaign_spec,
        run_fig7,
    )
    from repro.faults import VariationInjector
    from repro.faults.campaign import (
        _prepare_chip,
        _run_trial_group,
        _trial_groups,
    )
    from repro.runtime import CampaignCell, trial_rng

    config = Fig7Config(
        networks=(network,), sigmas=(sigma,), trials=trials,
        n_samples=n_samples, eval_samples=eval_samples, seed=seed,
    )
    spec = _campaign_spec(config, network)
    chip = _prepare_chip(CampaignCell("prepare", payload=spec, local=True))
    executor, x_eval, y_eval = chip.executor, chip.x_eval, chip.y_eval

    # Phase 1 — evaluate: accuracy of T pre-drawn realizations.  The
    # same clones feed both paths, so this isolates the trial stacking.
    clones = [
        executor.faulted(
            VariationInjector(sigma),
            trial_rng(seed, f"{network}|{sigma:.4f}|{t}"),
        )
        for t in range(trials)
    ]
    networks = [c.network for c in clones]
    serial_eval = _median_time(
        lambda: [c.accuracy(x_eval, y_eval) for c in clones], repeats
    )
    stacked_eval = _median_time(
        lambda: executor.accuracy_trials(x_eval, y_eval, networks), repeats
    )

    # Phase 2 — sweep: clone drawing + evaluation (one sigma column),
    # as the trial groups run_fig7 schedules.
    def sweep(batch):
        for group in _trial_groups(spec.points(), batch):
            _run_trial_group(group, chip)

    serial_sweep = _median_time(lambda: sweep(1), repeats)
    stacked_sweep = _median_time(lambda: sweep(trials), repeats)

    predictions = executor.predict_trials(x_eval, networks)
    predictions_sha256 = hashlib.sha256(
        np.ascontiguousarray(predictions).tobytes()
    ).hexdigest()

    # Phase 3 — the documented CLI configuration, end to end, checked
    # byte-identical to the serial run.
    serial_result = run_fig7(config)
    parallel_wall = [None]

    def parallel():
        start = time.perf_counter()
        result = run_fig7(config, workers=workers, trial_batch=trial_batch)
        parallel_wall[0] = time.perf_counter() - start
        return result

    matches = _fig7_rows(parallel()) == _fig7_rows(serial_result)
    serial_wall = _median_time(lambda: run_fig7(config), 3)

    evaluate_speedup = serial_eval / stacked_eval
    return {
        "config": {
            "network": network,
            "sigma": sigma,
            "trials": trials,
            "n_samples": n_samples,
            "eval_samples": eval_samples,
            "seed": seed,
            "mode": config.mode.value,
            "repeats": repeats,
        },
        "evaluate": {
            "serial_s": serial_eval,
            "stacked_s": stacked_eval,
            "serial_trials_per_sec": trials / serial_eval,
            "stacked_trials_per_sec": trials / stacked_eval,
            "speedup": evaluate_speedup,
        },
        "sweep": {
            "serial_s": serial_sweep,
            "stacked_s": stacked_sweep,
            "serial_trials_per_sec": trials / serial_sweep,
            "stacked_trials_per_sec": trials / stacked_sweep,
            "speedup": serial_sweep / stacked_sweep,
        },
        "parallel": {
            "workers": workers,
            "trial_batch": trial_batch,
            "wall_s": parallel_wall[0],
            "serial_wall_s": serial_wall,
            "speedup": serial_wall / parallel_wall[0],
            "matches_serial": matches,
        },
        # Headline numbers: the stacked evaluation of the 16-trial
        # sweep, the throughput it sustains, the worker count the
        # equivalence was verified at, and the predictions hash.
        "speedup": evaluate_speedup,
        "trials_per_sec": trials / stacked_eval,
        "worker_count": workers,
        "predictions_sha256": predictions_sha256,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", default="mlp-1")
    parser.add_argument("--sigma", type=float, default=0.10)
    parser.add_argument("--trials", type=int, default=16)
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument("--eval-samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--trial-batch", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_mc.json"
    ))
    args = parser.parse_args(argv)

    report = run_benchmark(
        network=args.network, sigma=args.sigma, trials=args.trials,
        n_samples=args.samples, eval_samples=args.eval_samples,
        seed=args.seed, workers=args.workers, trial_batch=args.trial_batch,
        repeats=args.repeats,
    )
    out_dir = os.path.dirname(os.path.abspath(args.output))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"[bench_perf_mc] {args.trials}-trial sweep on {args.network} "
          f"(sigma={args.sigma:g}, {args.eval_samples} eval samples)")
    for phase in ("evaluate", "sweep"):
        p = report[phase]
        print(f"  {phase:<9} serial {p['serial_s'] * 1e3:7.1f} ms   "
              f"stacked {p['stacked_s'] * 1e3:7.1f} ms   "
              f"x{p['speedup']:.2f}")
    print(f"  predictions_sha256 {report['predictions_sha256']}")
    par = report["parallel"]
    print(f"  parallel  workers={par['workers']} "
          f"trial_batch={par['trial_batch']}  wall {par['wall_s']:.2f}s  "
          f"matches_serial={par['matches_serial']}")
    print(f"  -> {args.output}")
    if not par["matches_serial"]:
        print("[bench_perf_mc] FAIL: parallel run diverged from serial")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
