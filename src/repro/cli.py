"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro table2
    python -m repro fig5 --samples 200 --seed 3
    python -m repro fig7 --networks mlp-1 mlp-2 --sigmas 0 0.1 0.2
    python -m repro faults --rates 0 0.01 0.05 --trials 3 --seed 1
    python -m repro info

Each subcommand prints the same rendered artefact the corresponding
benchmark saves under ``benchmarks/results/``.

Every subcommand accepts ``--telemetry [DIR]``: the run executes under
an active telemetry session and writes ``manifest.json`` +
``spans.jsonl`` to DIR (default ``.telemetry``) on exit; ``repro
report DIR`` renders them.  Telemetry is an execution knob — stdout
and every persisted experiment artifact are byte-identical with it on
or off (the telemetry note goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__, telemetry
from .config import CircuitParameters

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReSiPE (DAC 2020) reproduction — regenerate paper artefacts",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    # Shared execution knobs, inherited by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--telemetry", nargs="?", const=".telemetry", default=None,
        metavar="DIR",
        help="record metrics/spans/manifest and write them to DIR "
             "(default: .telemetry) when the run finishes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common],
                   help="show the operating points and library summary")

    fig3 = sub.add_parser("fig3", parents=[common],
                          help="transient MAC waveforms (Fig. 3)")
    fig3.add_argument("--spike-times", nargs=2, type=float,
                      default=[40e-9, 70e-9], metavar=("T0", "T1"),
                      help="input spike times in seconds")
    fig3.add_argument("--resistances", nargs=2, type=float,
                      default=[50e3, 200e3], metavar=("R0", "R1"),
                      help="cell resistances in ohms")

    fig5 = sub.add_parser("fig5", parents=[common], help="t_out vs input strength (Fig. 5)")
    fig5.add_argument("--samples", type=int, default=100)
    fig5.add_argument("--seed", type=int, default=0)
    fig5.add_argument("--paper-point", action="store_true",
                      help="use the literal published operating point")

    sub.add_parser("table1", parents=[common], help="data-format taxonomy (Table I)")

    table2 = sub.add_parser("table2", parents=[common], help="design comparison (Table II)")
    table2.add_argument("--rows", type=int, default=32)
    table2.add_argument("--cols", type=int, default=32)

    fig6 = sub.add_parser("fig6", parents=[common], help="throughput vs area budgets (Fig. 6)")
    fig6.add_argument("--budgets", nargs="+", type=float, default=None,
                      help="area budgets in mm^2")

    fig7 = sub.add_parser("fig7", parents=[common], help="accuracy under process variation (Fig. 7)")
    fig7.add_argument("--networks", nargs="+", default=None,
                      help="network keys (default: all six)")
    fig7.add_argument("--sigmas", nargs="+", type=float,
                      default=[0.0, 0.05, 0.10, 0.15, 0.20])
    fig7.add_argument("--trials", type=int, default=3)
    fig7.add_argument("--samples", type=int, default=1500,
                      help="synthetic dataset size per network")
    fig7.add_argument("--eval-samples", type=int, default=200)
    fig7.add_argument("--seed", type=int, default=0,
                      help="master seed for training and Monte-Carlo draws")
    fig7.add_argument("--workers", type=int, default=1, metavar="N",
                      help="worker processes (results byte-identical at "
                           "any count)")
    fig7.add_argument("--trial-batch", type=int, default=1, metavar="T",
                      help="Monte-Carlo trials per stacked forward pass")
    fig7.add_argument("--fast", action="store_true",
                      help="small smoke preset (mlp-1, sigmas 0/0.10, "
                           "2 trials, 300 samples) for CI and demos")

    faults = sub.add_parser(
        "faults", parents=[common],
        help="fault-injection campaign with detect-and-remap recovery",
    )
    faults.add_argument("--network", default="mlp-1",
                        help="benchmark network key (e.g. mlp-1, cnn-1)")
    faults.add_argument("--rates", nargs="+", type=float,
                        default=[0.0, 0.01, 0.02, 0.05],
                        help="total stuck-at fault rates to sweep")
    faults.add_argument("--sigmas", nargs="+", type=float, default=[0.0],
                        help="variation sigmas to sweep")
    faults.add_argument("--ages", nargs="+", type=float, default=[0.0],
                        help="shelf ages in seconds to sweep")
    faults.add_argument("--trials", type=int, default=3,
                        help="Monte-Carlo draws per grid point")
    faults.add_argument("--seed", type=int, default=0,
                        help="master seed for every RNG stream")
    faults.add_argument("--samples", type=int, default=600,
                        help="synthetic dataset size for (cached) training")
    faults.add_argument("--eval-samples", type=int, default=100)
    faults.add_argument("--stuck-on-fraction", type=float, default=0.5,
                        help="portion of the fault rate pinned to LRS")
    faults.add_argument("--spare-fraction", type=float, default=0.2,
                        help="per-layer spare-column reserve")
    faults.add_argument("--threshold", type=float, default=0.05,
                        help="health-probe deviation threshold")
    faults.add_argument("--max-retries", type=int, default=2,
                        help="spare re-programming attempts before "
                             "software fallback")
    faults.add_argument("--backend", choices=["resipe", "ideal"],
                        default="resipe")
    faults.add_argument("--mode", choices=["linear", "exact"],
                        default="linear",
                        help="ReSiPE circuit fidelity")
    faults.add_argument("--no-remap", action="store_true",
                        help="skip detection/remapping (unprotected only)")
    faults.add_argument("--max-trials", type=int, default=None, metavar="N",
                        help="compute at most N new trials this run "
                             "(resume later from the store)")
    faults.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (results byte-identical at "
                             "any count)")
    faults.add_argument("--trial-batch", type=int, default=1, metavar="T",
                        help="trials per stacked forward pass")

    sub.add_parser("fig1", parents=[common], help="two-layer signal relation (Fig. 1)")

    scaling = sub.add_parser("scaling", parents=[common], help="technology-scaling projection")
    scaling.add_argument("--nodes", nargs="+", type=float,
                         default=[65, 45, 28, 16], help="nodes in nm")

    deploy = sub.add_parser("deploy", parents=[common],
                            help="chip-level deployment of a benchmark network")
    deploy.add_argument("--network", default="cnn-1",
                        help="network key (e.g. mlp-2, cnn-1)")
    deploy.add_argument("--samples", type=int, default=800,
                        help="synthetic dataset size for (cached) training")
    deploy.add_argument("--save-report", metavar="PATH", default=None,
                        help="also write the report as JSON (atomic)")

    lint = sub.add_parser(
        "lint", parents=[common],
        help="check reproducibility invariants (seeded RNG, atomic IO, "
             "SI units, float-eq, error taxonomy)",
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint "
                           "(default: src/ and tests/ under --root)")
    lint.add_argument("--root", default=None,
                      help="repo root for relative paths (default: cwd)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text", dest="output_format",
                      help="report format (sarif for CI annotation)")
    lint.add_argument("--rules", nargs="+", default=None, metavar="ID",
                      help="run only these rule ids (e.g. RNG001 IO001)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    cache = sub.add_parser(
        "cache", parents=[common],
        help="inspect or maintain the model artifact store "
             "($REPRO_CACHE or .cache/models)",
    )
    cache.add_argument("--root", default=None,
                       help="store directory (default: $REPRO_CACHE or "
                            "<repo>/.cache/models)")
    action = cache.add_mutually_exclusive_group()
    action.add_argument("--verify", action="store_true",
                        help="scrub the store: quarantine entries that fail "
                             "integrity checks")
    action.add_argument("--clear", action="store_true",
                        help="delete all entries (including quarantined "
                             "files)")

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve predict requests over HTTP with cross-request "
             "micro-batching (drains gracefully on SIGINT/SIGTERM)",
    )
    serve.add_argument("--models", nargs="+", default=["mlp-1"],
                       help="benchmark network keys to load (store-cached)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="coalescing bound: requests per merged forward")
    serve.add_argument("--queue-depth", type=int, default=128, metavar="N",
                       help="backpressure bound: pending requests beyond "
                            "this get HTTP 429")
    serve.add_argument("--no-batching", action="store_true",
                       help="serve each request alone (max_batch=1) — "
                            "the benchmark baseline")
    serve.add_argument("--compute-timeout-s", type=float, default=30.0,
                       metavar="S",
                       help="per-batch forward-pass timeout: a slower batch "
                            "is failed with 503 and the compute pool "
                            "rebuilt (0 disables)")
    serve.add_argument("--breaker-failures", type=int, default=5,
                       metavar="N",
                       help="consecutive batch failures that open a "
                            "model's circuit breaker (fail-fast 503s)")
    serve.add_argument("--breaker-cooldown-s", type=float, default=1.0,
                       metavar="S",
                       help="seconds an open breaker waits before letting "
                            "one half-open probe batch through")
    serve.add_argument("--chaos", default=None, metavar="SPEC",
                       help="inject seeded infrastructure faults, e.g. "
                            "'compute-exception:after=5,count=3;"
                            "conn-drop:p=0.05,seed=7' (see "
                            "docs/resilience.md for the catalogue)")
    serve.add_argument("--samples", type=int, default=600,
                       help="training-set size keying the model cache")
    serve.add_argument("--seed", type=int, default=0,
                       help="master seed keying the model cache")
    serve.add_argument("--ensemble-sigma", type=float, default=0.0,
                       help="serve the majority vote of a variation "
                            "ensemble at this sigma")
    serve.add_argument("--ensemble-trials", type=int, default=0,
                       help="realizations in the variation ensemble")

    report = sub.add_parser(
        "report", parents=[common],
        help="render a recorded telemetry run (manifest + span tree + "
             "metrics)",
    )
    report.add_argument("dir", nargs="?", default=".telemetry",
                        help="telemetry directory written by --telemetry "
                             "(default: .telemetry)")
    report.add_argument("--format", choices=["text", "json", "trace"],
                        default="text", dest="output_format",
                        help="report format (trace renders stitched "
                             "span trees grouped by trace id)")

    return parser


def _run_info() -> str:
    from .energy.components import COMPONENT_LIBRARY

    lines = [f"repro {__version__} — ReSiPE (DAC 2020) reproduction", ""]
    for label, params in (
        ("paper-literal operating point", CircuitParameters.paper()),
        ("calibrated operating point", CircuitParameters.calibrated()),
    ):
        lines.append(f"[{label}]")
        lines.append(params.describe())
        lines.append("")
    lines.append(f"component library: {len(COMPONENT_LIBRARY)} entries")
    for comp in COMPONENT_LIBRARY.values():
        lines.append(f"  {comp.name:<20} {comp.active_power * 1e6:7.1f} uW  "
                     f"{comp.area * 1e12:8.0f} um^2   {comp.note}")
    return "\n".join(lines)


def _run_fig3(args: argparse.Namespace) -> str:
    from .experiments.fig3_waveform import render_fig3, run_fig3

    result = run_fig3(
        spike_times=tuple(args.spike_times),
        resistances=tuple(args.resistances),
    )
    return render_fig3(result)


def _run_fig5(args: argparse.Namespace) -> str:
    from .experiments.fig5_characterization import render_fig5, run_fig5

    params = CircuitParameters.paper() if args.paper_point else None
    return render_fig5(run_fig5(params=params, samples=args.samples,
                                seed=args.seed))


def _run_table1() -> str:
    from .experiments.table1_taxonomy import render_table1

    return render_table1()


def _run_table2(args: argparse.Namespace) -> str:
    from .experiments.table2_comparison import render_table2, run_table2

    return render_table2(run_table2(rows=args.rows, cols=args.cols))


def _run_fig6(args: argparse.Namespace) -> str:
    from .experiments.fig6_throughput import render_fig6, run_fig6

    budgets = None
    if args.budgets is not None:
        budgets = [b * 1e-6 for b in args.budgets]
    return render_fig6(run_fig6(budgets=budgets))


def _run_fig7(args: argparse.Namespace) -> str:
    from .experiments.fig7_accuracy import Fig7Config, render_fig7, run_fig7

    if args.fast:
        config = Fig7Config(
            sigmas=(0.0, 0.10),
            trials=2,
            networks=("mlp-1",),
            n_samples=300,
            eval_samples=50,
            seed=args.seed,
        )
    else:
        config = Fig7Config(
            sigmas=tuple(args.sigmas),
            trials=args.trials,
            networks=tuple(args.networks) if args.networks else None,
            n_samples=args.samples,
            eval_samples=args.eval_samples,
            seed=args.seed,
        )
    return render_fig7(run_fig7(config, workers=args.workers,
                                trial_batch=args.trial_batch))


def _run_faults(args: argparse.Namespace) -> str:
    from .faults import CampaignSpec, FaultCampaign, render_campaign

    spec = CampaignSpec(
        network=args.network,
        rates=tuple(args.rates),
        sigmas=tuple(args.sigmas),
        ages=tuple(args.ages),
        trials=args.trials,
        seed=args.seed,
        n_samples=args.samples,
        eval_samples=args.eval_samples,
        stuck_on_fraction=args.stuck_on_fraction,
        spare_fraction=args.spare_fraction,
        probe_threshold=args.threshold,
        max_retries=args.max_retries,
        backend=args.backend,
        mode=args.mode,
        remap=not args.no_remap,
    )
    campaign = FaultCampaign(spec)
    result = campaign.run(max_trials=args.max_trials, verbose=True,
                          workers=args.workers,
                          trial_batch=args.trial_batch)
    return render_campaign(result)


def _run_fig1() -> str:
    from .experiments.fig1_signal_relation import render_fig1, run_fig1

    return render_fig1(run_fig1())


def _run_scaling(args: argparse.Namespace) -> str:
    from .experiments.scaling import render_scaling, run_scaling

    return render_scaling(run_scaling(nodes=[n * 1e-9 for n in args.nodes]))


def _run_deploy(args: argparse.Namespace) -> str:
    from .core.mvm import MVMMode
    from .experiments.networks import get_benchmark_networks
    from .mapping import ReSiPEBackend, compile_network, plan_deployment

    net = get_benchmark_networks(keys=[args.network], n_samples=args.samples)[0]
    mapped = compile_network(net.model, ReSiPEBackend(mode=MVMMode.LINEAR))
    report = plan_deployment(mapped, input_hw=net.input_hw)
    text = report.render()
    if args.save_report:
        report.save(args.save_report)
        text += f"\n\nreport saved to {args.save_report}"
    return text


def _run_lint(args: argparse.Namespace) -> "tuple[str, int]":
    from .analysis.lint import (
        RULES,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.list_rules:
        lines = []
        for rule in RULES.values():
            scopes = "/".join(rule.scopes)
            lines.append(f"{rule.id}  [{scopes}]  {rule.title}")
            lines.append(f"    {rule.rationale}")
        return "\n".join(lines), 0
    unknown = [rule_id for rule_id in args.rules or () if rule_id not in RULES]
    if unknown:
        return (f"repro lint: unknown rule id(s) {', '.join(unknown)}; "
                f"valid ids: {', '.join(sorted(RULES))}", 2)
    report = run_lint(paths=args.paths or None, root=args.root,
                      rules=args.rules)
    renderers = {"json": render_json, "sarif": render_sarif,
                 "text": render_text}
    text = renderers[args.output_format](report)
    return text, report.exit_code


def _run_cache(args: argparse.Namespace) -> str:
    from .store import get_store

    store = get_store(args.root)
    lines = [f"artifact store: {store.root}"]
    if args.clear:
        removed = store.clear()
        lines.append(f"cleared {removed} file(s)")
        return "\n".join(lines)
    if args.verify:
        bad = store.verify()
        lines.append(
            f"verified store: quarantined {len(bad)} corrupt entr"
            f"{'y' if len(bad) == 1 else 'ies'}"
        )
        for key in bad:
            lines.append(f"  quarantined: {key}")
    entries = store.entries()
    if not entries:
        lines.append("store is empty")
    for entry in entries:
        spec = f"  spec={entry.spec_hash}" if entry.spec_hash else ""
        lines.append(
            f"  {entry.status:<13} {entry.size:>9d} B  {entry.key}{spec}"
        )
    lines.append(f"session counters: {store.stats.describe()}")
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    from .serving import ModelRegistry, ServingConfig, ServingDaemon

    config = ServingConfig(
        host=args.host,
        port=args.port,
        models=tuple(args.models),
        max_batch=1 if args.no_batching else args.max_batch,
        queue_depth=args.queue_depth,
        compute_timeout_s=args.compute_timeout_s,
        breaker_threshold=args.breaker_failures,
        breaker_cooldown_s=args.breaker_cooldown_s,
        n_samples=args.samples,
        seed=args.seed,
        ensemble_sigma=args.ensemble_sigma,
        ensemble_trials=args.ensemble_trials,
    )
    chaos = None
    if args.chaos:
        from .chaos import parse_chaos_spec

        chaos = parse_chaos_spec(args.chaos)
        print(f"[serve] {chaos.describe()}", file=sys.stderr)
    print(f"[serve] loading models {list(config.models)} "
          f"(n_samples={config.n_samples}, seed={config.seed})...",
          file=sys.stderr)
    registry = ModelRegistry.from_benchmarks(
        config.models,
        n_samples=config.n_samples,
        seed=config.seed,
        ensemble_sigma=config.ensemble_sigma,
        ensemble_trials=config.ensemble_trials,
        load_hook=None if chaos is None else chaos.on_model_load,
    )
    for name, reason in sorted(registry.failed.items()):
        print(f"[serve] model {name!r} failed to load ({reason}); "
              "serving 503 for it", file=sys.stderr)
    daemon = ServingDaemon(registry, config, chaos=chaos)

    def announce(d: ServingDaemon) -> None:
        mode = (f"batching up to {config.max_batch}/flush"
                if config.max_batch > 1 else "unbatched")
        print(f"[serve] listening on http://{config.host}:{d.port} "
              f"({mode}, queue_depth={config.queue_depth}) — "
              f"Ctrl-C drains and exits", file=sys.stderr)

    daemon.run_forever(announce=announce)
    snapshot = daemon.metrics_snapshot()
    totals = snapshot["totals"]
    shed = totals["shed_deadline"] + totals["shed_expired"]
    tail = ""
    if shed or totals["breaker_rejected"] or snapshot["drain_abandoned"]:
        tail = (
            f", {shed} shed, {totals['breaker_rejected']} breaker-rejected, "
            f"{snapshot['drain_abandoned']} abandoned"
        )
    if chaos is not None:
        tail += f" ({chaos.fired_total()} chaos injection(s))"
    return (
        f"serve: drained cleanly after {totals['requests']} request(s) — "
        f"{totals['batches']} batch(es), {totals['coalesced']} coalesced, "
        f"{totals['rejected']} rejected{tail}"
    )


def _run_report(args: argparse.Namespace) -> "tuple[str, int]":
    from .errors import ArtifactError
    from .telemetry.report import (
        load_run,
        render_report_json,
        render_report_text,
        render_report_trace,
    )

    try:
        manifest, spans = load_run(args.dir)
    except ArtifactError as exc:
        return f"report error: {exc}", 1
    if args.output_format == "json":
        return render_report_json(manifest, spans), 0
    if args.output_format == "trace":
        return render_report_trace(manifest, spans), 0
    return render_report_text(manifest, spans), 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    tel_dir = getattr(args, "telemetry", None)
    session = None
    if tel_dir is not None:
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "telemetry")}
        session = telemetry.enable(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            config=config,
            seed=getattr(args, "seed", None),
        )
    try:
        with telemetry.span(f"cli.{args.command}"):
            if args.command == "lint":
                text, code = _run_lint(args)
            elif args.command == "report":
                text, code = _run_report(args)
            else:
                handlers = {
                    "info": lambda: _run_info(),
                    "fig1": lambda: _run_fig1(),
                    "fig3": lambda: _run_fig3(args),
                    "fig5": lambda: _run_fig5(args),
                    "table1": lambda: _run_table1(),
                    "table2": lambda: _run_table2(args),
                    "fig6": lambda: _run_fig6(args),
                    "fig7": lambda: _run_fig7(args),
                    "faults": lambda: _run_faults(args),
                    "scaling": lambda: _run_scaling(args),
                    "deploy": lambda: _run_deploy(args),
                    "cache": lambda: _run_cache(args),
                    "serve": lambda: _run_serve(args),
                }
                text, code = handlers[args.command](), 0
        print(text)
        return code
    finally:
        if session is not None:
            telemetry.disable()
            session.save(tel_dir)
            # stderr, so stdout stays byte-identical with telemetry off
            print(
                f"[telemetry] run manifest + spans written to {tel_dir}",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
