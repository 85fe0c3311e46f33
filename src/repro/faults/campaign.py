"""Seeded, resumable Monte-Carlo fault-injection campaigns.

Extends the paper's Fig. 7 study (Gaussian variation only) across the
full defect landscape: stuck-at fault rate × variation sigma × shelf
age, each point sampled over several seeded trials.  Every trial

1. draws a fault pattern and clones the calibrated executor through
   :meth:`~repro.mapping.executor.PIMExecutor.faulted`;
2. measures the **unprotected** accuracy of the faulted chip;
3. runs detect-and-remap
   (:func:`~repro.mapping.remap.detect_and_remap`) — probe, spare
   columns, bounded retry, software fallback — and measures the
   **protected** accuracy;
4. persists a structured record through the
   :class:`~repro.store.ArtifactStore` under a key derived from the
   campaign fingerprint.

Because records are keyed by the spec fingerprint + grid point, an
interrupted campaign resumes exactly where it stopped: finished trials
are served from the store (``CampaignResult.cached``) and only missing
ones are recomputed (``CampaignResult.computed``).  Records are
bit-reproducible for a fixed seed — the per-trial RNG stream is
derived from ``(seed, network, rate, sigma, age, trial)``.

The Fig. 7 study runs through the same driver (:func:`run_trial_groups`)
as a grid of rate 0, age 0 and no remap; its spec keeps its own
per-trial RNG token, so its streams are not the campaign's.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import render_table
from ..config import CircuitParameters
from ..core.mvm import MVMMode
from ..errors import ConfigurationError
from ..mapping import (
    HardwareBackend,
    IdealBackend,
    MappedNetwork,
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
)
from ..mapping.remap import detect_and_remap
from ..nn import Sequential
from ..runtime import CampaignCell, CampaignScheduler, trial_rng
from ..store import ArtifactStore, get_store, spec_hash
from ..telemetry import context as _trace
from ..telemetry import session as _telemetry
from .injectors import (
    CompositeInjector,
    DriftInjector,
    FaultInjector,
    StuckAtInjector,
    VariationInjector,
)
from .probe import HealthProbe

__all__ = [
    "CampaignSpec",
    "CampaignResult",
    "FaultCampaign",
    "render_campaign",
    "run_trial_groups",
]

#: One trial of a campaign grid: (rate, sigma, age, trial).
Point = Tuple[float, float, float, int]


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """Full description of one fault campaign (hashable → resumable).

    Attributes
    ----------
    network:
        Benchmark network key (``repro.experiments.networks``).
    rates:
        Total stuck-at fault rates to sweep (fraction of cells).
    sigmas:
        Variation sigmas to sweep (0 = none).
    ages:
        Shelf ages in seconds to sweep (0 = fresh).
    trials:
        Monte-Carlo draws per grid point.
    seed:
        Master seed; every RNG stream (injection, spare draws, probes)
        derives from it, so records are bit-reproducible.
    n_samples / eval_samples:
        Synthetic dataset size / evaluated test images per trial.
    stuck_on_fraction:
        Portion of the stuck-at rate that pins to LRS (the rest to
        HRS).
    spare_fraction:
        Per-layer spare-column reserve for the remap stage.
    probe_threshold / probe_vectors:
        Health-probe configuration.
    max_retries:
        Spare re-programming attempts before software fallback.
    backend:
        ``"resipe"`` (circuit-accurate) or ``"ideal"`` (fast numpy).
    mode:
        ReSiPE circuit fidelity, ``"exact"`` or ``"linear"``.
    remap:
        Also run the detect-and-remap stage (else unprotected only).
    """

    network: str = "mlp-1"
    rates: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05)
    sigmas: Tuple[float, ...] = (0.0,)
    ages: Tuple[float, ...] = (0.0,)
    trials: int = 3
    seed: int = 0
    n_samples: int = 600
    eval_samples: int = 100
    stuck_on_fraction: float = 0.5
    spare_fraction: float = 0.2
    probe_threshold: float = 0.05
    probe_vectors: int = 4
    max_retries: int = 2
    backend: str = "resipe"
    mode: str = "linear"
    remap: bool = True

    def __post_init__(self) -> None:
        if not self.rates:
            raise ConfigurationError("need at least one fault rate")
        if any(not 0 <= r <= 1 for r in self.rates):
            raise ConfigurationError("fault rates must be in [0, 1]")
        if any(s < 0 for s in self.sigmas) or not self.sigmas:
            raise ConfigurationError("need sigmas >= 0")
        if any(a < 0 for a in self.ages) or not self.ages:
            raise ConfigurationError("need ages >= 0")
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed!r}: trial streams "
                "derive from SeedSequence(seed + crc32(token)), which "
                "rejects negative entropy deep inside the campaign"
            )
        if not 0 <= self.stuck_on_fraction <= 1:
            raise ConfigurationError("stuck_on_fraction must be in [0, 1]")
        # The remap settings are checked here, not only where the remap
        # stage consumes them: that is after the chip has been trained,
        # inside a worker.
        if not 0 <= self.spare_fraction <= 1:
            raise ConfigurationError(
                f"spare_fraction must be in [0, 1], got {self.spare_fraction!r}"
            )
        if not self.probe_threshold > 0:
            raise ConfigurationError(
                f"probe_threshold must be positive, got "
                f"{self.probe_threshold!r}"
            )
        if self.probe_vectors < 0:
            raise ConfigurationError(
                f"probe_vectors must be >= 0, got {self.probe_vectors!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if self.backend not in ("resipe", "ideal"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose resipe or ideal"
            )
        if self.mode not in ("exact", "linear"):
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; choose exact or linear"
            )
        if self.eval_samples < 10:
            raise ConfigurationError("need at least 10 evaluation samples")

    # ------------------------------------------------------------------
    def points(self) -> List[Point]:
        """The full trial grid: (rate, sigma, age, trial) tuples."""
        return [
            (rate, sigma, age, trial)
            for rate in self.rates
            for sigma in self.sigmas
            for age in self.ages
            for trial in range(self.trials)
        ]

    def injector_for(self, rate: float, sigma: float,
                     age: float) -> Optional[FaultInjector]:
        """The composite fault model of one grid point (None = pristine)."""
        stages: List[FaultInjector] = []
        if age > 0:
            stages.append(DriftInjector(elapsed=age))
        if sigma > 0:
            stages.append(VariationInjector(sigma=sigma))
        if rate > 0:
            stages.append(StuckAtInjector(
                stuck_on_rate=rate * self.stuck_on_fraction,
                stuck_off_rate=rate * (1.0 - self.stuck_on_fraction),
            ))
        if not stages:
            return None
        return stages[0] if len(stages) == 1 else CompositeInjector(*stages)

    def rng_for(self, rate: float, sigma: float, age: float,
                trial: int) -> np.random.Generator:
        """The RNG stream of one grid point (seeded by identity)."""
        token = f"{self.network}|{rate:.6f}|{sigma:.6f}|{age:.6g}|{trial}"
        return trial_rng(self.seed, token)

    def fingerprint(self) -> str:
        """Content hash binding stored trial records to this spec."""
        return spec_hash(dataclasses.asdict(self))


@dataclasses.dataclass
class CampaignResult:
    """All trial records of one campaign run.

    Attributes
    ----------
    spec:
        The campaign description.
    records:
        One dict per trial (JSON shape identical to what the store
        holds).
    computed / cached:
        How many trials were run this call vs served from the
        artifact store — the resumability observability.
    pool_rebuilds:
        Worker-pool rebuilds the parallel runner performed after
        worker crashes during this run (0 on serial runs).
    """

    spec: CampaignSpec
    records: List[dict]
    computed: int
    cached: int
    pool_rebuilds: int = 0

    def curve(self) -> List[dict]:
        """Aggregate per grid point: mean/min accuracy with and
        without protection, mean repair counts."""
        grouped: Dict[Tuple[float, float, float], List[dict]] = {}
        for record in self.records:
            key = (record["rate"], record["sigma"], record["age"])
            grouped.setdefault(key, []).append(record)
        out = []
        for (rate, sigma, age), recs in sorted(grouped.items()):
            unprot = [r["unprotected_accuracy"] for r in recs]
            point = {
                "rate": rate,
                "sigma": sigma,
                "age": age,
                "trials": len(recs),
                "unprotected_mean": float(np.mean(unprot)),
                "unprotected_min": float(np.min(unprot)),
            }
            prot = [r["remapped_accuracy"] for r in recs
                    if r.get("remapped_accuracy") is not None]
            if prot:
                point["remapped_mean"] = float(np.mean(prot))
                point["remapped_min"] = float(np.min(prot))
                point["mean_flagged"] = float(
                    np.mean([r["flagged_cols"] for r in recs])
                )
                point["mean_spare"] = float(
                    np.mean([r["spare_cols"] for r in recs])
                )
                point["mean_software"] = float(
                    np.mean([r["software_cols"] for r in recs])
                )
            out.append(point)
        return out


class _Chip(NamedTuple):
    """A campaign's pristine chip: trained, mapped and calibrated, with
    the software model it was mapped from."""

    spec: CampaignSpec
    model: Sequential
    backend: HardwareBackend
    mapped: MappedNetwork
    executor: PIMExecutor
    probe: HealthProbe
    x_eval: np.ndarray
    y_eval: np.ndarray


def _prepare_chip(cell: CampaignCell) -> _Chip:
    """The campaign DAG's ``prepare`` cell: train, map and calibrate the
    pristine chip of the :class:`CampaignSpec` the cell carries."""
    from ..experiments.networks import get_benchmark_networks

    spec: CampaignSpec = cell.payload
    net = get_benchmark_networks(
        keys=[spec.network], n_samples=spec.n_samples, seed=spec.seed
    )[0]
    if spec.backend == "ideal":
        backend: HardwareBackend = IdealBackend()
    else:
        backend = ReSiPEBackend(
            params=CircuitParameters.calibrated(),
            mode=MVMMode.EXACT if spec.mode == "exact" else MVMMode.LINEAR,
        )
    mapped = compile_network(net.model, backend)
    calibration = net.train.images[: min(64, len(net.train))]
    probe = HealthProbe(
        vectors=spec.probe_vectors,
        threshold=spec.probe_threshold,
        seed=spec.seed,
    )
    return _Chip(
        spec, net.model, backend, mapped,
        PIMExecutor(mapped, calibration), probe,
        net.test.images[: spec.eval_samples],
        net.test.labels[: spec.eval_samples],
    )


def _run_trial_group(points: Sequence[Point], chip: _Chip) -> List[dict]:
    """Records for a batch of grid points, in ``points`` order.

    The worker function of the campaign DAG's group cells; ``chip`` is
    the ``prepare`` cell's result.  Workers never write the store — the
    parent merges the records — so the single-writer invariant of
    :class:`~repro.store.ArtifactStore` holds.

    Trial-stacking: the faulted clones of the whole batch evaluate
    their unprotected accuracy through one stacked forward pass
    (:meth:`~repro.mapping.executor.PIMExecutor.accuracy_trials`),
    which is bit-identical to per-trial evaluation, so records do
    not depend on the batch size.  RNG streams are created per
    point from the trial token (never from batch position), and the
    remap stage — whose spare draws continue each trial's own
    stream — stays per-trial.

    Each group is one ``campaign.trial_group`` telemetry span (the
    scheduler cell granularity); on serial runs the spans land on
    the parent session, one per group.
    """
    rate0, sigma0, age0, _trial0 = points[0]
    with _telemetry.span(
        "campaign.trial_group",
        rate=rate0, sigma=sigma0, age=age0, trials=len(points),
    ):
        return _run_trial_group_inner(points, chip)


def _run_trial_group_inner(points: Sequence[Point],
                           chip: _Chip) -> List[dict]:
    spec, _model, backend, mapped, executor, probe, x_eval, y_eval = chip
    prepared = []
    for rate, sigma, age, trial in points:
        rng = spec.rng_for(rate, sigma, age, trial)
        injector = spec.injector_for(rate, sigma, age)
        record = {
            "rate": rate,
            "sigma": sigma,
            "age": age,
            "trial": trial,
            "injector": injector.describe() if injector else None,
            "remapped_accuracy": None,
            "flagged_cols": 0,
            "spare_cols": 0,
            "software_cols": 0,
            "remap_events": [],
        }
        prepared.append((record, rng, injector))

    faulted_idx = [
        i for i, (_r, _g, injector) in enumerate(prepared)
        if injector is not None
    ]
    faulted_execs = [
        executor.faulted(prepared[i][2], prepared[i][1])
        for i in faulted_idx
    ]
    unprotected = [float(a) for a in executor.accuracy_trials(
        x_eval, y_eval, [fe.network for fe in faulted_execs]
    )] if faulted_execs else []

    baseline: Optional[float] = None
    records: List[dict] = []
    for i, (record, rng, injector) in enumerate(prepared):
        if injector is None:
            if baseline is None:
                baseline = executor.accuracy(x_eval, y_eval)
            record["unprotected_accuracy"] = baseline
            if spec.remap:
                record["remapped_accuracy"] = baseline
            records.append(record)
            continue
        pos = faulted_idx.index(i)
        record["unprotected_accuracy"] = unprotected[pos]
        if spec.remap:
            result = detect_and_remap(
                reference=mapped,
                candidate=faulted_execs[pos].network,
                backend=backend,
                probe=probe,
                injector=injector,
                rng=rng,
                spare_fraction=spec.spare_fraction,
                max_retries=spec.max_retries,
            )
            protected = executor._clone_with_network(result.network)
            record["remapped_accuracy"] = protected.accuracy(
                x_eval, y_eval
            )
            record["flagged_cols"] = result.flagged_cols
            record["spare_cols"] = result.spare_cols
            record["software_cols"] = result.software_cols
            record["remap_events"] = result.events()
        records.append(record)
    return records


def _trial_groups(points: Sequence[Point],
                  trial_batch: int) -> List[Tuple[Point, ...]]:
    """``points`` cut into trial groups: each group holds trials of one
    grid point only, at most ``trial_batch`` of them."""
    groups: List[Tuple[Point, ...]] = []
    for _, same in itertools.groupby(points, key=lambda point: point[:3]):
        trials = tuple(same)
        groups.extend(
            trials[i : i + trial_batch]
            for i in range(0, len(trials), trial_batch)
        )
    return groups


def run_trial_groups(
    work: Sequence[Tuple[CampaignSpec, Sequence[Point]]],
    workers: int,
    trial_batch: int,
    chips: Dict[str, _Chip],
    on_records: Callable[[CampaignSpec, Sequence[Point], List[dict]], None],
) -> int:
    """Run the given points of each spec as one scheduler DAG; returns
    the worker-pool rebuilds.

    The DAG holds one parent-side ``prepare/{network}`` cell per spec
    (:func:`_prepare_chip`), feeding that spec's trial-group cells
    (:func:`_run_trial_group`, pooled at ``workers > 1``).  A prepared
    chip lands in ``chips`` under its network key; a chip already there
    is reused, not prepared again.  Each group's records reach
    ``on_records(spec, points, records)`` in the parent as the group
    lands.
    """
    specs: Dict[str, CampaignSpec] = {}
    cells: List[CampaignCell] = []
    for spec, points in work:
        prepare = f"prepare/{spec.network}"
        specs[prepare] = spec
        cells.append(CampaignCell(key=prepare, payload=spec, local=True))
        cells.extend(
            CampaignCell(
                key=f"group/{spec.network}/{i}", payload=group,
                deps=(prepare,),
            )
            for i, group in enumerate(_trial_groups(points, trial_batch))
        )

    def merge(cell: CampaignCell, result) -> None:
        if cell.local:
            chips[cell.payload.network] = result
        else:
            on_records(specs[cell.deps[0]], cell.payload, result)

    scheduler = CampaignScheduler(
        _run_trial_group, workers=workers, local_fn=_prepare_chip
    )
    scheduler.run(
        cells, on_result=merge,
        completed=lambda cell: (
            chips.get(cell.payload.network) if cell.local else None
        ),
    )
    return scheduler.pool_rebuilds


class FaultCampaign:
    """Runs (and resumes) a :class:`CampaignSpec` through the store.

    Parameters
    ----------
    spec:
        The campaign description.
    store:
        Artifact store for trial records; defaults to the process-wide
        model store (``$REPRO_CACHE`` or ``.cache/models``).
    """

    def __init__(self, spec: CampaignSpec,
                 store: Optional[ArtifactStore] = None) -> None:
        self.spec = spec
        self.store = store if store is not None else get_store()
        #: the prepared chip (under its network key), kept across runs
        #: of this instance
        self._chips: Dict[str, _Chip] = {}

    # ------------------------------------------------------------------
    def trial_key(self, rate: float, sigma: float, age: float,
                  trial: int) -> str:
        """Store key of one trial record."""
        return (
            f"faults/{self.spec.fingerprint()}/"
            f"r{rate:.6f}-s{sigma:.6f}-a{age:.6g}-t{trial}.json"
        )

    def run(self, max_trials: Optional[int] = None,
            verbose: bool = False, workers: int = 1,
            trial_batch: int = 1) -> CampaignResult:
        """Execute the campaign, resuming from stored records.

        Parameters
        ----------
        max_trials:
            Stop after computing this many *new* trials (stored ones do
            not count) — lets long sweeps run in bounded chunks; call
            :meth:`run` again to continue.
        verbose:
            Print one line per computed trial.
        workers:
            Worker processes; 1 (default) runs in-process.  Results are
            byte-identical at any worker count — trials are seeded by
            identity, computed records merge into the store as they
            land (interrupted parallel runs resume without recompute),
            and crashed workers are retried on a fresh pool.
        trial_batch:
            Trials evaluated per stacked forward pass; 1 evaluates
            one trial at a time.  Results are byte-identical at any
            batch size.
        """
        if workers < 1:
            raise ConfigurationError(f"need workers >= 1, got {workers!r}")
        if trial_batch < 1:
            raise ConfigurationError(
                f"need trial_batch >= 1, got {trial_batch!r}"
            )
        # One deterministic trace id per campaign run: the campaign.run
        # span, every scheduler cell and the grafted worker-side span
        # trees all stitch under it (no-op without a telemetry session).
        with _trace.trace_scope():
            with _telemetry.span(
                "campaign.run",
                network=self.spec.network,
                points=len(self.spec.points()),
                workers=workers,
                trial_batch=trial_batch,
            ):
                return self._run_inner(
                    max_trials, verbose, workers, trial_batch
                )

    def _run_inner(self, max_trials: Optional[int], verbose: bool,
                   workers: int, trial_batch: int) -> CampaignResult:
        session = _telemetry.active()
        fingerprint = self.spec.fingerprint()
        stored_records: Dict[Point, dict] = {}
        pending: List[Point] = []
        for point in self.spec.points():
            stored = self.store.get_json(
                self.trial_key(*point), spec_hash=fingerprint
            )
            if stored is not None:
                stored_records[point] = stored
            else:
                pending.append(point)
        if max_trials is not None:
            pending = pending[:max_trials]
        if session is not None:
            session.count("campaign.trials.started", len(pending))
            session.count("campaign.trials.cached", len(stored_records))

        computed_records: Dict[Point, dict] = {}

        def persist(_spec: CampaignSpec, points: Sequence[Point],
                    records: List[dict]) -> None:
            """Parent-side merge: persist trial records as soon as
            computed."""
            for point, record in zip(points, records):
                self.store.put_json(
                    self.trial_key(*point), record, spec_hash=fingerprint
                )
                computed_records[point] = record
            if session is not None:
                session.count("campaign.trials.computed", len(records))

        pool_rebuilds = 0
        if pending:
            pool_rebuilds = run_trial_groups(
                [(self.spec, pending)], workers, trial_batch, self._chips,
                persist,
            )

        records: List[dict] = []
        computed = cached = 0
        for point in self.spec.points():
            if point in stored_records:
                records.append(stored_records[point])
                cached += 1
            elif point in computed_records:
                record = computed_records[point]
                records.append(record)
                computed += 1
                if verbose:
                    rate, sigma, age, trial = point
                    prot = record["remapped_accuracy"]
                    print(
                        f"[faults] rate={rate:.3f} sigma={sigma:.2f} "
                        f"age={age:g} trial={trial}: "
                        f"unprotected={record['unprotected_accuracy']:.3f}"
                        + (f" remapped={prot:.3f}" if prot is not None
                           else "")
                    )
        return CampaignResult(
            spec=self.spec, records=records, computed=computed,
            cached=cached, pool_rebuilds=pool_rebuilds,
        )


def render_campaign(result: CampaignResult) -> str:
    """ASCII accuracy-vs-fault-rate curves, with and without remap."""
    spec = result.spec
    show_remap = any("remapped_mean" in p for p in result.curve())
    headers = ["rate", "sigma", "age", "unprotected", "min"]
    if show_remap:
        headers += ["remapped", "min", "flagged", "spares", "software"]
    rows = []
    for point in result.curve():
        row = [
            f"{point['rate']:.3f}",
            f"{point['sigma']:.2f}",
            f"{point['age']:g}",
            point["unprotected_mean"],
            point["unprotected_min"],
        ]
        if show_remap:
            if "remapped_mean" in point:
                row += [
                    point["remapped_mean"],
                    point["remapped_min"],
                    point["mean_flagged"],
                    point["mean_spare"],
                    point["mean_software"],
                ]
            else:
                row += ["-"] * 5
        rows.append(row)
    title = (
        f"Fault campaign — {spec.network} ({spec.backend}/{spec.mode}), "
        f"{spec.trials} trial(s)/point, seed {spec.seed}"
    )
    table = render_table(headers, rows, title=title)
    footer = (
        f"resume: {result.cached} trial(s) from store, "
        f"{result.computed} computed this run"
    )
    if result.pool_rebuilds:
        footer += (
            f"; {result.pool_rebuilds} worker-pool rebuild(s) after crashes"
        )
    return table + "\n" + footer
