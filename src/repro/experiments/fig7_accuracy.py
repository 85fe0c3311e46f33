"""Fig. 7 — classification accuracy under process variation.

The paper's protocol, reproduced end to end:

1. train the six benchmark networks (Section IV-C list);
2. map each onto ReSiPE crossbars (differential weights, tiling,
   exact circuit equations — the σ=0 column therefore carries the
   *non-linearity* accuracy drop the paper bounds at 2.5 %);
3. perturb every programmed conductance with Gaussian device variation
   at σ ∈ {0, 5, 10, 15, 20} %, several Monte-Carlo trials each;
4. report ideal (software) accuracy and the mean/min accuracy per σ.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.tables import render_table
from ..config import CircuitParameters
from ..core.mvm import MVMMode
from ..errors import ConfigurationError
from ..mapping import PIMExecutor, ReSiPEBackend, compile_network
from ..runtime import CampaignCell, CampaignScheduler, trial_rng
from ..telemetry import session as _telemetry
from .networks import NETWORK_SPECS, TrainedNetwork, get_benchmark_networks

__all__ = ["Fig7Config", "Fig7Result", "run_fig7", "render_fig7"]


@dataclasses.dataclass(frozen=True)
class Fig7Config:
    """Knobs of the Fig. 7 study.

    Attributes
    ----------
    sigmas:
        Process-variation standard deviations (paper: 0–20 %).
    trials:
        Monte-Carlo draws per non-zero σ.
    networks:
        Which benchmark networks to include (default: all six).
    n_samples:
        Synthetic dataset size per network.
    eval_samples:
        Test images evaluated per trial (caps runtime).
    mode:
        Circuit fidelity (EXACT carries the non-linearity).
    seed:
        Master seed.
    stuck_on / stuck_off:
        Stuck-at fault rates (fraction of cells pinned to LRS/HRS)
        layered on top of the variation at every σ — extends the
        paper's study to hard defects.  0 (default) reproduces the
        paper exactly.
    """

    sigmas: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    trials: int = 3
    networks: Optional[Tuple[str, ...]] = None
    n_samples: int = 1500
    eval_samples: int = 200
    mode: MVMMode = MVMMode.EXACT
    seed: int = 0
    stuck_on: float = 0.0
    stuck_off: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigmas:
            raise ConfigurationError("need at least one sigma")
        if any(s < 0 for s in self.sigmas):
            raise ConfigurationError("sigmas must be >= 0")
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed!r}: trial streams "
                "derive from SeedSequence(seed + crc32(token)), which "
                "rejects negative entropy deep inside the sweep"
            )
        if self.eval_samples < 10:
            raise ConfigurationError("need at least 10 evaluation samples")
        if not 0 <= self.stuck_on <= 1 or not 0 <= self.stuck_off <= 1:
            raise ConfigurationError("stuck-at rates must be in [0, 1]")
        if len(set(self.sigmas)) != len(self.sigmas):
            raise ConfigurationError(f"duplicate sigmas in {self.sigmas}")
        if self.networks is not None:
            if len(set(self.networks)) != len(self.networks):
                raise ConfigurationError(
                    f"duplicate networks in {self.networks}"
                )
            unknown = [k for k in self.networks if k not in NETWORK_SPECS]
            if unknown:
                raise ConfigurationError(
                    f"unknown networks {unknown}; available: "
                    f"{list(NETWORK_SPECS)}"
                )

    @property
    def has_faults(self) -> bool:
        """Whether any stuck-at defects are layered on the variation."""
        return self.stuck_on > 0 or self.stuck_off > 0


@dataclasses.dataclass
class NetworkAccuracy:
    """Per-network Fig. 7 row.

    Attributes
    ----------
    display:
        Network name (paper style).
    software_accuracy:
        The "ideal" bar of Fig. 7.
    by_sigma:
        σ → (mean accuracy, min accuracy) over trials.
    """

    display: str
    software_accuracy: float
    by_sigma: Dict[float, Tuple[float, float]]

    def drop(self, sigma: float) -> float:
        """Mean accuracy drop vs software at ``sigma``."""
        return self.software_accuracy - self.by_sigma[sigma][0]


@dataclasses.dataclass
class Fig7Result:
    """All Fig. 7 rows plus the configuration used."""

    config: Fig7Config
    rows: List[NetworkAccuracy]

    def row(self, display_prefix: str) -> NetworkAccuracy:
        """Look up a row by display-name prefix (e.g. ``"CNN-1"``)."""
        for r in self.rows:
            if r.display.startswith(display_prefix):
                return r
        raise ConfigurationError(
            f"no row starting with {display_prefix!r}; "
            f"have {[r.display for r in self.rows]}"
        )


def _make_injector(config: Fig7Config, sigma: float):
    """The disturbance of one σ column: variation, then the stuck-at
    defects when ``config`` has any (null at σ = 0 without faults)."""
    from ..faults import CompositeInjector, StuckAtInjector, VariationInjector

    variation = VariationInjector(sigma=sigma)
    if not config.has_faults:
        return variation
    stuck = StuckAtInjector(
        stuck_on_rate=config.stuck_on, stuck_off_rate=config.stuck_off
    )
    if sigma == 0:
        return stuck
    return CompositeInjector(variation, stuck)


def _prepare_network(
    net: TrainedNetwork, config: Fig7Config
) -> Tuple[PIMExecutor, np.ndarray, np.ndarray]:
    """Map + calibrate one benchmark network (deterministic)."""
    backend = ReSiPEBackend(
        params=CircuitParameters.calibrated(), mode=config.mode
    )
    mapped = compile_network(net.model, backend)
    calibration = net.train.images[: min(64, len(net.train))]
    executor = PIMExecutor(mapped, calibration)
    x_eval = net.test.images[: config.eval_samples]
    y_eval = net.test.labels[: config.eval_samples]
    return executor, x_eval, y_eval


def _sigma_column(
    net: TrainedNetwork,
    executor: PIMExecutor,
    config: Fig7Config,
    sigma: float,
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    trial_batch: int,
) -> Tuple[float, float]:
    """(mean, min) accuracy of one σ column over the Monte-Carlo trials.

    Trials are seeded by identity (network key, σ, trial index) and
    evaluated ``trial_batch`` at a time as one trial stack —
    bit-identical to one trial at a time at any batch size.
    """
    injector = _make_injector(config, sigma)
    if injector.is_null:
        acc = executor.accuracy(x_eval, y_eval)
        return (acc, acc)
    accs: List[float] = []
    for start in range(0, config.trials, trial_batch):
        stop = min(start + trial_batch, config.trials)
        clones = [
            executor.faulted(
                injector,
                trial_rng(config.seed, f"{net.spec.key}|{sigma:.4f}|{trial}"),
            ).network
            for trial in range(start, stop)
        ]
        stacked = executor.accuracy_trials(x_eval, y_eval, clones)
        accs.extend(float(a) for a in stacked)
    return (float(np.mean(accs)), float(np.min(accs)))


def _fig7_prepare(
    config: Fig7Config, cell: CampaignCell
) -> Tuple[TrainedNetwork, PIMExecutor, np.ndarray, np.ndarray]:
    """The ``prepare/{key}`` cell: train (or load) one benchmark network
    and map + calibrate its chip, in the parent process."""
    with _telemetry.span("fig7.network", network=cell.payload):
        net = get_benchmark_networks(
            keys=[cell.payload], n_samples=config.n_samples,
            seed=config.seed,
        )[0]
        return (net,) + _prepare_network(net, config)


def _fig7_column(
    config: Fig7Config, trial_batch: int, sigma: float,
    prepared: Tuple[TrainedNetwork, PIMExecutor, np.ndarray, np.ndarray],
) -> Tuple[float, float]:
    """The ``column/{key}/{sigma}`` cell: one σ column of a prepared
    network (seeded by identity, so any process computes the same)."""
    net, executor, x_eval, y_eval = prepared
    with _telemetry.span(
        "fig7.sigma_column",
        network=net.spec.key, sigma=sigma, trials=config.trials,
    ):
        return _sigma_column(
            net, executor, config, sigma, x_eval, y_eval, trial_batch
        )


def run_fig7(config: Optional[Fig7Config] = None, workers: int = 1,
             trial_batch: int = 1) -> Fig7Result:
    """Run the full Fig. 7 study.

    Parameters
    ----------
    config:
        Study knobs (defaults to the paper's protocol).
    workers:
        Worker processes; 1 (default) runs in-process.  The study is a
        :class:`~repro.runtime.CampaignScheduler` DAG at every worker
        count: one parent-side prepare cell per network feeding its
        (network, σ) column cells on the pool; crashed workers are
        retried on a fresh pool.
    trial_batch:
        Monte-Carlo trials evaluated per stacked forward pass.

    Both knobs are execution details: results are byte-identical for a
    fixed config at any worker count or batch size.
    """
    config = config if config is not None else Fig7Config()
    if workers < 1:
        raise ConfigurationError(f"need workers >= 1, got {workers!r}")
    if trial_batch < 1:
        raise ConfigurationError(
            f"need trial_batch >= 1, got {trial_batch!r}"
        )
    with _telemetry.span(
        "fig7.run",
        networks=len(config.networks) if config.networks else "all",
        sigmas=len(config.sigmas), trials=config.trials, workers=workers,
    ):
        return _run_fig7_inner(config, workers, trial_batch)


def _run_fig7_inner(config: Fig7Config, workers: int,
                    trial_batch: int) -> Fig7Result:
    keys = list(NETWORK_SPECS if config.networks is None else config.networks)
    cells = []
    for key in keys:
        cells.append(
            CampaignCell(key=f"prepare/{key}", payload=key, local=True)
        )
        cells.extend(
            CampaignCell(
                key=f"column/{key}/{sigma!r}",
                payload=sigma,
                deps=(f"prepare/{key}",),
            )
            for sigma in config.sigmas
        )
    scheduler = CampaignScheduler(
        functools.partial(_fig7_column, config, trial_batch),
        workers=workers,
        local_fn=functools.partial(_fig7_prepare, config),
    )
    results = scheduler.run(cells)
    rows = []
    for key in keys:
        net, _executor, x_eval, y_eval = results[f"prepare/{key}"]
        software = float(
            np.mean(net.model.predict(x_eval, batch_size=128) == y_eval)
        )
        rows.append(
            NetworkAccuracy(
                display=net.spec.display,
                software_accuracy=software,
                by_sigma={
                    sigma: results[f"column/{key}/{sigma!r}"]
                    for sigma in config.sigmas
                },
            )
        )
    return Fig7Result(config=config, rows=rows)


def render_fig7(result: Fig7Result) -> str:
    """ASCII rendering of the accuracy-vs-variation table."""
    sigmas = result.config.sigmas
    headers = ["network", "ideal"] + [f"σ={s:.0%}" for s in sigmas] + [
        f"drop@σ={sigmas[-1]:.0%}"
    ]
    rows = []
    for r in result.rows:
        rows.append(
            [r.display, r.software_accuracy]
            + [r.by_sigma[s][0] for s in sigmas]
            + [r.drop(sigmas[-1])]
        )
    title = "Fig. 7 — accuracy under process variation (ReSiPE, exact circuit)"
    if result.config.has_faults:
        title += (
            f" + stuck-at on={result.config.stuck_on:.1%} "
            f"off={result.config.stuck_off:.1%}"
        )
    return render_table(headers, rows, title=title)
