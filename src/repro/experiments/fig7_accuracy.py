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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import render_table
from ..core.mvm import MVMMode
from ..errors import ConfigurationError
from ..faults.campaign import (
    CampaignResult,
    CampaignSpec,
    Point,
    run_trial_groups,
)
from ..runtime import trial_rng
from ..telemetry import session as _telemetry
from .networks import NETWORK_SPECS

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
    """

    sigmas: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    trials: int = 3
    networks: Optional[Tuple[str, ...]] = None
    n_samples: int = 1500
    eval_samples: int = 200
    mode: MVMMode = MVMMode.EXACT
    seed: int = 0

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


class _Fig7Spec(CampaignSpec):
    """One network's σ columns as a campaign grid (rate 0, age 0, no
    remap), so a σ column is the campaign's ``VariationInjector(σ)``.

    Two things keep Fig. 7's own numbers: the per-trial RNG token, and
    one realization of the null column (σ = 0), which is deterministic;
    the mean of ``trials`` identical floats is not always that float.
    """

    def points(self) -> List[Point]:
        return [
            point for point in super().points()
            if point[3] == 0 or self.injector_for(*point[:3]) is not None
        ]

    def rng_for(self, rate: float, sigma: float, age: float,
                trial: int) -> np.random.Generator:
        return trial_rng(self.seed, f"{self.network}|{sigma:.4f}|{trial}")


def _campaign_spec(config: Fig7Config, network: str) -> _Fig7Spec:
    """The grid of one network's Fig. 7 row."""
    return _Fig7Spec(
        network=network, rates=(0.0,), sigmas=config.sigmas, ages=(0.0,),
        trials=config.trials, seed=config.seed, n_samples=config.n_samples,
        eval_samples=config.eval_samples, backend="resipe",
        mode=config.mode.value, remap=False,
    )


def run_fig7(config: Optional[Fig7Config] = None, workers: int = 1,
             trial_batch: int = 1) -> Fig7Result:
    """Run the full Fig. 7 study.

    Parameters
    ----------
    config:
        Study knobs (defaults to the paper's protocol).
    workers:
        Worker processes; 1 (default) runs in-process.  The study is
        one fault-campaign DAG
        (:func:`~repro.faults.campaign.run_trial_groups`)
        at every worker count: one parent-side prepare cell per network
        feeding its trial-group cells on the pool; crashed workers are
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
    specs = [_campaign_spec(config, key) for key in keys]
    chips: Dict[str, Any] = {}
    records: Dict[str, Dict[Point, dict]] = {key: {} for key in keys}

    def collect(spec: CampaignSpec, points: Sequence[Point],
                recs: List[dict]) -> None:
        records[spec.network].update(zip(points, recs))

    run_trial_groups([(spec, spec.points()) for spec in specs], workers,
                     trial_batch, chips, collect)
    rows = []
    for spec in specs:
        chip = chips[spec.network]
        curve = CampaignResult(
            spec, [records[spec.network][p] for p in spec.points()],
            computed=len(records[spec.network]), cached=0,
        ).curve()
        software = float(np.mean(
            chip.model.predict(chip.x_eval, batch_size=128) == chip.y_eval
        ))
        rows.append(
            NetworkAccuracy(
                display=NETWORK_SPECS[spec.network].display,
                software_accuracy=software,
                by_sigma={
                    point["sigma"]: (point["unprotected_mean"],
                                     point["unprotected_min"])
                    for point in curve
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
    return render_table(headers, rows, title=title)
