"""Chip-level deployment model: a whole network on ReSiPE silicon.

The paper evaluates one engine (Table II) and network accuracy
(Fig. 7); a deployer also needs the *chip* view: how many crossbar
tiles a network consumes, the silicon area, the energy per inference
and the achievable frame rate under the two-slice pipeline.  This
module derives all of that from a compiled :class:`MappedNetwork` and
the :class:`~repro.core.power.ReSiPEPowerModel`; it is the one
per-network latency and throughput model:

* every programmed tile is one ReSiPE engine (differential mapping
  means two tile banks per layer);
* a Dense layer performs 1 MVM per input sample; a Conv2D layer
  performs one MVM per output position (its im2col row count);
* positions stream through a layer's tiles back to back
  (II = 2 slices), and layers overlap sample-to-sample per
  :func:`repro.core.pipeline.schedule_pipeline`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from typing import List, Optional

from ..config import CircuitParameters
from ..core.power import ReSiPEPowerModel
from ..core.pipeline import schedule_pipeline
from ..errors import ArtifactError, MappingError
from ..store.atomic import atomic_write_json
from ..nn.conv import AvgPool2D, MaxPool2D
from ..nn.layers import Dense, Flatten
from ..analysis.tables import render_table
from .compiler import MappedNetwork
from .remap import spare_columns_for

__all__ = ["LayerDeployment", "DeploymentReport", "plan_deployment"]


@dataclasses.dataclass(frozen=True)
class LayerDeployment:
    """Deployment figures for one mapped layer.

    Attributes
    ----------
    name:
        Layer name.
    tiles:
        Crossbar tiles consumed (both polarities).
    mvms_per_input:
        Sequential MVM launches per input sample (1 for Dense, the
        output-position count for Conv2D).
    occupancy_slices:
        Slices this layer's engines are busy per input sample.
    """

    name: str
    tiles: int
    mvms_per_input: int
    occupancy_slices: int


@dataclasses.dataclass(frozen=True)
class DeploymentReport:
    """Whole-network deployment summary.

    Attributes
    ----------
    network_name:
        The model's name.
    layers:
        Per-layer figures.
    total_tiles:
        Crossbars on the chip.
    area:
        Total silicon area (m²).
    average_power:
        Chip power while streaming inferences (watts).
    energy_per_inference:
        Joules per classified sample.
    latency_per_inference:
        Pipeline-fill latency for one sample (seconds).
    throughput:
        Steady-state inferences per second.
    spare_fraction:
        Per-layer spare-column budget reserved for fault remapping
        (fraction of each layer's logical columns; 0 = no reserve).
    spare_tiles:
        Crossbar tiles reserved to host the spare columns (both
        polarities), included in :attr:`area`.
    remap_events:
        Structured log of detect-and-remap decisions applied to this
        deployment (see :meth:`repro.mapping.remap.RemapResult.events`);
        empty until a repair pass runs.
    """

    network_name: str
    layers: List[LayerDeployment]
    total_tiles: int
    area: float
    average_power: float
    energy_per_inference: float
    latency_per_inference: float
    throughput: float
    spare_fraction: float = 0.0
    spare_tiles: int = 0
    remap_events: List[dict] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        """ASCII deployment table."""
        rows = [
            [l.name, l.tiles, l.mvms_per_input, l.occupancy_slices]
            for l in self.layers
        ]
        table = render_table(
            ["layer", "tiles", "MVMs/input", "busy slices/input"],
            rows,
            title=f"Deployment — {self.network_name}",
        )
        summary_lines = [
            f"total tiles          : {self.total_tiles}",
            f"area                 : {self.area * 1e6:.4f} mm^2",
            f"average power        : {self.average_power * 1e3:.2f} mW",
            f"energy / inference   : {self.energy_per_inference * 1e9:.2f} nJ",
            f"latency / inference  : {self.latency_per_inference * 1e6:.2f} us",
            f"throughput           : {self.throughput:.0f} inferences/s",
        ]
        if self.spare_tiles or self.spare_fraction:
            summary_lines.append(
                f"spare tiles          : {self.spare_tiles} "
                f"({self.spare_fraction:.0%} column reserve)"
            )
        if self.remap_events:
            spares = sum(1 for e in self.remap_events
                         if e.get("action") == "spare")
            soft = sum(1 for e in self.remap_events
                       if e.get("action") == "software")
            summary_lines.append(
                f"remap log            : {spares} column(s) on spares, "
                f"{soft} in software fallback"
            )
        return table + "\n" + "\n".join(summary_lines)

    def with_remap_log(self, events: List[dict]) -> "DeploymentReport":
        """A copy carrying a detect-and-remap decision log."""
        return dataclasses.replace(self, remap_events=list(events))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable view (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "DeploymentReport":
        """Rebuild a report saved by :meth:`to_dict`."""
        try:
            layers = [LayerDeployment(**l) for l in payload["layers"]]
            return cls(**{**payload, "layers": layers})
        except (KeyError, TypeError) as exc:
            raise ArtifactError(
                f"deployment report payload is malformed: {exc}"
            ) from exc

    def save(self, path: str) -> None:
        """Persist the report as JSON, atomically."""
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "DeploymentReport":
        """Load a report saved by :meth:`save`.

        Raises :class:`~repro.errors.ArtifactError` on a missing,
        unreadable, or malformed file.
        """
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ArtifactError(
                f"cannot read deployment report from {path!r}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ArtifactError(
                f"deployment report {path!r} is not a JSON object"
            )
        return cls.from_dict(payload)


def _checked_input_hw(input_hw: Optional[tuple]) -> Optional[tuple]:
    """``input_hw`` as two plain positive ints (``None`` passes)."""
    sides = tuple(input_hw) if isinstance(input_hw, (tuple, list)) else ()
    if input_hw is not None and (len(sides) != 2 or any(
            isinstance(side, bool) or not isinstance(side, numbers.Integral)
            or side < 1 for side in sides)):
        raise MappingError(f"input_hw must be two positive ints, got {input_hw!r}")
    return None if input_hw is None else (int(sides[0]), int(sides[1]))


def plan_deployment(
    network: MappedNetwork,
    params: Optional[CircuitParameters] = None,
    input_hw: Optional[tuple] = None,
    spare_fraction: float = 0.0,
) -> DeploymentReport:
    """Derive the chip-level deployment of a compiled network.

    Timing model: each layer is busy ``occupancy = 2 × MVMs`` slices
    per input, and the busiest layer sets the throughput ``1 / (max
    occupancy × slice)``.  Conv positions stream through every layer,
    so the latency ``(L − 1 + max occupancy) × slice`` for ``L`` mapped
    layers is a lower bound; layers that wait for a whole sample give
    the upper bound ``(Σ occupancy − (L − 1)) × slice``.  They agree
    when at most one layer is busy for more than 2 slices (every
    all-Dense net); for ``cnn-1`` they are 1571 and 1769 slices.

    Parameters
    ----------
    network:
        The compiled model.
    params:
        Engine operating point (defaults to the paper-literal point, the
        one Table II budgets are calibrated at).
    input_hw:
        ``(H, W)`` of the model input, required when the model contains
        Conv2D layers (spatial sizes are traced through convs/pools).
        Sizes the model cannot run raise :class:`MappingError`.
    spare_fraction:
        Fraction of each layer's logical columns to reserve as spare
        capacity for fault remapping (see
        :func:`repro.mapping.remap.detect_and_remap`).  The reserved
        tiles are counted in the chip area but draw no compute energy
        until a remap activates them.
    """
    p = params if params is not None else CircuitParameters.paper()
    engine = ReSiPEPowerModel(p)
    engine_report = engine.budget()

    # Trace (channels, H, W) through the network to count conv MVMs
    # and to check the flattened width against the next Dense layer.
    spatial = _checked_input_hw(input_hw)
    channels = flat = None
    layers: List[LayerDeployment] = []
    spare_tiles = 0
    for layer, stage in zip(network.model, network.stages):
        if stage is not None:
            # Spare reserve: width-1 column strips per row band and
            # polarity, packed into crossbar tiles.
            spare_cols = spare_columns_for(stage.diff.cols, spare_fraction)
            if spare_cols:
                row_bands = math.ceil(stage.diff.rows / p.rows)
                spare_tiles += 2 * row_bands * math.ceil(spare_cols / p.cols)
            source = stage.source
            if isinstance(source, Dense):
                if flat is not None and flat != source.in_features:
                    raise MappingError(
                        f"{stage.name}: expects {source.in_features} features, "
                        f"but Flatten gives {flat} on input_hw {input_hw}"
                    )
                flat = None
                mvms = 1
            else:  # Conv2D
                if spatial is None:
                    raise MappingError(
                        "input_hw is required for models with Conv2D layers"
                    )
                h = (spatial[0] + 2 * source.pad - source.kernel) // source.stride + 1
                w = (spatial[1] + 2 * source.pad - source.kernel) // source.stride + 1
                if h < 1 or w < 1:
                    raise MappingError(f"{stage.name}: no output position on {spatial}")
                spatial, channels = (h, w), source.out_channels
                mvms = h * w
            layers.append(
                LayerDeployment(
                    name=stage.name,
                    tiles=stage.num_tiles,
                    mvms_per_input=mvms,
                    occupancy_slices=2 * mvms,
                )
            )
        elif isinstance(layer, (MaxPool2D, AvgPool2D)):
            # Pooling shrinks spatial dims; flatten drops them.
            if spatial is not None:
                k = layer.kernel
                if spatial[0] % k or spatial[1] % k:
                    raise MappingError(f"{layer.name}: {spatial} not divisible by {k}")
                spatial = (spatial[0] // k, spatial[1] // k)
        elif isinstance(layer, Flatten):
            if channels is not None:
                flat = channels * spatial[0] * spatial[1]
            spatial = channels = None
    if not layers:
        raise MappingError("network has no mapped layers")

    total_tiles = sum(l.tiles for l in layers)
    area = (total_tiles + spare_tiles) * engine_report.total_area

    # Per-inference work: every tile of a layer fires once per MVM.
    tile_mvms = sum(l.tiles * l.mvms_per_input for l in layers)
    energy_per_mvm = engine_report.total_power * engine.latency
    energy = tile_mvms * energy_per_mvm

    # Latency: the slowest layer sets the initiation interval (its
    # positions stream back to back); cross-layer overlap follows the
    # two-slice pipeline.
    bottleneck_slices = max(l.occupancy_slices for l in layers)
    pipeline = schedule_pipeline(len(layers), 1, p.slice_length)
    fill_slices = pipeline.sample_latency_slices
    latency = (fill_slices + bottleneck_slices - 2) * p.slice_length
    interval = bottleneck_slices * p.slice_length
    throughput = 1.0 / interval
    average_power = energy * throughput

    return DeploymentReport(
        network_name=network.model.name,
        layers=layers,
        total_tiles=total_tiles,
        area=area,
        average_power=average_power,
        energy_per_inference=energy,
        latency_per_inference=latency,
        throughput=throughput,
        spare_fraction=spare_fraction,
        spare_tiles=spare_tiles,
    )
