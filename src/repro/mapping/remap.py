"""Detect-and-remap graceful degradation for mapped networks.

Without this module a single stuck-on column silently corrupts every
inference through the layer that owns it.  The recovery flow is the
classic spare-row/column repair of memory BIST, transplanted to the
single-spiking PIM pipeline:

1. **Detect** — a :class:`~repro.faults.probe.HealthProbe` fires known
   calibration vectors through each mapped layer of the (possibly
   faulted) network and compares the response against the pristine
   reference, flagging deviating logical columns.
2. **Remap** — each flagged column (worst first, up to the spare
   budget reserved at :func:`~repro.mapping.deployment.plan_deployment`
   time) is copied onto a spare column strip: the column's pristine
   programming, one width-1 tile per row band and polarity.  Spares
   live on the same faulty silicon, so every copy is itself
   fault-injected and re-probed; a bad spare is retried up to
   ``max_retries`` times.  A layer's strips evaluate as trial stacks
   (:func:`~repro.mapping.backends.stack_tiles`), one tile call per row
   band for all of them.
3. **Degrade, never corrupt** — columns beyond the spare budget, or
   whose spares keep failing, fall back to an explicit software MVM on
   the stored differential weights.  The answer stays correct; only
   the analog speed/energy advantage is lost for those columns, and
   the fallback is recorded so operators can see the degradation.

Everything is returned as a :class:`RemapResult`: a drop-in network
clone (flagged columns served by spares or software) plus a structured
remap log that feeds ``DeploymentReport.remap_events`` and the fault
campaign's trial records.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..telemetry import session as _telemetry
from .backends import ConductancePool, HardwareBackend, ProgrammedTile, faulted_tiles, stack_tiles
from .compiler import MappedLayer, MappedNetwork

__all__ = [
    "RemapRecord",
    "RemapResult",
    "PatchedLayer",
    "detect_and_remap",
    "spare_columns_for",
]


def spare_columns_for(cols: int, spare_fraction: float) -> int:
    """Spare-column budget for a layer of ``cols`` logical columns."""
    if cols < 1:
        raise MappingError(f"cols must be >= 1, got {cols!r}")
    if not 0 <= spare_fraction <= 1:
        raise MappingError(
            f"spare fraction must be in [0, 1], got {spare_fraction!r}"
        )
    if spare_fraction == 0:
        return 0
    return int(math.ceil(cols * spare_fraction))


def _augment(x: np.ndarray, bias_level: float, has_bias_row: bool) -> np.ndarray:
    """Prepend the folded-bias drive (mirrors ``MappedLayer``)."""
    if not has_bias_row:
        return x
    ones_shape = x.shape[:-1] + (1,)
    return np.concatenate([np.full(ones_shape, bias_level), x], axis=-1)


@dataclasses.dataclass(frozen=True)
class RemapRecord:
    """One recovery decision for one logical column.

    Attributes
    ----------
    layer:
        Owning layer name.
    column:
        Logical output-column index.
    action:
        ``"spare"`` (re-programmed onto a spare strip) or
        ``"software"`` (digital-MVM degraded mode).
    attempts:
        Spare programming attempts consumed (0 when the column went
        straight to software because the budget was exhausted).
    deviation:
        The probe deviation that triggered the recovery.
    """

    layer: str
    column: int
    action: str
    attempts: int
    deviation: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class _SpareStrip(NamedTuple):
    """One logical column served by a spare strip: a width-1 tile per
    row band, positive bands first, then negative.  ``row_edges`` is the
    layer's own row-band tiling, so partial sums accumulate as in the
    original mapping."""

    column: int
    row_edges: Tuple[int, ...]
    tiles: Tuple[ProgrammedTile, ...]


def _accumulate(partials: Sequence[np.ndarray]) -> np.ndarray:
    """Digital partial-sum reduction over row bands: from 0.0 in band
    order, as :meth:`TileGrid.matmul_through` adds them."""
    acc = 0.0 + partials[0]
    for partial in partials[1:]:
        acc += partial
    return acc


class PatchedLayer:
    """A mapped layer whose unhealthy columns are served elsewhere.

    Duck-types :class:`~repro.mapping.compiler.MappedLayer` for the
    executor: geometry, naming and tile accounting delegate to the
    wrapped (faulted) base layer; flagged columns are overridden by
    spare-strip hardware or the digital fallback at matmul time.  A
    remapped network is terminal: it models a repaired chip, not a
    substrate for further draws (:meth:`MappedNetwork.faulted` raises).
    """

    def __init__(
        self,
        base,
        strips: Sequence[_SpareStrip] = (),
        software_cols: Sequence[int] = (),
    ) -> None:
        self.base = base
        self.strips = list(strips)
        self.software_cols = tuple(sorted(set(int(c) for c in software_cols)))
        overlap = set(s.column for s in self.strips) & set(self.software_cols)
        if overlap:
            raise MappingError(
                f"columns {sorted(overlap)} assigned to both spare and "
                f"software paths"
            )
        diff = base.diff
        if self.software_cols:
            signed = diff.scale * (diff.positive - diff.negative)
            self._w_soft = signed[:, list(self.software_cols)]
        else:
            self._w_soft = None
        # Every strip of the layer as one trial stack per row band,
        # positive strips first: a band costs one tile call for all of
        # them on the shared band input.
        self._row_edges = self.strips[0].row_edges if self.strips else ()
        bands = len(self._row_edges) - 1
        self._bands = [
            stack_tiles(
                [s.tiles[i] for s in self.strips]
                + [s.tiles[bands + i] for s in self.strips]
            )
            for i in range(bands)
        ] if self.strips else []

    # -- MappedLayer protocol ------------------------------------------
    @property
    def source(self):
        return self.base.source

    @property
    def diff(self):
        return self.base.diff

    @property
    def gain(self) -> float:
        return self.base.gain

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def num_tiles(self) -> int:
        """Active tiles including the spare strips in use."""
        return self.base.num_tiles + sum(len(s.tiles) for s in self.strips)

    def matmul(self, x01: np.ndarray) -> np.ndarray:
        return self.matmul_with_bias_level(x01, bias_level=1.0)

    def matmul_with_bias_level(self, x01: np.ndarray, bias_level: float) -> np.ndarray:
        out = np.asarray(
            self.base.matmul_with_bias_level(x01, bias_level), dtype=float
        )
        if not self.strips and self._w_soft is None:
            return out
        x_aug = _augment(
            np.asarray(x01, dtype=float), bias_level, self.diff.has_bias_row
        )
        if self.strips:
            # The stacks' leading axis is the strip, so a batch with
            # more than one leading axis evaluates flattened.
            lead = x_aug.shape[:-1]
            flat = (x_aug.reshape((-1, x_aug.shape[-1]))
                    if x_aug.ndim > 2 else x_aug)
            edges = self._row_edges
            acc = _accumulate([
                band.matmul(flat[..., edges[i] : edges[i + 1]])
                for i, band in enumerate(self._bands)
            ])
            count = len(self.strips)
            signed = self.gain * self.diff.scale * (
                acc[:count] - acc[count:]
            )[..., 0]
            out[..., [s.column for s in self.strips]] = np.moveaxis(
                signed, 0, -1
            ).reshape(lead + (count,))
        if self._w_soft is not None:
            soft = self.gain * (x_aug @ self._w_soft)
            out[..., list(self.software_cols)] = soft
        return out


@dataclasses.dataclass
class RemapResult:
    """Outcome of one detect-and-remap pass.

    Attributes
    ----------
    network:
        Drop-in network clone; flagged columns are served by spares or
        the software fallback.  Bind it to a calibrated executor with
        ``executor._clone_with_network(result.network)``.
    records:
        One :class:`RemapRecord` per recovered column.
    reports:
        The detection-phase probe reports, by layer name.
    """

    network: MappedNetwork
    records: List[RemapRecord]
    reports: Dict[str, object]

    @property
    def spare_cols(self) -> int:
        """Columns recovered onto spare strips."""
        return sum(1 for r in self.records if r.action == "spare")

    @property
    def software_cols(self) -> int:
        """Columns degraded to the software-MVM fallback."""
        return sum(1 for r in self.records if r.action == "software")

    @property
    def flagged_cols(self) -> int:
        """Columns the probe flagged (== len(records))."""
        return len(self.records)

    def events(self) -> List[dict]:
        """JSON-serialisable remap log (worst deviations first)."""
        return [
            r.to_dict()
            for r in sorted(self.records, key=lambda r: -r.deviation)
        ]


def _pristine_strip(layer: MappedLayer, column: int,
                    backend: HardwareBackend) -> _SpareStrip:
    """``column`` of the pristine ``layer`` as a spare strip: width-1
    tiles on the layer's row bands, positive bands first, then negative.

    Each tile is a column slice of the layer's programmed tile
    (:meth:`ProgrammedTile.column`), which costs a fraction of
    programming it afresh; a tile that cannot lend its programming
    (design and bit-sliced tiles) has the column's weights programmed
    through ``backend`` instead.
    """
    col_edges = layer.pos_grid.col_edges
    band = bisect.bisect_right(col_edges, column) - 1
    local = column - col_edges[band]
    tiles = []
    for grid, grid_tiles in ((layer.pos_grid, layer.pos_tiles),
                             (layer.neg_grid, layer.neg_tiles)):
        for i, row in enumerate(grid_tiles):
            tile = row[band].column(local)
            if tile is None:
                tile = backend.program(
                    grid.tiles[i][band][:, local : local + 1]
                )
            tiles.append(tile)
    return _SpareStrip(column, layer.pos_grid.row_edges, tuple(tiles))


def _strip_output(strip: _SpareStrip, x_aug: np.ndarray,
                  factor: float) -> np.ndarray:
    """One spare strip's signed output for the augmented input
    ``x_aug``, times ``factor``.

    Row bands of equal height evaluate as one trial stack over both
    polarities, each tile on its own band input, so a strip costs one
    tile call per distinct band height (two: the full bands and a
    ragged last one).
    """
    row_edges, tiles = strip.row_edges, strip.tiles
    bands = len(row_edges) - 1
    x_bands = [x_aug[..., row_edges[i] : row_edges[i + 1]]
               for i in range(bands)]
    by_height: Dict[int, List[int]] = {}
    for i in range(bands):
        by_height.setdefault(x_bands[i].shape[-1], []).append(i)
    partials: List = [None] * (2 * bands)
    for group in by_height.values():
        members = group + [bands + i for i in group]
        inputs = np.stack([x_bands[i] for i in group] * 2)
        outputs = stack_tiles([tiles[k] for k in members]).matmul(inputs)
        for k, output in zip(members, outputs):
            partials[k] = output
    pos = _accumulate(partials[:bands])
    neg = _accumulate(partials[bands:])
    return factor * (pos - neg)[..., 0]


def detect_and_remap(
    reference: MappedNetwork,
    candidate: MappedNetwork,
    backend: HardwareBackend,
    probe,
    injector=None,
    rng: Optional[np.random.Generator] = None,
    spare_fraction: float = 0.1,
    max_retries: int = 2,
) -> RemapResult:
    """Probe ``candidate`` against ``reference`` and repair what fails.

    Parameters
    ----------
    reference:
        The pristine network recorded at deployment time (golden
        responses).
    candidate:
        The same network after faults struck (e.g. from
        :meth:`MappedNetwork.faulted`).
    backend:
        The backend the network was compiled with; it programs the
        spare strips of tiles that cannot lend a column slice of their
        programming (ideal and ReSiPE tiles can).
    probe:
        A :class:`~repro.faults.probe.HealthProbe` (any object with
        ``stimulus``/``probe_layer``/``threshold`` whose layer reports
        carry the ``golden`` response and its ``scale``).
    injector:
        The fault model afflicting the silicon; spares are disturbed
        by fresh draws from it.  ``None`` = spares are clean.
    rng:
        Random source for spare fault draws (required when
        ``injector`` is given).
    spare_fraction:
        Per-layer spare-column budget as a fraction of the layer's
        logical columns (matches ``plan_deployment``'s reservation).
    max_retries:
        Extra spare programming attempts per column before giving up
        and degrading to software.
    """
    if injector is not None and rng is None:
        raise MappingError("rng is required when an injector is given")
    if max_retries < 0:
        raise MappingError(f"max_retries must be >= 0, got {max_retries!r}")

    stages_out: List = []
    records: List[RemapRecord] = []
    reports: Dict[str, object] = {}

    for ref_stage, cand_stage in zip(reference.stages, candidate.stages):
        if ref_stage is None or cand_stage is None:
            if (ref_stage is None) != (cand_stage is None):
                raise MappingError("mapped/unmapped stages do not align")
            stages_out.append(None)
            continue
        if not isinstance(ref_stage, MappedLayer):
            raise MappingError(
                f"reference layer {ref_stage.name!r} is not a pristine "
                f"compiled layer; spares are sliced from its programming"
            )

        report = probe.probe_layer(ref_stage, cand_stage)
        reports[ref_stage.name] = report
        if report.healthy:
            stages_out.append(cand_stage)
            continue

        diff = ref_stage.diff
        budget = spare_columns_for(diff.cols, spare_fraction)
        flagged = list(report.flagged)  # worst deviation first
        spare_bound = flagged[:budget]
        software_bound = flagged[budget:]

        # Spares are verified against the probe's golden response.
        width = diff.rows - 1 if diff.has_bias_row else diff.rows
        x_aug = _augment(probe.stimulus(width), 1.0, diff.has_bias_row)
        factor = cand_stage.gain * diff.scale

        strips: List[_SpareStrip] = []
        for column in spare_bound:
            # Sliced once; each attempt faults a fresh copy, drawing
            # per band tile, positive bands first, then negative.
            pristine = _pristine_strip(ref_stage, column, backend)
            pool = ConductancePool.of(pristine.tiles)
            accepted = None
            attempts = 0
            for _ in range(max_retries + 1):
                attempts += 1
                strip = pristine if injector is None else pristine._replace(
                    tiles=tuple(
                        faulted_tiles(pristine.tiles, injector, rng, pool)[0]
                    )
                )
                observed = _strip_output(strip, x_aug, factor)
                deviation = float(
                    np.abs(observed - report.golden[:, column]).max()
                    / report.scale
                )
                if deviation <= probe.threshold:
                    accepted = strip
                    break
            if accepted is not None:
                strips.append(accepted)
                records.append(RemapRecord(
                    layer=ref_stage.name, column=column, action="spare",
                    attempts=attempts,
                    deviation=float(report.deviations[column]),
                ))
            else:
                software_bound.append(column)
                records.append(RemapRecord(
                    layer=ref_stage.name, column=column, action="software",
                    attempts=attempts,
                    deviation=float(report.deviations[column]),
                ))
        for column in flagged[budget:]:
            records.append(RemapRecord(
                layer=ref_stage.name, column=column, action="software",
                attempts=0, deviation=float(report.deviations[column]),
            ))

        stages_out.append(
            PatchedLayer(cand_stage, strips, software_bound)
        )

    session = _telemetry.active()
    if session is not None:
        worst = max(
            (float(rep.worst()) for rep in reports.values()), default=0.0
        )
        session.set_gauge("remap.probe_deviation", worst)
        session.count("remap.flagged", len(records))
        session.count(
            "remap.spare",
            sum(1 for r in records if r.action == "spare"),
        )
        session.count(
            "remap.software",
            sum(1 for r in records if r.action == "software"),
        )

    return RemapResult(
        network=MappedNetwork(model=candidate.model, stages=stages_out),
        records=records,
        reports=reports,
    )
