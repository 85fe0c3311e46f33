"""Compile a trained Sequential model onto crossbar hardware.

Every weighted layer (Dense, Conv2D) becomes a :class:`MappedLayer`:
its signed weights (bias folded) are converted to the differential
``[0, 1]`` representation, tiled to the backend's crossbar size, and
programmed through the backend into positive/negative tile banks.
Stateless layers (ReLU, pooling, flatten, dropout) stay in the digital
domain.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import MappingError
from ..nn.conv import Conv2D
from ..nn.layers import Dense
from ..nn.model import Sequential
from .backends import ConductancePool, HardwareBackend, ProgrammedTile, faulted_tiles
from .tiling import TileGrid, tile_matrix
from .weight_mapping import DifferentialWeights, map_signed_weights

__all__ = ["MappedLayer", "MappedNetwork", "compile_network"]


@dataclasses.dataclass
class MappedLayer:
    """One weighted layer programmed onto hardware tiles.

    Attributes
    ----------
    source:
        The original Dense/Conv2D layer (for geometry and naming).
    diff:
        The differential weight representation (bias row included).
    pos_grid / neg_grid:
        Tile grids of the two polarities.
    pos_tiles / neg_tiles:
        ``tiles[i][j]`` programmed hardware for each grid cell.
    gain:
        Scalar output-gain correction fitted at calibration time
        (1.0 until calibrated).
    """

    source: Union[Dense, Conv2D]
    diff: DifferentialWeights
    pos_grid: TileGrid
    neg_grid: TileGrid
    pos_tiles: List[List[ProgrammedTile]]
    neg_tiles: List[List[ProgrammedTile]]
    gain: float = 1.0

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def num_tiles(self) -> int:
        """Total crossbars used by this layer (both polarities)."""
        return self.pos_grid.num_tiles + self.neg_grid.num_tiles

    def matmul(self, x01: np.ndarray) -> np.ndarray:
        """Signed product ``x01 @ W_signed`` through the tile banks.

        ``x01`` must already be normalised into ``[0, 1]`` and must NOT
        include the bias input — it is prepended here when the layer has
        a folded bias row (driven at the executor-provided level via
        :meth:`matmul_with_bias_level`).
        """
        return self.matmul_with_bias_level(x01, bias_level=1.0)

    def matmul_with_bias_level(self, x01: np.ndarray, bias_level: float) -> np.ndarray:
        """Like :meth:`matmul` but drives the folded bias row at
        ``bias_level`` (the executor uses ``1/activation_scale`` so the
        bias is correctly scaled relative to normalised activations).

        In a trial stack ``x01`` is ``(batch, rows)`` shared by every
        trial or per-trial ``(T, batch, rows)``, and the product is
        ``(T, batch, cols)``."""
        x01 = np.asarray(x01, dtype=float)
        if self.diff.has_bias_row:
            if not 0 <= bias_level <= 1:
                raise MappingError(
                    f"bias level must be in [0, 1], got {bias_level!r}"
                )
            ones_shape = x01.shape[:-1] + (1,)
            x01 = np.concatenate(
                [np.full(ones_shape, bias_level), x01], axis=-1
            )
        pos = self.pos_grid.matmul_through(
            x01, lambda xb, i, j: self.pos_tiles[i][j].matmul(xb)
        )
        neg = self.neg_grid.matmul_through(
            x01, lambda xb, i, j: self.neg_tiles[i][j].matmul(xb)
        )
        np.subtract(pos, neg, out=pos)
        return np.multiply(self.gain * self.diff.scale, pos, out=pos)

    def _with_tiles(self, clone_tile) -> "MappedLayer":
        """A clone whose every tile is ``clone_tile(tile)``; all other
        attributes (grids, gain, calibration) are shared — the single
        place a layer's clones are built, so no clone can silently drop
        an attribute."""
        return dataclasses.replace(
            self,
            pos_tiles=[[clone_tile(t) for t in row] for row in self.pos_tiles],
            neg_tiles=[[clone_tile(t) for t in row] for row in self.neg_tiles],
        )


@dataclasses.dataclass
class MappedNetwork:
    """A model compiled onto hardware.

    ``stages`` parallels the model's layer list: weighted layers carry
    their :class:`MappedLayer`, all others ``None`` (executed in software).

    ``trials`` is the number of conductance realizations every tile
    holds: 1 for a compiled chip and its Monte-Carlo clones, ``T`` for
    a trial stack built by :func:`~repro.mapping.stacked.stack_networks`,
    whose forward passes carry a leading trial axis.

    ``drawn`` is ``(pool, cells)`` when the network is one realization
    ``cells`` of ``pool`` (see :meth:`faulted`), which lets
    :func:`~repro.mapping.stacked.stack_networks` stack realizations
    with one copy.  Like every clone, treat such a network as a
    snapshot: ``dataclasses.replace`` drops ``drawn``.
    """

    model: Sequential
    stages: List[Optional[MappedLayer]]
    trials: int = 1
    drawn: Optional[Tuple[ConductancePool, np.ndarray]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )
    _pool: Optional[ConductancePool] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def mapped_layers(self) -> List[MappedLayer]:
        """All hardware-mapped layers in order."""
        return [s for s in self.stages if s is not None]

    def total_tiles(self) -> int:
        """Total crossbars consumed by the whole network."""
        return sum(layer.num_tiles for layer in self.mapped_layers())

    def tiles(self) -> List[ProgrammedTile]:
        """Every programmed tile in draw order: stage → positive then
        negative grid → row-major tile."""
        return [
            tile
            for stage in self.mapped_layers()
            for grid in (stage.pos_tiles, stage.neg_tiles)
            for row in grid
            for tile in row
        ]

    def faulted(self, injector, rng: np.random.Generator) -> "MappedNetwork":
        """A clone of every mapped layer disturbed by ``injector`` (a
        :class:`~repro.faults.injectors.FaultInjector`: variation,
        stuck-at, drift, or any composition).

        Every tile is drawn by
        :func:`~repro.mapping.backends.faulted_tiles` in draw order:
        stage → positive/negative grid → row-major tile → redundancy
        slot.  ReSiPE tiles draw one read-only buffer and become views
        of it, and the clone records it in :attr:`drawn`; a null
        injector draws nothing and shares the pristine tiles.  A
        remapped network (a repaired chip) and a trial stack are
        terminal and raise :class:`~repro.errors.MappingError`.
        """
        if self.trials != 1:
            raise MappingError("a trial stack cannot be re-drawn")
        if not all(isinstance(s, MappedLayer) for s in self.mapped_layers()):
            raise MappingError("remapped layers cannot be re-drawn")
        tiles = tuple(self.tiles())
        if self._pool is None or self._pool.tiles != tiles:
            self._pool = ConductancePool.of(tiles)
        clones, drawn = faulted_tiles(tiles, injector, rng, self._pool)
        realized = iter(clones)
        clone = MappedNetwork(
            model=self.model,
            stages=[
                s._with_tiles(lambda _: next(realized))
                if s is not None else None
                for s in self.stages
            ],
        )
        clone.drawn = drawn
        return clone


def _program_grid(
    grid: TileGrid, backend: HardwareBackend
) -> List[List[ProgrammedTile]]:
    return [[backend.program(tile) for tile in row] for row in grid.tiles]


def compile_network(
    model: Sequential,
    backend: HardwareBackend,
    clip_percentile: float = 99.5,
) -> MappedNetwork:
    """Compile every weighted layer of ``model`` onto ``backend`` tiles.

    ``clip_percentile`` controls the per-layer weight normalisation
    (see :func:`repro.mapping.weight_mapping.map_signed_weights`); the
    default clips the heavy tail so the weight bulk uses more of the
    conductance window, which measurably improves process-variation
    robustness.
    """
    max_rows, max_cols = backend.max_tile_shape
    stages: List[Optional[MappedLayer]] = []
    for layer in model:
        if isinstance(layer, (Dense, Conv2D)):
            stages.append(
                _compile_layer(layer, backend, max_rows, max_cols, clip_percentile)
            )
        else:
            stages.append(None)
    if not any(stage is not None for stage in stages):
        raise MappingError("model has no weighted layers to map")
    return MappedNetwork(model=model, stages=stages)


def _compile_layer(
    layer: Union[Dense, Conv2D],
    backend: HardwareBackend,
    max_rows: int,
    max_cols: int,
    clip_percentile: float,
) -> MappedLayer:
    weights = layer.weight.value
    bias = layer.bias.value if layer.bias is not None else None
    diff = map_signed_weights(weights, bias, clip_percentile=clip_percentile)
    pos_grid = tile_matrix(diff.positive, max_rows, max_cols)
    neg_grid = tile_matrix(diff.negative, max_rows, max_cols)
    return MappedLayer(
        source=layer,
        diff=diff,
        pos_grid=pos_grid,
        neg_grid=neg_grid,
        pos_tiles=_program_grid(pos_grid, backend),
        neg_tiles=_program_grid(neg_grid, backend),
    )
