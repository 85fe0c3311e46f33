"""Trial-stacked views of mapped networks (the Monte-Carlo fast path).

A Fig. 7 / fault-campaign sweep evaluates the *same* programmed network
under ``T`` independent conductance draws.  Serially that is ``T`` full
forward passes over tiny per-tile matrices, and Python call overhead
dominates.  :func:`stack_networks` collapses the per-trial
:class:`~repro.mapping.compiler.MappedNetwork` clones into one
:class:`StackedMappedNetwork` whose tiles hold ``(T, rows, cols)``
conductance tensors, so all trials ride through a single broadcast
``np.matmul`` per tile (see :class:`repro.reram.crossbar.StackedCrossbar`).

Bit-identity contract: every stacked output slice ``t`` equals the
serial forward pass of trial ``t`` down to the last ulp — numpy runs the
same 2-D GEMM kernel per broadcast slice and every other stage is
elementwise.  The reproducibility suite pins this down by hashing
persisted campaign records across both paths.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import MappingError, ShapeError
from ..nn.conv import Conv2D
from ..nn.layers import Dense
from ..nn.model import Sequential
from .backends import StackedTile, stack_tiles
from .compiler import MappedLayer, MappedNetwork
from .tiling import TileGrid
from .weight_mapping import DifferentialWeights

__all__ = ["StackedMappedLayer", "StackedMappedNetwork", "stack_networks"]


def _grid_product(
    grid: TileGrid,
    tiles: List[List[StackedTile]],
    x01: np.ndarray,
    trials: int,
    backend=None,
) -> np.ndarray:
    """``x01 @ M`` through stacked tile banks, with digital partial-sum
    accumulation in the same band order as
    :meth:`~repro.mapping.tiling.TileGrid.matmul_through` (the serial
    path), so float accumulation is bit-identical per trial.

    ``x01`` is ``(batch, rows)`` (shared by all trials) or per-trial
    ``(T, batch, rows)``; the result is always ``(T, batch, cols)``.
    ``backend`` selects the stacked compute kernels
    (:mod:`repro.kernels`; default numpy) for the tile products and
    never changes results.
    """
    from ..kernels import get_backend

    be = get_backend(backend)
    if x01.shape[-1] != grid.shape[0]:
        raise ShapeError(
            f"input width {x01.shape[-1]} != matrix rows {grid.shape[0]}"
        )
    lead = x01.shape[:-1] if x01.ndim == 3 else (trials,) + x01.shape[:-1]
    bands = []
    for j in range(grid.col_bands):
        # A contiguous accumulator per column band, summed from 0.0 over
        # the row bands in order, like the serial adder's output slice.
        acc = np.zeros(lead + (grid.col_edges[j + 1] - grid.col_edges[j],))
        for i in range(grid.row_bands):
            x_band = x01[..., grid.row_edges[i] : grid.row_edges[i + 1]]
            acc += tiles[i][j].matmul(x_band, backend=be)
        bands.append(acc)
    return bands[0] if len(bands) == 1 else np.concatenate(bands, axis=-1)


@dataclasses.dataclass
class StackedMappedLayer:
    """One weighted layer with ``T`` trial realizations per tile."""

    source: Union[Dense, Conv2D]
    diff: DifferentialWeights
    pos_grid: TileGrid
    neg_grid: TileGrid
    pos_tiles: List[List[StackedTile]]
    neg_tiles: List[List[StackedTile]]
    gain: float
    trials: int

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def num_tiles(self) -> int:
        return self.pos_grid.num_tiles + self.neg_grid.num_tiles

    def matmul_with_bias_level(
        self, x01: np.ndarray, bias_level: float, backend=None
    ) -> np.ndarray:
        """Stacked analogue of
        :meth:`~repro.mapping.compiler.MappedLayer.matmul_with_bias_level`:
        returns ``(T, batch, cols)`` signed products.  ``backend``
        selects the stacked compute kernels (:mod:`repro.kernels`;
        default numpy) and never changes results."""
        x01 = np.asarray(x01, dtype=float)
        if x01.ndim not in (2, 3):
            raise ShapeError(
                f"stacked layer input must be (batch, rows) or "
                f"(T, batch, rows), got {x01.shape}"
            )
        if x01.ndim == 3 and x01.shape[0] != self.trials:
            raise ShapeError(
                f"input carries {x01.shape[0]} trials, layer holds "
                f"{self.trials}"
            )
        if self.diff.has_bias_row:
            if not 0 <= bias_level <= 1:
                raise MappingError(
                    f"bias level must be in [0, 1], got {bias_level!r}"
                )
            ones_shape = x01.shape[:-1] + (1,)
            x01 = np.concatenate(
                [np.full(ones_shape, bias_level), x01], axis=-1
            )
        pos = _grid_product(
            self.pos_grid, self.pos_tiles, x01, self.trials, backend
        )
        neg = _grid_product(
            self.neg_grid, self.neg_tiles, x01, self.trials, backend
        )
        np.subtract(pos, neg, out=pos)
        return np.multiply(self.gain * self.diff.scale, pos, out=pos)


@dataclasses.dataclass
class StackedMappedNetwork:
    """A model whose mapped stages carry ``T`` trial realizations.

    Mirrors :class:`~repro.mapping.compiler.MappedNetwork`: ``stages``
    parallels the model's layers, ``None`` marking software stages.
    """

    model: Sequential
    stages: List[Optional[StackedMappedLayer]]
    trials: int

    def mapped_layers(self) -> List[StackedMappedLayer]:
        return [s for s in self.stages if s is not None]


def _stack_grids(
    layers: Sequence[MappedLayer], attr: str
) -> List[List[StackedTile]]:
    """Stack one polarity's grid position by position."""
    grid_tiles = [getattr(layer, attr) for layer in layers]
    rows = len(grid_tiles[0])
    cols = len(grid_tiles[0][0]) if rows else 0
    return [
        [
            stack_tiles([tiles[i][j] for tiles in grid_tiles])
            for j in range(cols)
        ]
        for i in range(rows)
    ]


def _stack_layers(
    layers: Sequence[MappedLayer], stack_grid=_stack_grids
) -> StackedMappedLayer:
    first = layers[0]
    names = {layer.name for layer in layers}
    if len(names) > 1:
        raise MappingError(f"cannot stack different layers: {sorted(names)}")
    gains = {layer.gain for layer in layers}
    if len(gains) > 1:
        raise MappingError(
            f"per-trial clones disagree on calibrated gain: {sorted(gains)}"
        )
    return StackedMappedLayer(
        source=first.source,
        diff=first.diff,
        pos_grid=first.pos_grid,
        neg_grid=first.neg_grid,
        pos_tiles=stack_grid(layers, "pos_tiles"),
        neg_tiles=stack_grid(layers, "neg_tiles"),
        gain=first.gain,
        trials=len(layers),
    )


def stack_networks(networks: Sequence[MappedNetwork]) -> StackedMappedNetwork:
    """Collapse per-trial :class:`MappedNetwork` clones into one stacked
    network.

    The clones must share a model and stage structure — which they do by
    construction, being ``perturbed``/``aged``/``faulted`` copies of one
    compiled network.  Bulk-drawn clones of one network
    (:meth:`MappedNetwork.perturbed`) stack with a single copy: their
    ``T`` cell buffers become one ``(T, N)`` array whose column ranges
    are every tile's trial stack.
    """
    networks = list(networks)
    if not networks:
        raise MappingError("cannot stack an empty sequence of networks")
    first = networks[0]
    if any(net.model is not first.model for net in networks[1:]):
        raise MappingError("per-trial networks must share one model")
    stage_counts = {len(net.stages) for net in networks}
    if len(stage_counts) > 1:
        raise MappingError(
            f"networks disagree on stage count: {sorted(stage_counts)}"
        )
    stack_grid = _stack_grids
    pool = first.drawn[0] if first.drawn is not None else None
    if pool is not None and all(
        net.drawn is not None and net.drawn[0] is pool for net in networks
    ):
        cells = np.stack([net.drawn[1] for net in networks])
        stacked_tiles = iter(pool.stack(cells, first.tiles()))

        def one_copy_grid(layers, attr):
            return [[next(stacked_tiles) for _ in row]
                    for row in getattr(layers[0], attr)]

        stack_grid = one_copy_grid

    stages: List[Optional[StackedMappedLayer]] = []
    for idx, stage in enumerate(first.stages):
        if stage is None:
            if any(net.stages[idx] is not None for net in networks):
                raise MappingError(
                    f"stage {idx} is mapped in some trials but not others"
                )
            stages.append(None)
        else:
            stages.append(
                _stack_layers([net.stages[idx] for net in networks],
                              stack_grid)
            )
    return StackedMappedNetwork(
        model=first.model, stages=stages, trials=len(networks)
    )
