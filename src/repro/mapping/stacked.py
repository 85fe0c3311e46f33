"""Trial stacks of mapped networks (the Monte-Carlo fast path).

A Fig. 7 / fault-campaign sweep evaluates the *same* programmed network
under ``T`` independent conductance draws.  One forward pass per trial
is ``T`` passes over tiny per-tile matrices, and Python call overhead
dominates.  :func:`stack_networks` collapses the per-trial
:class:`~repro.mapping.compiler.MappedNetwork` clones into one network
whose tiles hold ``(T, rows, cols)`` conductance tensors, so all trials
ride through a single broadcast ``np.matmul`` per tile on the very
datapath a lone chip runs (a lone chip is the ``T = 1`` stack).

Bit-identity contract: every output slice ``t`` of a stack equals the
forward pass of clone ``t`` down to the last ulp — numpy runs the same
2-D GEMM kernel per broadcast slice and every other stage is
elementwise.  The reproducibility suite pins this down by hashing
persisted campaign records across trial batch sizes.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..errors import MappingError
from .backends import ProgrammedTile, stack_tiles
from .compiler import MappedLayer, MappedNetwork

__all__ = ["stack_networks"]


def _stack_grids(
    layers: Sequence[MappedLayer], attr: str
) -> List[List[ProgrammedTile]]:
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
) -> MappedLayer:
    names = {layer.name for layer in layers}
    if len(names) > 1:
        raise MappingError(f"cannot stack different layers: {sorted(names)}")
    gains = {layer.gain for layer in layers}
    if len(gains) > 1:
        raise MappingError(
            f"per-trial clones disagree on calibrated gain: {sorted(gains)}"
        )
    return dataclasses.replace(
        layers[0],
        pos_tiles=stack_grid(layers, "pos_tiles"),
        neg_tiles=stack_grid(layers, "neg_tiles"),
    )


def stack_networks(networks: Sequence[MappedNetwork]) -> MappedNetwork:
    """Collapse per-trial :class:`MappedNetwork` clones into one trial
    stack with ``trials == len(networks)``; a single network is its own
    stack.

    The clones must share a model and stage structure — which they do by
    construction, being :meth:`~MappedNetwork.faulted` copies of one
    compiled network.  Remapped networks are terminal (a repaired chip,
    not a Monte-Carlo realization) and are rejected.  Clones drawn from
    one network's conductance pool stack with a single copy: their
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
    for net in networks:
        if net.trials != 1 or not all(
            isinstance(s, MappedLayer) for s in net.mapped_layers()
        ):
            raise MappingError(
                "only lone chips stack: remapped networks and trial "
                "stacks are terminal"
            )
    if len(networks) == 1:
        return first
    stack_grid = _stack_grids
    pool = first.drawn[0] if first.drawn is not None else None
    if pool is not None and all(
        net.drawn is not None and net.drawn[0] is pool for net in networks
    ):
        cells = np.stack([net.drawn[1] for net in networks])
        stacked_tiles = iter(pool.realize(cells))

        def one_copy_grid(layers, attr):
            return [[next(stacked_tiles) for _ in row]
                    for row in getattr(layers[0], attr)]

        stack_grid = one_copy_grid

    stages: List[Optional[MappedLayer]] = []
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
    return MappedNetwork(
        model=first.model, stages=stages, trials=len(networks)
    )
