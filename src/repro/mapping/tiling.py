"""Matrix tiling onto fixed-size crossbars.

A layer matrix larger than one crossbar is split into a grid of tiles
of at most ``(max_rows, max_cols)``.  At inference, tiles in the same
*row band* see the same input slice; tiles in the same *column band*
produce partial sums that are added digitally (the standard PIM
partial-sum reduction); column bands concatenate.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple

import numpy as np

from ..errors import MappingError, ShapeError

__all__ = ["TileGrid", "tile_matrix"]


@dataclasses.dataclass(frozen=True)
class TileGrid:
    """A matrix split into crossbar-sized tiles.

    Attributes
    ----------
    tiles:
        ``tiles[i][j]`` is the sub-matrix of row band ``i`` and column
        band ``j``.
    row_edges / col_edges:
        Band boundary indices (``len = bands + 1``).
    shape:
        Original matrix shape.
    """

    tiles: Tuple[Tuple[np.ndarray, ...], ...]
    row_edges: Tuple[int, ...]
    col_edges: Tuple[int, ...]
    shape: Tuple[int, int]

    @property
    def row_bands(self) -> int:
        return len(self.row_edges) - 1

    @property
    def col_bands(self) -> int:
        return len(self.col_edges) - 1

    @property
    def num_tiles(self) -> int:
        return self.row_bands * self.col_bands

    def reassemble(self) -> np.ndarray:
        """Stitch the tiles back into the original matrix."""
        return np.concatenate(
            [np.concatenate(row, axis=1) for row in self.tiles], axis=0
        )

    def matmul_through(
        self, x: np.ndarray, tile_op: Callable[[np.ndarray, int, int], np.ndarray]
    ) -> np.ndarray:
        """Compute ``x @ M`` where each tile product is delegated.

        ``tile_op(x_band, i, j)`` must return the partial product of the
        input slice for row band ``i`` against tile ``(i, j)``.  Partial
        sums across row bands are accumulated digitally: each column band
        in its own contiguous accumulator, from 0.0 in row band order.
        The output takes its leading axes from the partial products, so
        tiles holding a trial stack yield ``(T, ..., cols)``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.shape[0]:
            raise ShapeError(
                f"input width {x.shape[-1]} != matrix rows {self.shape[0]}"
            )
        x_bands = [
            x[..., self.row_edges[i] : self.row_edges[i + 1]]
            for i in range(self.row_bands)
        ]
        bands = []
        for j in range(self.col_bands):
            acc = 0.0 + tile_op(x_bands[0], 0, j)
            for i in range(1, self.row_bands):
                acc += tile_op(x_bands[i], i, j)
            bands.append(acc)
        return bands[0] if len(bands) == 1 else np.concatenate(bands, axis=-1)


def _edges(total: int, chunk: int) -> Tuple[int, ...]:
    return tuple(range(0, total, chunk)) + (total,)


def tile_matrix(matrix: np.ndarray, max_rows: int, max_cols: int) -> TileGrid:
    """Split ``matrix`` into a :class:`TileGrid` of crossbar-sized tiles."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise MappingError(f"matrix must be 2-D, got shape {m.shape}")
    if max_rows < 1 or max_cols < 1:
        raise MappingError("tile dimensions must be >= 1")
    rows, cols = m.shape
    row_edges = _edges(rows, max_rows)
    col_edges = _edges(cols, max_cols)
    tiles = tuple(
        tuple(
            m[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            for j in range(len(col_edges) - 1)
        )
        for i in range(len(row_edges) - 1)
    )
    return TileGrid(tiles=tiles, row_edges=row_edges, col_edges=col_edges,
                    shape=(rows, cols))
