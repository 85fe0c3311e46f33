"""Bit-sliced weight mapping for low-precision ReRAM devices.

The paper assumes analog (continuous) conductance programming.  Real
multi-level cells hold only a few stable levels; the standard remedy
(ISAAC-style) is **bit slicing**: quantise each weight to ``B`` bits,
split the code into groups of ``b`` bits, store each group in its own
crossbar column group at ``2^b`` levels, and recombine the partial MVM
results with digital shift-add:

    w = Σ_k scale_k · w_k,     w_k ∈ {0 .. 2^b-1} / (2^b-1)

This module provides the decomposition, a :class:`BitSlicingBackend`
that wraps any inner hardware backend (one engine per slice), and the
exactness guarantee that recombination reproduces the ``B``-bit
quantised weights bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..config import CircuitParameters
from ..core.mvm import MVMMode
from ..errors import MappingError
from ..reram.device import DeviceSpec
from .backends import HardwareBackend, ProgrammedTile, ReSiPEBackend, faulted_tiles

__all__ = ["slice_weights", "BitSlicingBackend"]


def slice_weights(
    weights01: np.ndarray, total_bits: int, bits_per_slice: int
) -> List[Tuple[np.ndarray, float]]:
    """Decompose ``[0, 1]`` weights into per-slice matrices and scales.

    Returns ``[(w_k, scale_k), ...]`` MSB-first with
    ``Q(w) = Σ scale_k · w_k`` exactly, where ``Q`` is ``total_bits``
    uniform quantisation and every ``w_k`` takes one of ``2^b`` values
    in ``[0, 1]``.
    """
    if total_bits < 1 or bits_per_slice < 1:
        raise MappingError("bit widths must be >= 1")
    if bits_per_slice > total_bits:
        raise MappingError(
            f"bits_per_slice ({bits_per_slice}) exceeds total_bits ({total_bits})"
        )
    if total_bits % bits_per_slice:
        raise MappingError(
            f"total_bits ({total_bits}) must be a multiple of "
            f"bits_per_slice ({bits_per_slice})"
        )
    w = np.asarray(weights01, dtype=float)
    if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
        raise MappingError("weights must lie in [0, 1]")

    full_levels = 2**total_bits - 1
    slice_levels = 2**bits_per_slice - 1
    codes = np.round(np.clip(w, 0, 1) * full_levels).astype(np.int64)

    num_slices = total_bits // bits_per_slice
    slices: List[Tuple[np.ndarray, float]] = []
    for k in range(num_slices):
        shift = bits_per_slice * (num_slices - 1 - k)
        group = (codes >> shift) & slice_levels
        scale = slice_levels * (2**shift) / full_levels
        slices.append((group.astype(float) / slice_levels, scale))
    return slices


class _BitSlicedTile(ProgrammedTile):
    """Shift-add recombination over per-slice inner tiles."""

    def __init__(self, tiles: List[ProgrammedTile], scales: List[float]) -> None:
        if len(tiles) != len(scales) or not tiles:
            raise MappingError("tiles and scales must be non-empty and aligned")
        self._tiles = tiles
        self._scales = scales

    def matmul(self, x: np.ndarray) -> np.ndarray:
        partials = [
            scale * tile.matmul(x)
            for tile, scale in zip(self._tiles, self._scales)
        ]
        return np.sum(partials, axis=0)

    def faulted(self, injector, rng: np.random.Generator) -> "_BitSlicedTile":
        # The slices draw in slice order, MSB first.
        tiles, _ = faulted_tiles(self._tiles, injector, rng)
        return _BitSlicedTile(tiles, list(self._scales))


@dataclasses.dataclass
class BitSlicingBackend(HardwareBackend):
    """Wraps an inner backend with bit-sliced weight storage.

    Parameters
    ----------
    total_bits:
        Weight resolution after quantisation.
    bits_per_slice:
        Bits stored per crossbar slice (must divide ``total_bits``);
        the inner device needs only ``2^bits_per_slice`` levels.
    inner:
        Backend used per slice; defaults to a ReSiPE backend whose
        device window is quantised to ``2^bits_per_slice`` levels.
    """

    total_bits: int = 8
    bits_per_slice: int = 2
    inner: Optional[HardwareBackend] = None

    def __post_init__(self) -> None:
        if self.total_bits < 1 or self.bits_per_slice < 1:
            raise MappingError("bit widths must be >= 1")
        if self.total_bits % self.bits_per_slice:
            raise MappingError("total_bits must be a multiple of bits_per_slice")
        if self.inner is None:
            spec = dataclasses.replace(
                DeviceSpec.paper_linear_range(), levels=2**self.bits_per_slice
            )
            self.inner = ReSiPEBackend(
                params=CircuitParameters.calibrated(),
                mode=MVMMode.EXACT,
                spec=spec,
            )

    @property
    def max_tile_shape(self) -> tuple:
        return self.inner.max_tile_shape

    @property
    def slices_per_weight(self) -> int:
        """Crossbar slices (engines) per logical tile."""
        return self.total_bits // self.bits_per_slice

    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        decomposition = slice_weights(
            weights01, self.total_bits, self.bits_per_slice
        )
        tiles = [self.inner.program(w_k) for w_k, _ in decomposition]
        scales = [scale for _, scale in decomposition]
        return _BitSlicedTile(tiles, scales)
