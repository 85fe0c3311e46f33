"""Pluggable hardware backends for the mapping executor.

A backend programs weight tiles in ``[0, 1]`` and returns
:class:`ProgrammedTile` objects that compute ``x @ w`` through the
hardware's signal chain.  Every Monte-Carlo clone — process variation
(the Fig. 7 protocol), stuck-at faults, drift — is drawn by one
routine, :func:`faulted_tiles`, from a
:class:`~repro.faults.injectors.FaultInjector`.

Backends provided:

* :class:`IdealBackend` — exact numpy matmul (the software reference).
* :class:`ReSiPEBackend` — the single-spiking engine with exact circuit
  equations; supports variation and saturation compensation.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import List, Optional, Sequence, Tuple, cast

import numpy as np

from ..config import CircuitParameters
from ..core.engine import ReSiPEEngine
from ..core.mvm import MVMMode
from ..errors import MappingError, ShapeError
from ..reram.device import DeviceSpec

__all__ = ["HardwareBackend", "ProgrammedTile", "IdealBackend",
           "ReSiPEBackend", "stack_tiles",
           "ConductancePool", "faulted_tiles"]


class ProgrammedTile(abc.ABC):
    """One programmed crossbar tile."""

    @abc.abstractmethod
    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Compute ``x @ w`` through the hardware (``x`` in ``[0, 1]``)."""

    @abc.abstractmethod
    def faulted(
        self, injector, rng: np.random.Generator
    ) -> "ProgrammedTile":
        """A clone disturbed by a
        :class:`~repro.faults.injectors.FaultInjector` (variation,
        stuck-at, drift, or any composition)."""

    def column(self, index: int) -> "Optional[ProgrammedTile]":
        """The width-1 tile programmed like column ``index`` of this
        one, sharing its cells (the pristine spare strip of that
        column), or ``None`` when the tile cannot lend its programming;
        the caller then programs the column's weights afresh."""
        return None


class HardwareBackend(abc.ABC):
    """Factory for programmed tiles."""

    @abc.abstractmethod
    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        """Program a tile with weights in ``[0, 1]``."""

    @property
    @abc.abstractmethod
    def max_tile_shape(self) -> tuple:
        """Largest ``(rows, cols)`` a single tile may have."""


# ----------------------------------------------------------------------
# Ideal software backend
# ----------------------------------------------------------------------
class _IdealTile(ProgrammedTile):
    def __init__(self, weights: np.ndarray) -> None:
        self._w = np.asarray(weights, dtype=float)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self._w

    def faulted(self, injector, rng: np.random.Generator) -> "_IdealTile":
        # spec=None: the injector operates on the normalised unit window.
        return _IdealTile(injector.apply(self._w, rng, spec=None))

    def column(self, index: int) -> "_IdealTile":
        return _IdealTile(self._w[..., index : index + 1])


class IdealBackend(HardwareBackend):
    """Exact numpy matmul; optionally with unbounded tile size."""

    def __init__(self, max_rows: int = 32, max_cols: int = 32) -> None:
        if max_rows < 1 or max_cols < 1:
            raise MappingError("tile dimensions must be >= 1")
        self._shape = (max_rows, max_cols)

    @property
    def max_tile_shape(self) -> tuple:
        return self._shape

    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        return _IdealTile(weights01)


# ----------------------------------------------------------------------
# ReSiPE backend
# ----------------------------------------------------------------------
def _remove_offset(y: np.ndarray, x: np.ndarray, offset_ratio: float) -> np.ndarray:
    """Correct the conductance-window offset in place on ``y``:
    ``(y - Σx · g_min/g_max) / (1 - g_min/g_max)`` against nominal
    ``[0, 1]`` weights (``y`` is the tile's freshly decoded output)."""
    np.subtract(y, x.sum(axis=-1)[..., None] * offset_ratio, out=y)
    return np.divide(y, 1.0 - offset_ratio, out=y)


class _ReSiPETile(ProgrammedTile):
    """Wraps one or more redundant :class:`ReSiPEEngine` copies,
    correcting the conductance-window offset so the tile computes
    against nominal ``[0, 1]`` weights.

    With ``redundancy > 1`` the same weights are programmed into R
    independent engines and outputs are averaged, cutting the standard
    deviation of device-variation error by √R (the mapping-redundancy
    robustness extension; see the redundancy ablation bench).
    """

    _draw: tuple  # (source tile, cells, slots) of a lazy clone

    def __init__(self, engines: list) -> None:
        if not engines:
            raise MappingError("a tile needs at least one engine")
        self._built: Optional[list] = engines
        spec = engines[0].array.spec
        self._offset_ratio = spec.g_min / spec.g_max

    @classmethod
    def drawn(cls, source: "_ReSiPETile", cells: np.ndarray,
              slots: tuple) -> "_ReSiPETile":
        """A Monte-Carlo clone of ``source`` whose redundancy slot ``r``
        holds ``cells[..., start:stop]`` for ``(start, stop, shape) =
        slots[r]``; ``cells`` of shape ``(T, N)`` makes it a trial
        stack.  Its engines are built on first use, so a clone that
        only feeds a trial stack costs one object."""
        tile = object.__new__(cls)
        tile._built = None
        tile._draw = (source, cells, slots)
        tile._offset_ratio = source._offset_ratio
        return tile

    @property
    def _engines(self) -> list:
        if self._built is None:
            self._built = [
                e.with_array(e.array.with_conductances(g))
                for e, g in zip(self._draw[0]._engines, self._conductances())
            ]
        return self._built

    def _conductances(self) -> list:
        """Per redundancy slot, the conductances: a lazy clone's views of
        its cells, read without building its engines."""
        if self._built is not None:
            return [e.array.conductances for e in self._built]
        _, cells, slots = self._draw
        lead = cells.shape[:-1]
        return [cells[..., a:b].reshape(lead + shape) for a, b, shape in slots]

    @classmethod
    def stacked(cls, tiles: Sequence["_ReSiPETile"]) -> "_ReSiPETile":
        """The trial stack of equally shaped tiles: per redundancy slot,
        one array holding the ``(T, rows, cols)`` conductances.

        The tiles may be Monte-Carlo clones of one tile or tiles of any
        positions programmed by one backend (e.g. the spare strips of a
        layer).  Codec, operating point, output scale, mode and
        compensation come from ``tiles[0]``'s engines unchecked, so the
        tiles must agree on them, as tiles of one backend do.
        """
        arrays = [t._conductances() for t in tiles]
        redundancies = {len(slots) for slots in arrays}
        if len(redundancies) > 1:
            raise MappingError(
                f"tiles disagree on redundancy: {sorted(redundancies)}"
            )
        shapes = {g.shape for slots in arrays for g in slots}
        if len(shapes) > 1:
            raise ShapeError(f"tiles disagree on shape: {sorted(shapes)}")
        return cls([
            e.with_array(e.array.with_conductances(
                np.stack([slots[r] for slots in arrays])
            ))
            for r, e in enumerate(tiles[0]._engines)
        ])

    def matmul(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if len(self._engines) == 1:
            y = np.asarray(self._engines[0].mvm_values(x), dtype=float)
        else:
            y = np.mean(
                [np.asarray(e.mvm_values(x), dtype=float)
                 for e in self._engines],
                axis=0,
            )
        return _remove_offset(y, x, self._offset_ratio)

    def faulted(self, injector, rng: np.random.Generator) -> ProgrammedTile:
        (tile,), _ = faulted_tiles(
            [self], injector, rng, pool=ConductancePool([self])
        )
        return tile

    def column(self, index: int) -> "_ReSiPETile":
        return _ReSiPETile([
            e.with_array(e.array.with_conductances(
                e.array.conductances[..., index : index + 1]
            ))
            for e in self._engines
        ])


@dataclasses.dataclass
class ReSiPEBackend(HardwareBackend):
    """Single-spiking hardware backend.

    Parameters
    ----------
    params:
        Circuit operating point; defaults to the calibrated point (the
        regime the accuracy studies run in — see DESIGN.md §1).
    mode:
        EXACT (non-linear circuit equations, default) or LINEAR.
    spec:
        Device window; defaults to the paper's linear range.
    compensate:
        Apply per-column saturation compensation at decode.
    redundancy:
        Number of independent engine copies per tile whose outputs are
        averaged (1 = the paper's plain mapping).  Costs ``R×`` area and
        energy, buys ``√R`` lower variation error.
    """

    params: Optional[CircuitParameters] = None
    mode: MVMMode = MVMMode.EXACT
    spec: Optional[DeviceSpec] = None
    compensate: bool = False
    redundancy: int = 1

    def __post_init__(self) -> None:
        if self.params is None:
            self.params = CircuitParameters.calibrated()
        if self.spec is None:
            self.spec = DeviceSpec.paper_linear_range()
        if self.redundancy < 1:
            raise MappingError(f"redundancy must be >= 1, got {self.redundancy!r}")

    @property
    def max_tile_shape(self) -> tuple:
        return (self.params.rows, self.params.cols)

    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        w = np.asarray(weights01, dtype=float)
        rows, cols = w.shape
        if rows > self.params.rows or cols > self.params.cols:
            raise MappingError(
                f"tile {w.shape} exceeds crossbar "
                f"{self.params.rows}x{self.params.cols}"
            )
        engines = [
            ReSiPEEngine.from_normalised_weights(
                w, self.params, spec=self.spec, mode=self.mode,
                compensate=self.compensate,
            )
            for _ in range(self.redundancy)
        ]
        return _ReSiPETile(engines)


# ----------------------------------------------------------------------
# Trial stacks (the Monte-Carlo fast path)
# ----------------------------------------------------------------------
class _TrialLoopTile(ProgrammedTile):
    """A trial stack of tiles without a broadcast kernel (bit-sliced
    tiles): one lone matmul per trial, with the trial-stack calling
    convention of :func:`stack_tiles`."""

    def __init__(self, tiles: list) -> None:
        self._tiles = tiles

    def matmul(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 3:
            return np.stack(
                [tile.matmul(x[t]) for t, tile in enumerate(self._tiles)]
            )
        return np.stack([tile.matmul(x) for tile in self._tiles])

    def faulted(self, injector, rng: np.random.Generator) -> ProgrammedTile:
        raise MappingError("a trial stack cannot be re-drawn")


def stack_tiles(tiles) -> ProgrammedTile:
    """Collapse equally shaped tiles of one backend into a trial stack.

    The tiles may be per-trial clones of one tile position or tiles of
    any positions of one backend's programming (a layer's spare strips
    stack across columns, polarities and row bands).  The stack's
    ``matmul`` takes inputs ``(batch, rows)`` shared by every trial or
    per-trial ``(T, batch, rows)`` and returns ``(T, batch, cols)``,
    slice ``t`` bit-identical to ``tiles[t]``.  Ideal tiles stack their
    weight matrices and ReSiPE tiles their conductances per redundancy
    slot, taking engine settings from ``tiles[0]``
    (:meth:`_ReSiPETile.stacked`), so one broadcast matmul serves all
    trials; anything else loops over the trials.
    """
    tiles = list(tiles)
    if not tiles:
        raise MappingError("cannot stack an empty sequence of tiles")
    first_type = type(tiles[0])
    if any(type(t) is not first_type for t in tiles):
        raise MappingError("cannot stack tiles of mixed backend types")
    if first_type is _IdealTile:
        return _IdealTile(np.stack([t._w for t in tiles]))
    if first_type is _ReSiPETile:
        return _ReSiPETile.stacked(tiles)
    return _TrialLoopTile(tiles)


class ConductancePool:
    """Every programmed conductance of a sequence of ReSiPE tiles in one
    flat read-only buffer :attr:`cells`, in draw order: tile →
    redundancy slot → row-major cell.

    A clone draws one realization of the whole buffer (:meth:`draw`)
    and hands each tile a view of it (:meth:`realize`); ``T`` such
    draws, stacked once into ``(T, N)``, realize into trial stacks that
    are views as well.  Build one with :meth:`of`.
    """

    def __init__(self, tiles: Sequence["_ReSiPETile"]) -> None:
        self.tiles = tuple(tiles)
        self.spec = self.tiles[0]._engines[0].array.spec
        # Per tile, per redundancy slot: (start, stop, (rows, cols)).
        self._slots: List[tuple] = []
        chunks = []
        start = 0
        for tile in self.tiles:
            slots = []
            for engine in tile._engines:
                g = engine.array.conductances
                if g.ndim != 2:
                    raise MappingError("a trial stack cannot be re-drawn")
                slots.append((start, start + g.size, g.shape))
                start += g.size
                chunks.append(g.ravel())
            self._slots.append(tuple(slots))
        self.cells = np.concatenate(chunks)
        self.cells.flags.writeable = False

    @classmethod
    def of(cls, tiles: Sequence[ProgrammedTile]) -> Optional["ConductancePool"]:
        """The pool of ``tiles``, or ``None`` unless every tile is a
        ReSiPE tile on one device spec."""
        if not tiles or any(type(t) is not _ReSiPETile for t in tiles):
            return None
        resipe = cast(Sequence[_ReSiPETile], tiles)
        spec = resipe[0]._engines[0].array.spec
        if any(e.array.spec != spec for t in resipe for e in t._engines):
            return None
        return cls(resipe)

    def draw(self, injector, rng: np.random.Generator) -> np.ndarray:
        """One read-only realization of :attr:`cells` under ``injector``.

        It consumes the stream of one ``injector.apply`` per tile and
        redundancy slot, in draw order, and gives the same bytes.  An
        elementwise injector draws one value per cell in row-major
        order, so a single ``apply`` over the whole buffer is that
        stream; any other injector (a composite interleaves its stages
        per slot, a 2-D one sees rows and columns) is applied slot by
        slot into one preallocated buffer.
        """
        if injector.elementwise:
            cells = np.asarray(
                injector.apply(self.cells, rng, spec=self.spec), dtype=float
            )
            _check_shape(cells, self.cells.shape)
        else:
            cells = np.empty_like(self.cells)
            for slots in self._slots:
                for start, stop, shape in slots:
                    g = np.asarray(injector.apply(
                        self.cells[start:stop].reshape(shape), rng,
                        spec=self.spec,
                    ), dtype=float)
                    _check_shape(g, shape)
                    cells[start:stop] = g.ravel()
        cells.flags.writeable = False
        return cells

    def realize(self, cells: np.ndarray) -> List[ProgrammedTile]:
        """Clones of the pool's tiles whose arrays are views of one
        realization ``cells`` of shape ``(N,)``, or trial stacks of
        ``T`` realizations stacked into ``(T, N)``."""
        return [
            _ReSiPETile.drawn(tile, cells, slots)
            for tile, slots in zip(self.tiles, self._slots)
        ]


def _check_shape(g: np.ndarray, shape: tuple) -> None:
    if g.shape != tuple(shape):
        raise ShapeError(
            f"injector changed array shape to {g.shape}, expected {shape}"
        )


def faulted_tiles(
    tiles: Sequence[ProgrammedTile],
    injector,
    rng: np.random.Generator,
    pool: Optional[ConductancePool] = None,
) -> Tuple[List[ProgrammedTile], Optional[Tuple[ConductancePool, np.ndarray]]]:
    """Clones of ``tiles`` disturbed by ``injector`` (a
    :class:`~repro.faults.injectors.FaultInjector`) — the one routine
    that draws a Monte-Carlo or fault clone.

    Returns ``(clones, drawn)``.  When the tiles form a
    :class:`ConductancePool` (``pool``, or one built from ``tiles``),
    the clones are lazy views of one realization ``cells``
    (:meth:`ConductancePool.draw`) and ``drawn`` is ``(pool, cells)``.
    Tiles without a pool (ideal, bit-sliced) take their own
    :meth:`ProgrammedTile.faulted` in order and ``drawn`` is ``None``.
    A null injector draws nothing and returns the pristine tiles.
    """
    tiles = list(tiles)
    if injector.is_null:
        return tiles, None
    if pool is None:
        pool = ConductancePool.of(tiles)
    if pool is None:
        return [tile.faulted(injector, rng) for tile in tiles], None
    cells = pool.draw(injector, rng)
    return pool.realize(cells), (pool, cells)
