"""Column-health detection — the single-spike analog of a memory BIST.

A deployed crossbar cannot be read back cell by cell without paying the
full write-verify machinery, but it *can* be exercised: fire known
calibration vectors through every mapped layer and compare the output
spike timing against the golden (pristine) response recorded at
deployment time.  A column whose response deviates beyond a threshold
is flagged as unhealthy; the remapper
(:func:`repro.mapping.remap.detect_and_remap`) then moves its logical
weights onto spare columns or into the software fallback path.

The probe stimulus is a small seeded set of vectors: the all-ones
"row-sum" vector (which sees every cell of every column, so a single
stuck-on LRS cell shifts the column output by a full weight unit) plus
uniform random vectors that break ties a structured pattern could miss.
Deviations are measured relative to the layer's full-scale response so
one threshold works across layers of very different fan-in.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..errors import MappingError

__all__ = ["HealthProbe", "LayerProbeReport"]


@dataclasses.dataclass(frozen=True)
class LayerProbeReport:
    """Probe verdict for one mapped layer.

    Attributes
    ----------
    layer:
        Layer name.
    deviations:
        Per-logical-column relative deviation (worst case over the
        probe vectors).
    flagged:
        Columns whose deviation exceeded the threshold, worst first.
    threshold:
        The relative-deviation threshold used.
    golden:
        The pristine reference's response to the probe stimulus,
        ``(vectors + 1, cols)``; spare strips are verified against it.
    scale:
        The full-scale magnitude of ``golden`` that deviations are
        relative to.
    """

    layer: str
    deviations: np.ndarray
    flagged: Tuple[int, ...]
    threshold: float
    golden: np.ndarray
    scale: float

    @property
    def healthy(self) -> bool:
        return not self.flagged

    def worst(self) -> float:
        """Largest observed relative deviation."""
        return float(self.deviations.max()) if self.deviations.size else 0.0


class HealthProbe:
    """Fires calibration vectors through mapped layers and flags columns.

    Parameters
    ----------
    vectors:
        Number of random probe vectors (the all-ones vector is always
        added on top).
    threshold:
        Relative deviation above which a column is flagged.  The
        reference scale is the pristine layer's full-scale response,
        so 0.05 means "5 % of the layer's dynamic range".
    amplitude:
        Drive level of the probe vectors in the ``[0, 1]`` input
        domain.  Kept below full scale so EXACT-mode tiles are probed
        inside their linear region (a saturated reference would mask
        faults).
    seed:
        Seed of the random probe vectors — the stimulus is part of the
        deployment contract and must be reproducible.
    """

    def __init__(
        self,
        vectors: int = 4,
        threshold: float = 0.05,
        amplitude: float = 0.5,
        seed: int = 0,
    ) -> None:
        if vectors < 0:
            raise MappingError(f"vectors must be >= 0, got {vectors!r}")
        if threshold <= 0:
            raise MappingError(f"threshold must be positive, got {threshold!r}")
        if not 0 < amplitude <= 1:
            raise MappingError(
                f"amplitude must be in (0, 1], got {amplitude!r}"
            )
        self.vectors = vectors
        self.threshold = threshold
        self.amplitude = amplitude
        self.seed = seed
        # Layer name -> (reference layer, gain, stimulus, golden,
        # scale) of the last reference probed under that name.
        self._references: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def stimulus(self, width: int) -> np.ndarray:
        """The probe battery for a layer of input ``width``.

        Deterministic in (``seed``, ``width``): ``vectors`` uniform
        random vectors plus the all-ones vector, all at ``amplitude``.
        """
        if width < 1:
            raise MappingError(f"layer input width must be >= 1, got {width}")
        rng = np.random.default_rng(self.seed + width)
        random_part = rng.random((self.vectors, width))
        ones = np.ones((1, width))
        return self.amplitude * np.concatenate([random_part, ones], axis=0)

    def _input_width(self, layer) -> int:
        rows = layer.diff.rows
        return rows - 1 if layer.diff.has_bias_row else rows

    def _reference_response(self, reference) -> tuple:
        """``(stimulus, golden, scale)`` of a pristine ``reference``
        layer.

        A probe checks many faulted clones of one chip against the same
        reference, so the (read-only) golden response is kept per layer
        name and reused while that name's reference layer and its
        calibrated gain stay the same.  A new reference replaces the
        entry, so the probe holds at most one chip's layers.
        """
        entry = self._references.get(reference.name)
        if (entry is None or entry[0] is not reference
                or entry[1] != reference.gain):
            x = self.stimulus(self._input_width(reference))
            golden = np.asarray(reference.matmul(x), dtype=float)
            golden.flags.writeable = False
            scale = max(float(np.abs(golden).max()), 1e-12)
            entry = (reference, reference.gain, x, golden, scale)
            self._references[reference.name] = entry
        return entry[2:]

    def probe_layer(self, reference, candidate) -> LayerProbeReport:
        """Compare ``candidate`` against the golden ``reference`` layer.

        Both must be mapped-layer-likes of the same geometry (the
        candidate is typically a faulted or remapped clone of the
        reference).  Returns the per-column verdict.
        """
        if reference.diff.positive.shape != candidate.diff.positive.shape:
            raise MappingError(
                f"layer geometry mismatch: {reference.diff.positive.shape} "
                f"vs {candidate.diff.positive.shape}"
            )
        x, golden, scale = self._reference_response(reference)
        observed = np.asarray(candidate.matmul(x), dtype=float)
        deviations = np.abs(observed - golden).max(axis=0) / scale
        flagged = [int(c) for c in np.where(deviations > self.threshold)[0]]
        flagged.sort(key=lambda c: -deviations[c])
        return LayerProbeReport(
            layer=reference.name,
            deviations=deviations,
            flagged=tuple(flagged),
            threshold=self.threshold,
            golden=golden,
            scale=scale,
        )

    def probe_network(self, reference, candidate) -> Dict[str, LayerProbeReport]:
        """Probe every mapped layer; keys are layer names."""
        ref_stages = reference.stages
        cand_stages = candidate.stages
        if len(ref_stages) != len(cand_stages):
            raise MappingError(
                f"network stage counts differ: {len(ref_stages)} vs "
                f"{len(cand_stages)}"
            )
        reports: Dict[str, LayerProbeReport] = {}
        for ref, cand in zip(ref_stages, cand_stages):
            if ref is None or cand is None:
                if (ref is None) != (cand is None):
                    raise MappingError("mapped/unmapped stages do not align")
                continue
            reports[ref.name] = self.probe_layer(ref, cand)
        return reports

    def describe(self) -> dict:
        """JSON-serialisable probe configuration (for artifact keys)."""
        return {
            "vectors": self.vectors,
            "threshold": self.threshold,
            "amplitude": self.amplitude,
            "seed": self.seed,
        }
