"""Synthetic MNIST-like digit dataset.

Each class is a digit glyph assembled from straight strokes on a
seven-segment-plus-diagonals skeleton, rendered at 28×28 with per-sample
random translation, rotation, scale, stroke thickness, blur and pixel
noise.  The jitter makes the task non-trivial (a linear model tops out
well below a CNN, like real MNIST) while staying fully deterministic
for a given seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from .loaders import Dataset, _require_int

__all__ = ["SyntheticMNIST", "make_mnist_like"]

# Segment endpoints on a unit glyph box (x, y in [0, 1], y down).
# Classic seven segments plus the two diagonals used by 1/2/7 styling.
_SEGMENTS: Dict[str, Tuple[Tuple[float, float], Tuple[float, float]]] = {
    "top": ((0.2, 0.15), (0.8, 0.15)),
    "mid": ((0.2, 0.5), (0.8, 0.5)),
    "bot": ((0.2, 0.85), (0.8, 0.85)),
    "tl": ((0.2, 0.15), (0.2, 0.5)),
    "tr": ((0.8, 0.15), (0.8, 0.5)),
    "bl": ((0.2, 0.5), (0.2, 0.85)),
    "br": ((0.8, 0.5), (0.8, 0.85)),
    "diag_down": ((0.8, 0.15), (0.2, 0.85)),
    "diag_up": ((0.2, 0.15), (0.8, 0.85)),
}

#: Which segments compose each digit glyph.
_DIGIT_SEGMENTS: Dict[int, List[str]] = {
    0: ["top", "tl", "tr", "bl", "br", "bot"],
    1: ["tr", "br"],
    2: ["top", "tr", "mid", "bl", "bot"],
    3: ["top", "tr", "mid", "br", "bot"],
    4: ["tl", "tr", "mid", "br"],
    5: ["top", "tl", "mid", "br", "bot"],
    6: ["top", "tl", "mid", "bl", "br", "bot"],
    7: ["top", "diag_down"],
    8: ["top", "mid", "bot", "tl", "tr", "bl", "br"],
    9: ["top", "tl", "tr", "mid", "br", "bot"],
}


#: Images rasterised and blurred at once; bounds the blur's temporaries
#: whatever the dataset size.
_CHUNK = 256


def _rasterise(labels: np.ndarray, pose: np.ndarray, size: int) -> np.ndarray:
    """Anti-aliased strokes of each label's glyph, ``(len(labels), size,
    size)``.

    ``pose`` is ``(6, len(labels), 1, 1)``: offset x, offset y,
    ``cos(-angle)``, ``sin(-angle)``, scale and stroke thickness per
    image.  Images are grouped by label, so each group computes only its
    digit's segments.
    """
    ys, xs = np.mgrid[0:size, 0:size]
    px = xs / (size - 1)
    py = ys / (size - 1)
    image = np.zeros((len(labels), size, size))
    for digit, segments in _DIGIT_SEGMENTS.items():
        group = np.flatnonzero(labels == digit)
        if not len(group):
            continue
        off_x, off_y, cos_a, sin_a, scale, thickness = pose[:, group]
        # Inverse-transform pixel coordinates into glyph space.
        cx = px - 0.5 - off_x
        cy = py - 0.5 - off_y
        gx = (cos_a * cx - sin_a * cy) / scale + 0.5
        gy = (sin_a * cx + cos_a * cy) / scale + 0.5
        strokes = np.zeros_like(gx)
        for seg in segments:
            (x0, y0), (x1, y1) = _SEGMENTS[seg]
            dx, dy = x1 - x0, y1 - y0
            length_sq = dx * dx + dy * dy
            t = ((gx - x0) * dx + (gy - y0) * dy) / length_sq
            t = np.clip(t, 0.0, 1.0)
            dist = np.hypot(gx - (x0 + t * dx), gy - (y0 + t * dy))
            np.maximum(strokes, np.clip(1.0 - dist / thickness, 0.0, 1.0),
                       out=strokes)
        image[group] = strokes
    return image


def _gaussian_blur(images: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Blur each ``(size, size)`` image of ``images`` with its own σ.

    Byte-identical to ``scipy.ndimage.gaussian_filter(image, sigma)``
    (``mode="reflect"``, ``truncate=4.0``) for non-negative images:
    the same normalised kernel of radius ``int(4σ + 0.5)``, then
    :func:`_correlate` along axis 0 of each image and then axis 1.
    Images whose radius is below the batch maximum get zero weights at
    the far taps, which add exactly ``+0`` to a non-negative sum.
    """
    radii = (4.0 * sigmas + 0.5).astype(int)
    weights = np.zeros((int(radii.max()) + 1, len(sigmas), 1, 1))
    for i, (sigma, radius) in enumerate(zip(sigmas, radii)):
        x = np.arange(-radius, radius + 1)
        phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
        weights[: radius + 1, i, 0, 0] = (phi / phi.sum())[radius:]
    return _correlate(_correlate(images, weights, axis=1), weights, axis=2)


def _correlate(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """scipy's symmetric ``correlate1d`` along ``axis``, ``mode="reflect"``.

    ``weights[j]`` is tap ``±j``.  The boundary is
    ``np.pad(mode="symmetric")`` (scipy's ``reflect``), and the sum runs
    in scipy's order: ``x·w₀`` first, then ``(x[i−j] + x[i+j])·w_j``
    for ``j = r … 1``, farthest tap first.
    """
    reach = len(weights) - 1
    width = [(0, 0)] * x.ndim
    width[axis] = (reach, reach)
    padded = np.pad(x, width, mode="symmetric")
    index = [slice(None)] * x.ndim

    def tap(offset: int) -> np.ndarray:
        index[axis] = slice(reach + offset, reach + offset + x.shape[axis])
        return padded[tuple(index)]

    out = x * weights[0]
    pair = np.empty_like(out)
    for j in range(reach, 0, -1):
        np.add(tap(-j), tap(j), out=pair)
        pair *= weights[j]
        out += pair
    return out


class SyntheticMNIST:
    """Generator for the MNIST-like dataset.

    Parameters
    ----------
    size:
        Image side (default 28, like MNIST).
    jitter:
        Magnitude of the per-sample affine jitter (0 = clean glyphs).
    noise:
        Pixel noise standard deviation.
    seed:
        Generation seed; a given (seed, n) pair is fully reproducible.
    """

    num_classes = 10

    def __init__(
        self,
        size: int = 28,
        jitter: float = 1.0,
        noise: float = 0.08,
        seed: int = 0,
    ) -> None:
        size = _require_int("size", size, 8)
        seed = _require_int("seed", seed, 0)
        if not (jitter >= 0 and noise >= 0):  # also rejects NaN
            raise ConfigurationError("jitter and noise must be >= 0")
        self.size = size
        self.jitter = jitter
        self.noise = noise
        self.seed = seed

    def sample(self, label: int, rng: np.random.Generator) -> np.ndarray:
        """One ``(size, size)`` image of digit ``label``."""
        if label not in _DIGIT_SEGMENTS:
            raise ConfigurationError(f"label must be 0-9, got {label!r}")
        return self._render(np.array([label]), rng)[0]

    def generate(self, n: int) -> Dataset:
        """A balanced dataset of ``n`` images."""
        n = _require_int("n", n, self.num_classes)
        rng = np.random.default_rng(self.seed)
        labels = np.arange(n) % self.num_classes
        rng.shuffle(labels)
        return Dataset(
            images=self._render(labels, rng),
            labels=labels.astype(int),
            num_classes=self.num_classes,
            name=f"synthetic-mnist-{self.size}",
        )

    def _render(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """``(len(labels), size, size)`` images of ``labels``.

        The only per-image loop draws from ``rng``, in a fixed order per
        image: offset x, offset y, angle, scale, stroke thickness, blur
        σ, then the noise block.  Rasterising and blurring run over
        chunks of the batch; the noise lands in the output up front and
        the blurred strokes are added to it.
        """
        n, size, j = len(labels), self.size, self.jitter
        pose = np.empty((6, n, 1, 1))
        off_x, off_y, cos_a, sin_a, scale, thickness = pose
        sigmas = np.empty(n)
        images = np.zeros((n, size, size))
        for i in range(n):
            off_x[i] = rng.uniform(-0.08, 0.08) * j
            off_y[i] = rng.uniform(-0.08, 0.08) * j
            angle = rng.uniform(-0.18, 0.18) * j
            cos_a[i], sin_a[i] = np.cos(-angle), np.sin(-angle)
            scale[i] = 1.0 + rng.uniform(-0.15, 0.15) * j
            thickness[i] = rng.uniform(0.06, 0.11)
            sigmas[i] = rng.uniform(0.4, 0.8)
            if self.noise:
                images[i] = rng.normal(0.0, self.noise, (size, size))
        for start in range(0, n, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            strokes = _rasterise(labels[chunk], pose[:, chunk], size)
            images[chunk] += _gaussian_blur(strokes, sigmas[chunk])
        return np.clip(images, 0.0, 1.0, out=images)


def make_mnist_like(n: int = 2000, seed: int = 0, size: int = 28) -> Dataset:
    """One-call generation of the standard configuration."""
    return SyntheticMNIST(size=size, seed=seed).generate(n)
