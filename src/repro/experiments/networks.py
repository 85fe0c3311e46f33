"""The six benchmark networks of Section IV-C.

================  ================================  ==================
paper name        paper architecture                this repo
================  ================================  ==================
MLP-1             1-layer perceptron, MNIST         identical (784→10)
MLP-2             2-layer perceptron, MNIST         identical (784→128→10)
CNN-1             4-layer LeNet, MNIST              identical topology
CNN-2             AlexNet, CIFAR-10                 AlexNet-style, channel-reduced, 16×16 synthetic-CIFAR
CNN-3             VGG16, CIFAR-10                   VGG16-style (10 conv + 2 fc), channel-reduced
CNN-4             VGG19, CIFAR-10                   VGG19-style (12 conv + 2 fc), channel-reduced
================  ================================  ==================

The CNN-2/3/4 substitution preserves the property Fig. 7 depends on —
the *depth/parameter-count ordering* across the six networks — while
keeping pure-numpy training inside benchmark time budgets (DESIGN.md §2).

Trained weights are cached under ``.cache/models`` (override with
``$REPRO_CACHE``) through :mod:`repro.store` — writes are atomic, every
entry carries a SHA-256 manifest plus a hash of the producing spec, and
a corrupt or stale entry is quarantined and retrained instead of
crashing the run.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets import Dataset, make_cifar_like, make_mnist_like, train_test_split
from ..errors import ConfigurationError, ReproError
from ..store import ArtifactStore, get_store, spec_hash
from ..telemetry.logging import get_logger
from ..nn import (
    Adam,
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    Trainer,
    evaluate_accuracy,
)

__all__ = [
    "NetworkSpec",
    "TrainedNetwork",
    "NETWORK_SPECS",
    "get_benchmark_networks",
    "model_cache_key",
    "model_spec_hash",
]


# ----------------------------------------------------------------------
# Architectures
# ----------------------------------------------------------------------
def _mlp1(rng: Optional[np.random.Generator] = None) -> Sequential:
    return Sequential([Dense(784, 10, rng=rng)], name="MLP-1")


def _mlp2(rng: Optional[np.random.Generator] = None) -> Sequential:
    return Sequential(
        [Dense(784, 128, rng=rng), ReLU(), Dense(128, 10, rng=rng)],
        name="MLP-2",
    )


def _lenet(rng: Optional[np.random.Generator] = None) -> Sequential:
    # Classic LeNet shape on 28x28: conv5 -> pool -> conv5 -> pool -> fc -> fc.
    return Sequential(
        [
            Conv2D(1, 6, kernel=5, pad=2, rng=rng), ReLU(), AvgPool2D(2),
            Conv2D(6, 16, kernel=5, pad=0, rng=rng), ReLU(), AvgPool2D(2),
            Flatten(),
            Dense(16 * 5 * 5, 84, rng=rng), ReLU(),
            Dense(84, 10, rng=rng),
        ],
        name="CNN-1",
    )


def _alexnet_style(rng: Optional[np.random.Generator] = None) -> Sequential:
    # AlexNet-style on 16x16x3: 3 conv stages + 2 fc, channel-reduced.
    # The first conv keeps AlexNet's large receptive field (11x11 at
    # full scale -> 5x5 here), which also carries its PV robustness:
    # a wide fan-in averages per-cell conductance variation.
    return Sequential(
        [
            Conv2D(3, 16, kernel=5, pad=2, rng=rng), ReLU(), MaxPool2D(2),
            Conv2D(16, 32, kernel=3, pad=1, rng=rng), ReLU(), MaxPool2D(2),
            Conv2D(32, 32, kernel=3, pad=1, rng=rng), ReLU(),
            Flatten(),
            Dense(32 * 4 * 4, 64, rng=rng), ReLU(),
            Dense(64, 10, rng=rng),
        ],
        name="CNN-2",
    )


def _vgg_style(
    conv_blocks: Sequence[Tuple[int, int]],
    name: str,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """VGG-style builder: blocks of (convs, channels) + pool each."""
    layers: list = []
    in_ch = 3
    for convs, channels in conv_blocks:
        for _ in range(convs):
            layers += [Conv2D(in_ch, channels, kernel=3, pad=1, rng=rng), ReLU()]
            in_ch = channels
        layers.append(MaxPool2D(2))
    layers.append(Flatten())
    # After len(conv_blocks) pools on a 16x16 input.
    spatial = 16 // (2 ** len(conv_blocks))
    layers += [Dense(in_ch * spatial * spatial, 64, rng=rng), ReLU(),
               Dense(64, 10, rng=rng)]
    return Sequential(layers, name=name)


def _vgg16_style(rng: Optional[np.random.Generator] = None) -> Sequential:
    # 10 conv + 2 fc (VGG16 is 13 + 3 at full scale).
    return _vgg_style([(2, 8), (2, 16), (3, 32), (3, 32)], "CNN-3", rng=rng)


def _vgg19_style(rng: Optional[np.random.Generator] = None) -> Sequential:
    # 12 conv + 2 fc (VGG19 is 16 + 3 at full scale).
    return _vgg_style([(2, 8), (2, 16), (4, 32), (4, 32)], "CNN-4", rng=rng)


# ----------------------------------------------------------------------
# Specifications
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """One benchmark network: architecture + training recipe.

    Attributes
    ----------
    key:
        Identifier (e.g. ``"cnn-3"``).
    display:
        The paper's name (e.g. ``"CNN-3 (VGG16)"``).
    dataset:
        ``"mnist"`` or ``"cifar"`` (synthetic variants).
    build:
        Architecture factory; accepts an optional ``rng`` Generator so
        weight initialisation derives from the caller's master seed
        (no argument falls back to per-layer shape-derived seeds).
    epochs / lr / batch_size:
        Training recipe.
    flatten_input:
        Whether the model consumes flattened images.
    """

    key: str
    display: str
    dataset: str
    build: Callable[..., Sequential]
    epochs: int
    lr: float = 2e-3
    batch_size: int = 64
    flatten_input: bool = False


NETWORK_SPECS: Dict[str, NetworkSpec] = {
    spec.key: spec
    for spec in [
        NetworkSpec("mlp-1", "MLP-1 (1-layer perceptron)", "mnist", _mlp1,
                    epochs=10, flatten_input=True),
        NetworkSpec("mlp-2", "MLP-2 (2-layer perceptron)", "mnist", _mlp2,
                    epochs=10, flatten_input=True),
        NetworkSpec("cnn-1", "CNN-1 (LeNet)", "mnist", _lenet, epochs=6),
        NetworkSpec("cnn-2", "CNN-2 (AlexNet-style)", "cifar", _alexnet_style,
                    epochs=8),
        NetworkSpec("cnn-3", "CNN-3 (VGG16-style)", "cifar", _vgg16_style,
                    epochs=18),
        NetworkSpec("cnn-4", "CNN-4 (VGG19-style)", "cifar", _vgg19_style,
                    epochs=20),
    ]
}


@dataclasses.dataclass
class TrainedNetwork:
    """A trained benchmark network with its data splits.

    Attributes
    ----------
    spec:
        The network specification.
    model:
        Trained Sequential.
    train / test:
        Data splits (already flattened when the spec requires it).
    software_accuracy:
        Test accuracy of the software (ideal) model.
    """

    spec: NetworkSpec
    model: Sequential
    train: Dataset
    test: Dataset
    software_accuracy: float

    @property
    def input_hw(self) -> Optional[Tuple[int, int]]:
        """``(H, W)`` of ``(N, C, H, W)`` images; ``None`` when flattened."""
        shape = self.test.images.shape
        return (shape[2], shape[3]) if len(shape) == 4 else None


# ----------------------------------------------------------------------
# Training with caching
# ----------------------------------------------------------------------
def _default_cache_dir() -> str:
    # Kept for backwards compatibility; the normalisation + REPRO_CACHE
    # handling lives in repro.store so experiments and the CLI agree.
    from ..store import default_model_cache_dir

    return default_model_cache_dir()


def model_cache_key(spec: NetworkSpec, n_samples: int, seed: int) -> str:
    """Human-readable cache key stem for one training run."""
    return f"{spec.key}-n{n_samples}-s{seed}-e{spec.epochs}"


def model_spec_hash(spec: NetworkSpec, model: Sequential) -> str:
    """Content hash binding a cache entry to its producing spec.

    Covers the training recipe *and* an architecture fingerprint
    (parameter names + shapes), so editing a network definition turns
    its old cache entries into misses instead of silent wrong answers.
    """
    return spec_hash({
        "key": spec.key,
        "dataset": spec.dataset,
        "epochs": spec.epochs,
        "lr": spec.lr,
        "batch_size": spec.batch_size,
        "flatten_input": spec.flatten_input,
        "parameters": [
            (p.name, tuple(p.value.shape)) for p in model.parameters()
        ],
    })


def _dataset_for(spec: NetworkSpec, n: int, seed: int) -> Tuple[Dataset, Dataset]:
    if spec.dataset == "mnist":
        data = make_mnist_like(n, seed=seed)
        if spec.flatten_input:
            data = data.flattened()
        else:
            data = Dataset(
                images=data.images[:, None, :, :],
                labels=data.labels,
                num_classes=data.num_classes,
                name=data.name,
            )
    elif spec.dataset == "cifar":
        data = make_cifar_like(n, seed=seed)
    else:
        raise ConfigurationError(f"unknown dataset {spec.dataset!r}")
    return train_test_split(data, rng=np.random.default_rng(seed + 1))


def _load_cached(
    store: ArtifactStore, key: str, fingerprint: str, model: Sequential
) -> Optional[float]:
    """Try to restore a cached training run; ``None`` means cache miss.

    Every failure mode — truncated archive, garbage JSON sidecar,
    missing manifest, hash mismatch, state dict that no longer fits
    the architecture — is a *miss* (with the bad entry quarantined),
    never an exception: the caller retrains and rewrites.
    """
    state = store.get_npz(key + ".npz", spec_hash=fingerprint)
    if state is None:
        return None
    meta = store.get_json(key + ".json", spec_hash=fingerprint)
    if not isinstance(meta, dict) or not isinstance(
        meta.get("software_accuracy"), (int, float)
    ):
        if meta is not None:
            store.quarantine(key + ".json", "sidecar missing software_accuracy")
        return None
    try:
        model.load_state_dict(state)
    except ReproError as exc:
        store.quarantine(key + ".npz", f"state dict incompatible: {exc}")
        return None
    return float(meta["software_accuracy"])


def _train_one(
    spec: NetworkSpec,
    n_samples: int,
    seed: int,
    cache_dir: Optional[str],
    verbose: bool,
) -> TrainedNetwork:
    train, test = _dataset_for(spec, n_samples, seed)
    # Weight init draws from the same master seed as data and training
    # (stream seed + 3; split uses seed + 1, the trainer seed + 2), so a
    # campaign seed pins the *whole* pipeline, not just the shuffles.
    model = spec.build(rng=np.random.default_rng(seed + 3))
    store = key = fingerprint = None
    if cache_dir:
        store = get_store(cache_dir)
        key = model_cache_key(spec, n_samples, seed)
        fingerprint = model_spec_hash(spec, model)
        accuracy = _load_cached(store, key, fingerprint, model)
        if accuracy is not None:
            return TrainedNetwork(
                spec=spec, model=model, train=train, test=test,
                software_accuracy=accuracy,
            )
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=spec.lr),
        batch_size=spec.batch_size,
        rng=np.random.default_rng(seed + 2),
    )
    trainer.fit(train.images, train.labels, epochs=spec.epochs,
                x_val=test.images, labels_val=test.labels, verbose=verbose)
    accuracy = evaluate_accuracy(model, test.images, test.labels)
    if store is not None:
        # Best-effort: an unusable cache (unwritable root, REPRO_CACHE
        # pointing at a file, disk full) must never lose a finished
        # training run.
        try:
            store.put_npz(key + ".npz", model.state_dict(),
                          spec_hash=fingerprint)
            store.put_json(key + ".json",
                           {"software_accuracy": float(accuracy)},
                           spec_hash=fingerprint)
        except (OSError, ReproError) as exc:
            get_logger("repro.store").warning(
                "could not persist %s to cache %s: %s", key, store.root, exc
            )
    return TrainedNetwork(
        spec=spec, model=model, train=train, test=test,
        software_accuracy=float(accuracy),
    )


def get_benchmark_networks(
    keys: Optional[Sequence[str]] = None,
    n_samples: int = 1500,
    seed: int = 0,
    cache: bool = True,
    verbose: bool = False,
) -> List[TrainedNetwork]:
    """Train (or load cached) benchmark networks.

    Parameters
    ----------
    keys:
        Which networks (default: all six, paper order).
    n_samples:
        Synthetic dataset size per network.
    seed:
        Data + training seed.
    cache:
        Reuse weights cached under ``.cache/models``.
    """
    if keys is None:
        keys = list(NETWORK_SPECS)
    unknown = [k for k in keys if k not in NETWORK_SPECS]
    if unknown:
        raise ConfigurationError(
            f"unknown networks {unknown}; available: {list(NETWORK_SPECS)}"
        )
    cache_dir = _default_cache_dir() if cache else None
    return [
        _train_one(NETWORK_SPECS[k], n_samples, seed, cache_dir, verbose)
        for k in keys
    ]
