"""Pure-numpy neural-network substrate.

The paper evaluates six pretrained networks (Section IV-C).  Offline,
with no deep-learning framework available, this subpackage provides the
minimum viable stack to *train* those networks on the synthetic datasets
and hand their weights to the mapping compiler:

* :mod:`repro.nn.layers` — Dense, ReLU, Flatten, Dropout.
* :mod:`repro.nn.conv` — Conv2D (im2col), MaxPool2D, AvgPool2D.
* :mod:`repro.nn.model` — the Sequential container.
* :mod:`repro.nn.losses` — cross-entropy (+softmax).
* :mod:`repro.nn.optim` — Adam.
* :mod:`repro.nn.train` — the training loop with metrics.
* :mod:`repro.nn.init` — weight initialisers.
"""

from .layers import Dense, Dropout, Flatten, Layer, Parameter, ReLU
from .conv import AvgPool2D, Conv2D, MaxPool2D
from .model import Sequential
from .losses import CrossEntropyLoss
from .optim import Adam
from .train import Trainer, TrainingHistory, evaluate_accuracy

__all__ = [
    "Layer",
    "Parameter",
    "Dense",
    "ReLU",
    "Flatten",
    "Dropout",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Sequential",
    "CrossEntropyLoss",
    "Adam",
    "Trainer",
    "TrainingHistory",
    "evaluate_accuracy",
]
