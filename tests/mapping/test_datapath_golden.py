"""Golden bytes of the mapped datapath.

Pins the SHA-256 of the raw outputs of :meth:`PIMExecutor.forward`
(each trial clone run serially), :meth:`PIMExecutor.forward_trials` and
:meth:`PIMExecutor.predict_trials` for small networks that exercise
every branch of the ReSiPE signal chain: EXACT and LINEAR mode, σ = 0
(pristine tiles) and σ = 0.1, redundancy 1 and 2, mixed tile shapes,
and a conv net whose deeper layers see per-trial ``(T, N, C, H, W)``
inputs.

A change that only reorganises how the simulator computes (clone
construction, stacking, in-place arithmetic) must leave every digest
unchanged.  A change that alters the physics or the Monte-Carlo draw
order must update them on purpose.
"""

import hashlib

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.faults import VariationInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential

TRIALS = 3


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _mlp(rng):
    # 41 x 36 and 37 x 5 differential matrices: full 32 x 32 tiles next
    # to 9-row, 4-column and 5-row remainders.
    return Sequential(
        [Dense(40, 36, rng=rng), ReLU(), Dense(36, 5, rng=rng)], name="mlp"
    ), rng.random((24, 40)), rng.random((7, 40))


def _cnn(rng):
    model = Sequential(
        [
            Conv2D(1, 3, kernel=3, pad=1, rng=rng),
            ReLU(),
            Conv2D(3, 4, kernel=3, pad=0, rng=rng),
            ReLU(),
            Flatten(),
            Dense(64, 3, rng=rng),
        ],
        name="cnn",
    )
    return model, rng.random((8, 1, 6, 6)), rng.random((3, 1, 6, 6))


def outputs(net: str, mode: MVMMode, sigma: float, redundancy: int) -> dict:
    """The three pinned outputs for one case, as digests."""
    rng = np.random.default_rng(2024)
    model, calibration, x = (_mlp if net == "mlp" else _cnn)(rng)
    backend = ReSiPEBackend(
        params=CircuitParameters.calibrated(), mode=mode,
        redundancy=redundancy,
    )
    executor = PIMExecutor(compile_network(model, backend), calibration)
    clones = [
        executor.faulted(
            VariationInjector(sigma), np.random.default_rng([7, trial])
        )
        for trial in range(TRIALS)
    ]
    networks = [clone.network for clone in clones]
    serial = np.stack([clone.forward(x) for clone in clones])
    return {
        "forward": _digest(serial),
        "forward_trials": _digest(executor.forward_trials(x, networks)),
        "predict_trials": _digest(
            executor.predict_trials(x, networks).astype(np.int64)
        ),
    }


CASES = [
    ("mlp", mode, sigma, redundancy)
    for mode in (MVMMode.EXACT, MVMMode.LINEAR)
    for sigma in (0.0, 0.1)
    for redundancy in (1, 2)
] + [
    ("cnn", MVMMode.EXACT, 0.1, 1),
    ("cnn", MVMMode.LINEAR, 0.1, 2),
]

GOLDEN = {
    "mlp-exact-s0-r1": {
        "forward": "036a99cda87c8d07",
        "forward_trials": "036a99cda87c8d07",
        "predict_trials": "e3c2af35d1dfc500",
    },
    "mlp-exact-s0-r2": {
        "forward": "036a99cda87c8d07",
        "forward_trials": "036a99cda87c8d07",
        "predict_trials": "e3c2af35d1dfc500",
    },
    "mlp-exact-s0.1-r1": {
        "forward": "c1aebb4db240cbf9",
        "forward_trials": "c1aebb4db240cbf9",
        "predict_trials": "89738bb117a7c384",
    },
    "mlp-exact-s0.1-r2": {
        "forward": "79a092944dad1c6e",
        "forward_trials": "79a092944dad1c6e",
        "predict_trials": "e3c2af35d1dfc500",
    },
    "mlp-linear-s0-r1": {
        "forward": "e8ce30a58887082a",
        "forward_trials": "e8ce30a58887082a",
        "predict_trials": "e3c2af35d1dfc500",
    },
    "mlp-linear-s0-r2": {
        "forward": "e8ce30a58887082a",
        "forward_trials": "e8ce30a58887082a",
        "predict_trials": "e3c2af35d1dfc500",
    },
    "mlp-linear-s0.1-r1": {
        "forward": "f897cc11a94b48d6",
        "forward_trials": "f897cc11a94b48d6",
        "predict_trials": "89738bb117a7c384",
    },
    "mlp-linear-s0.1-r2": {
        "forward": "26d2bab63ca17b4a",
        "forward_trials": "26d2bab63ca17b4a",
        "predict_trials": "e3c2af35d1dfc500",
    },
    "cnn-exact-s0.1-r1": {
        "forward": "a551455f23885b6c",
        "forward_trials": "a551455f23885b6c",
        "predict_trials": "df070c0849900928",
    },
    "cnn-linear-s0.1-r2": {
        "forward": "198f8758ef4ad9f0",
        "forward_trials": "198f8758ef4ad9f0",
        "predict_trials": "9e0b63949bf09e78",
    },
}


def _case_id(case) -> str:
    net, mode, sigma, redundancy = case
    return f"{net}-{mode.value}-s{sigma:g}-r{redundancy}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_datapath_bytes_pinned(case):
    assert outputs(*case) == GOLDEN[_case_id(case)]

