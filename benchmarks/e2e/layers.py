"""Per-layer host-time profile of the simulator, taken from outside.

The benchmark does not edit the program.  A traced run replaces the
public functions and methods listed in :data:`LAYERS` with timing shims;
each shim charges its *self* time -- its wall time minus the time spent
in shims nested inside it -- to its layer.  The self times of all layers
plus the unattributed residual therefore add up to the wall time of the
work, and a layer's number only moves when code inside that layer (and
outside every nested one) got faster or slower.

Set-up layers are *opaque*: shims nested inside them call straight
through, so model load, compile and calibration are each charged whole
instead of being smeared over the datapath layers they happen to call.

A profiler survives ``fork``.  A multiprocessing worker forked from the
profiled process starts from empty totals and, when it exits, writes
them to ``<dump_dir>/<pid>.json``; the parent merges the files with
:func:`read_dumps`.

Targets that do not exist are skipped, so the profile keeps working when
a later refactor removes one of the entry points; that layer then reads
zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_EXECUTOR = "repro.mapping.executor:PIMExecutor."
_STORE = "repro.store.artifacts:ArtifactStore."

#: (layer, opaque, targets) in datapath order; a target is
#: ``"module:attribute"`` or ``"module:Class.method"``.
LAYERS: Tuple[Tuple[str, bool, Tuple[str, ...]], ...] = (
    ("setup.load", True,
     ("repro.experiments.networks:get_benchmark_networks",)),
    ("setup.compile", True, ("repro.mapping.compiler:compile_network",)),
    ("setup.calibrate", True, (_EXECUTOR + "__init__",)),
    ("reram.clone", False, (_EXECUTOR + "perturbed", _EXECUTOR + "faulted")),
    ("mapping.stack", False, ("repro.mapping.stacked:stack_networks",)),
    ("mapping.executor", False, tuple(
        _EXECUTOR + name for name in (
            "forward", "predict", "accuracy",
            "forward_trials", "predict_trials", "accuracy_trials",
        )
    )),
    ("mapping.tile", False, (
        "repro.mapping.compiler:MappedLayer.matmul_with_bias_level",
        "repro.mapping.stacked:StackedMappedLayer.matmul_with_bias_level",
        "repro.mapping.remap:PatchedLayer.matmul_with_bias_level",
    )),
    ("core.engine", False, (
        "repro.core.engine:ReSiPEEngine.mvm_values",
        "repro.core.engine:ReSiPEEngine.mvm_values_stacked",
    )),
    ("core.encode", False,
     ("repro.core.encoding:SingleSpikeCodec.times_from_values",)),
    ("core.decode", False,
     ("repro.core.global_decoder:GlobalDecoder.voltages_from_times",)),
    ("core.mvm", False, (
        "repro.core.mvm:SingleSpikeMVM.evaluate",
        "repro.core.mvm:SingleSpikeMVM.evaluate_stacked",
    )),
    ("reram.crossbar", False, (
        "repro.reram.crossbar:CrossbarArray.mvm_currents",
        "repro.reram.crossbar:StackedCrossbar.mvm_currents",
    )),
    ("core.cog", False,
     ("repro.core.cog:ColumnOutputGenerator.times_from_voltages",)),
    ("nn.software", False, (
        "repro.nn.conv:im2col",
        "repro.nn.layers:Dense.forward",
        "repro.nn.layers:ReLU.forward",
        "repro.nn.layers:Flatten.forward",
        "repro.nn.layers:Dropout.forward",
        "repro.nn.conv:Conv2D.forward",
        "repro.nn.conv:MaxPool2D.forward",
        "repro.nn.conv:AvgPool2D.forward",
    )),
    ("mapping.remap", False, ("repro.mapping.remap:detect_and_remap",)),
    ("store", False, tuple(
        _STORE + name for name in (
            "get_bytes", "get_npz", "get_json",
            "put_bytes", "put_npz", "put_json",
        )
    )),
    ("runtime.wait", False,
     ("repro.runtime.scheduler:CampaignScheduler.run",)),
)

LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


class Profiler:
    """Self-time and call counts per layer for one process.

    ``counters`` optionally returns the program's own counters
    (``mvm.count`` ...); a forked worker reports them relative to their
    value at fork time.
    """

    def __init__(self, dump_dir: Optional[str] = None,
                 counters: Optional[Callable[[], Dict[str, float]]] = None
                 ) -> None:
        self.dump_dir = dump_dir
        self.counters = counters
        self.stats: Dict[str, List[float]] = {}
        self._counter_base: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Shim every target of :data:`LAYERS` that exists."""
        from multiprocessing import util

        for layer, opaque, targets in LAYERS:
            for target in targets:
                self._patch(target, layer, opaque)
        # Runs in every multiprocessing child, after it has cleared the
        # finalizers it inherited.
        util.register_after_fork(self, Profiler._after_fork)

    def _patch(self, target: str, layer: str, opaque: bool) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if callable(original):
                setattr(owner, attr, self._shim(layer, original, opaque))
            return
        original = getattr(module, attr, None)
        if not callable(original):
            return
        shim = self._shim(layer, original, opaque)
        # Functions are also bound by name in every module that imported
        # them; rebind each reference so every call site is timed.
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, shim)

    def _shim(self, layer: str, fn: Callable, opaque: bool) -> Callable:
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            local = self._local
            if getattr(local, "opaque", False):
                return fn(*args, **kwargs)
            frames = local.__dict__.setdefault("frames", [])
            frame = [perf(), 0.0]
            frames.append(frame)
            local.opaque = opaque
            try:
                return fn(*args, **kwargs)
            finally:
                local.opaque = False
                total = perf() - frame[0]
                frames.pop()
                if frames:
                    frames[-1][1] += total
                with self._lock:
                    entry = self.stats.setdefault(layer, [0.0, 0])
                    entry[0] += total - frame[1]
                    entry[1] += 1

        return timed

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, List[float]]:
        with self._lock:
            return {layer: list(entry) for layer, entry in self.stats.items()}

    def counter_values(self) -> Dict[str, float]:
        if self.counters is None:
            return {}
        now = self.counters()
        return {name: value - self._counter_base.get(name, 0)
                for name, value in now.items()}

    def _after_fork(self) -> None:
        # The child inherits the parent's totals and open frames; neither
        # belongs to it.
        self.stats = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counter_base = self.counters() if self.counters else {}
        if self.dump_dir is not None:
            from multiprocessing import util

            util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = os.path.join(self.dump_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump({"stats": self.snapshot(),
                       "counters": self.counter_values()}, fh)
        os.replace(path + ".tmp", path)


def read_dumps(dump_dir: str) -> Tuple[Dict[str, List[float]],
                                       Dict[str, float]]:
    """Merge and delete the totals forked workers wrote to ``dump_dir``."""
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for name in sorted(os.listdir(dump_dir)):
        path = os.path.join(dump_dir, name)
        if not name.endswith(".json"):
            continue
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        add_stats(stats, doc["stats"])
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return stats, counters


def add_stats(into: Dict[str, List[float]],
              other: Dict[str, List[float]]) -> None:
    for layer, (self_s, calls) in other.items():
        entry = into.setdefault(layer, [0.0, 0])
        entry[0] += self_s
        entry[1] += calls


def per_unit(stats: Dict[str, List[float]], units: int
             ) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_ms", "calls"}}`` per unit of work, every layer."""
    out = {}
    for layer in LAYER_NAMES:
        self_s, calls = stats.get(layer, (0.0, 0))
        out[layer] = {"self_ms": self_s * 1e3 / units,
                      "calls": calls / units}
    return out


def self_total_ms(layers: Dict[str, Dict[str, float]]) -> float:
    return sum(entry["self_ms"] for entry in layers.values())
