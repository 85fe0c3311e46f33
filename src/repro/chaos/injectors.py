"""Seeded, composable infrastructure fault injectors.

Where :mod:`repro.faults` injects *device* faults (stuck-at cells,
conductance drift) into the simulated crossbars, this module
injects *infrastructure* faults into the serving stack itself: a
forward pass that raises, a forward pass that hangs past the compute
timeout, a model artifact that is corrupt at registry-load time, and a
TCP connection that dies before the response.  Robustness is measured
by injecting the fault, not by hoping — the chaos suite in
``tests/chaos/`` asserts the daemon survives every scenario with zero
hung requests, the documented error taxonomy, and byte-identical
post-recovery predictions.

Every injector is deterministic: window injectors (``after``/
``count``) fire on an exact range of matching events, probabilistic
ones (``p``/``seed``) draw from their own seeded
:class:`numpy.random.Generator` — two runs of the same spec inject the
same faults at the same points.

Injectors are composed into a :class:`ChaosPlan`, which is what the
serving stack actually calls:

``before_compute(model)``
    From the compute thread, just before a batch's forward pass.  May
    raise (compute-exception) or sleep (latency-spike).
``drop_connection(index)``
    From the HTTP front end, once per accepted connection.  ``True``
    means "kill the socket without a response".
``on_model_load(name)``
    From :meth:`repro.serving.registry.ModelRegistry.build`, before
    each model loads.  May corrupt the model's cached artifacts on
    disk (the store must quarantine and retrain) or raise outright
    (the registry must mark the model failed and keep the daemon up).
"""

from __future__ import annotations

import glob
import os
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ArtifactError, ConfigurationError

__all__ = [
    "ChaosFault",
    "Injector",
    "ComputeExceptionInjector",
    "LatencySpikeInjector",
    "RegistryCorruptionInjector",
    "ConnectionDropInjector",
    "ChaosPlan",
]


class ChaosFault(RuntimeError):
    """The exception injected for a simulated compute failure.

    Deliberately *outside* the :mod:`repro.errors` taxonomy: it stands
    in for an arbitrary model/library bug, so it must exercise the
    serving stack's generic-exception path (HTTP 500, breaker failure
    accounting), not a domain-specific handler.
    """


class Injector:
    """Base injector: every hook is a no-op; subclasses override one.

    ``after``/``count`` give window injectors a half-open firing range
    over their matching events: event indices ``[after, after+count)``
    fire.  ``model`` (where it applies) restricts matching to one
    model name; ``None`` matches all.
    """

    name = "injector"

    def __init__(self, after: int = 0, count: int = 1) -> None:
        if after < 0 or count < 0:
            raise ConfigurationError(
                f"chaos window needs after >= 0 and count >= 0, got "
                f"after={after!r} count={count!r}"
            )
        self.after = after
        self.count = count
        self._events = 0
        self.fired = 0

    def _window_hit(self) -> bool:
        """Advance this injector's event counter; True inside the
        firing window."""
        index = self._events
        self._events += 1
        hit = self.after <= index < self.after + self.count
        if hit:
            self.fired += 1
        return hit

    # hooks -------------------------------------------------------------
    def before_compute(self, model: str) -> Optional[float]:
        """Called on the compute thread before a batch's forward.

        May raise; may return a stall in seconds, which the plan
        sleeps *after* releasing its lock (so a latency spike on the
        compute thread can never block the event-loop hooks).
        """
        return None

    def drop_connection(self, index: int) -> bool:
        """Called once per accepted connection; True drops it."""
        return False

    def on_model_load(self, name: str) -> None:
        """Called before one model loads at registry build time."""

    def describe(self) -> str:
        return f"{self.name}(after={self.after}, count={self.count})"


class ComputeExceptionInjector(Injector):
    """Raise :class:`ChaosFault` from selected forward passes."""

    name = "compute-exception"

    def __init__(self, model: Optional[str] = None,
                 after: int = 0, count: int = 1) -> None:
        super().__init__(after=after, count=count)
        self.model = model

    def before_compute(self, model: str) -> None:
        if self.model not in (None, model):
            return
        if self._window_hit():
            raise ChaosFault(
                f"chaos: injected compute exception for model {model!r} "
                f"(window {self.after}+{self.count})"
            )


class LatencySpikeInjector(Injector):
    """Stall selected forward passes by ``delay_s`` seconds.

    With a delay beyond the daemon's ``compute_timeout_s`` this is the
    hung-forward-pass scenario: the batch must be failed with a 503
    and the compute pool rebuilt.
    """

    name = "latency-spike"

    def __init__(self, delay_s: float, model: Optional[str] = None,
                 after: int = 0, count: int = 1) -> None:
        super().__init__(after=after, count=count)
        if delay_s < 0:
            raise ConfigurationError(
                f"latency spike needs delay_s >= 0, got {delay_s!r}"
            )
        self.delay_s = delay_s
        self.model = model

    def before_compute(self, model: str) -> Optional[float]:
        if self.model not in (None, model):
            return None
        if self._window_hit():
            return self.delay_s
        return None

    def describe(self) -> str:
        return (f"{self.name}(delay_s={self.delay_s:g}, "
                f"after={self.after}, count={self.count})")


class RegistryCorruptionInjector(Injector):
    """Sabotage a model's load: corrupt its cached artifacts or fail it.

    ``mode="corrupt"`` truncates every cached artifact matching
    ``<model>-*`` under the model cache directory (via
    :func:`os.truncate`, so no new file content is invented) — the
    artifact store must detect the damage, quarantine the entries and
    retrain.  ``mode="fail"`` raises
    :class:`~repro.errors.ArtifactError` outright — the registry must
    mark the model *failed* and the daemon must answer 503 for it
    while serving its other models.
    """

    name = "registry-corruption"
    _MODES = ("corrupt", "fail")

    def __init__(self, model: Optional[str] = None, mode: str = "corrupt",
                 cache_dir: Optional[str] = None) -> None:
        super().__init__(after=0, count=1)
        if mode not in self._MODES:
            raise ConfigurationError(
                f"registry-corruption mode must be one of {self._MODES}, "
                f"got {mode!r}"
            )
        self.model = model
        self.mode = mode
        self.cache_dir = cache_dir

    def on_model_load(self, name: str) -> None:
        if self.model not in (None, name):
            return
        self.fired += 1
        if self.mode == "fail":
            raise ArtifactError(
                f"chaos: injected registry load failure for model {name!r}"
            )
        cache_dir = self.cache_dir
        if cache_dir is None:
            from ..store import default_model_cache_dir

            cache_dir = default_model_cache_dir()
        for path in sorted(glob.glob(os.path.join(cache_dir, f"{name}-*"))):
            if path.endswith(".corrupt"):
                continue
            try:
                os.truncate(path, 16)
            except OSError:
                pass  # already quarantined/removed under our feet

    def describe(self) -> str:
        return f"{self.name}(model={self.model!r}, mode={self.mode!r})"


class ConnectionDropInjector(Injector):
    """Drop accepted connections, by window or seeded coin-flip.

    With ``p`` set, each connection is dropped independently with
    probability ``p`` drawn from a Generator seeded with ``seed`` —
    the drop pattern is a pure function of the spec and the connection
    order.  Without ``p``, the ``after``/``count`` window applies.
    """

    name = "conn-drop"

    def __init__(self, p: Optional[float] = None, seed: int = 0,
                 after: int = 0, count: int = 1) -> None:
        super().__init__(after=after, count=count)
        if p is not None and not 0.0 <= p <= 1.0:
            raise ConfigurationError(
                f"conn-drop probability must be in [0, 1], got {p!r}"
            )
        if seed < 0:
            raise ConfigurationError(
                f"conn-drop seed must be >= 0, got {seed!r}"
            )
        self.p = p
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def drop_connection(self, index: int) -> bool:
        if self.p is not None:
            hit = bool(self._rng.random() < self.p)
            if hit:
                self.fired += 1
            return hit
        return self._window_hit()

    def describe(self) -> str:
        if self.p is not None:
            return f"{self.name}(p={self.p:g}, seed={self.seed})"
        return f"{self.name}(after={self.after}, count={self.count})"


class ChaosPlan:
    """The composition of injectors the serving stack consults.

    Hook calls fan out to every injector in spec order.  The plan is
    thread-safe: ``before_compute`` runs on compute threads,
    ``drop_connection`` on the event loop, ``on_model_load`` at
    startup — a single lock serialises injector state updates so
    seeded streams and window counters stay deterministic whichever
    thread a hook runs on.
    """

    def __init__(self, injectors: Sequence[Injector] = ()) -> None:
        self.injectors: List[Injector] = list(injectors)
        self._lock = threading.Lock()
        self._connections = 0
        self._compute_calls: Dict[str, int] = {}

    @property
    def active(self) -> bool:
        return bool(self.injectors)

    def before_compute(self, model: str) -> None:
        stall = 0.0
        with self._lock:
            self._compute_calls[model] = self._compute_calls.get(model, 0) + 1
            for injector in self.injectors:
                delay = injector.before_compute(model)
                if delay:
                    stall += delay
        if stall:
            # Sleep off the lock: a latency spike stalls only its own
            # compute thread, never the event-loop hooks.
            time.sleep(stall)

    def drop_connection(self, index: int) -> bool:
        with self._lock:
            self._connections += 1
            return any(
                injector.drop_connection(index)
                for injector in self.injectors
            )

    def on_model_load(self, name: str) -> None:
        with self._lock:
            for injector in self.injectors:
                injector.on_model_load(name)

    def fired_total(self) -> int:
        """Injections actually delivered (all injectors)."""
        return sum(injector.fired for injector in self.injectors)

    def describe(self) -> str:
        if not self.injectors:
            return "chaos: none"
        return "chaos: " + "; ".join(
            injector.describe() for injector in self.injectors
        )
