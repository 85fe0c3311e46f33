"""Event-driven piecewise-exponential transient simulator.

The ReSiPE datapath (paper Fig. 2) is a cascade of first-order networks:
capacitors charged through resistive branches from ideally driven nodes,
plus switches, sample-and-holds, comparators and pulse shapers.  Between
circuit events every dynamic node follows the exact solution

    V(t) = V_inf + (V_0 - V_inf) * exp(-(t - t_0) / tau)

so a transient simulation reduces to ordered event processing with
analytic segments in between — no time-stepping error.  This is the
replacement for the paper's Cadence Virtuoso runs (see DESIGN.md §2).

Supported elements
------------------
* :class:`PiecewiseConstantSource` — ideally driven node with a step
  schedule.
* :class:`SwitchSpec` — named switch with an open/close schedule; any RC
  branch may be gated by a switch.
* :class:`RCNodeSpec` — capacitor to ground charged through one or more
  resistive branches to driven nodes.
* :class:`SampleHold` — captures an input node's value at trigger times
  and drives its output node with the held value.
* :class:`Comparator` — logic output that goes high when ``pos`` exceeds
  ``neg``; crossing times are located on the analytic segments.
* :class:`PulseShaper` — emits a fixed-width pulse on each rising edge of
  a watched logic node (models the inverter-delay + AND spike generator).

Limitations (by design)
-----------------------
Two dynamic nodes may not be connected by a closed branch; the ReSiPE
topology never requires it, and rejecting it keeps every segment exactly
solvable.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CircuitError
from .rc import thevenin
from .waveform import Waveform

__all__ = [
    "PiecewiseConstantSource",
    "SwitchSpec",
    "Branch",
    "RCNodeSpec",
    "SampleHold",
    "Comparator",
    "PulseShaper",
    "TransientEngine",
    "TransientResult",
]

GROUND = "gnd"  # the reference node; every voltage is measured from it

_LOGIC_THRESHOLD = 0.5


# ----------------------------------------------------------------------
# Element specifications
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PiecewiseConstantSource:
    """An ideally driven node following a step schedule.

    ``schedule`` is a sequence of ``(time, value)`` pairs sorted by time;
    the first entry defines the value from the start of the simulation.
    """

    node: str
    schedule: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.schedule:
            raise CircuitError(f"source on {self.node!r} needs a schedule")
        times = [t for t, _ in self.schedule]
        if times != sorted(times):
            raise CircuitError(f"source on {self.node!r}: schedule must be sorted")

    @classmethod
    def constant(cls, node: str, value: float) -> "PiecewiseConstantSource":
        return cls(node=node, schedule=((0.0, value),))


@dataclasses.dataclass(frozen=True)
class SwitchSpec:
    """A named switch with an open/close schedule.

    ``schedule`` holds ``(time, closed)`` pairs sorted by time; the first
    entry defines the initial state.
    """

    name: str
    schedule: Tuple[Tuple[float, bool], ...]

    def __post_init__(self) -> None:
        if not self.schedule:
            raise CircuitError(f"switch {self.name!r} needs a schedule")
        times = [t for t, _ in self.schedule]
        if times != sorted(times):
            raise CircuitError(f"switch {self.name!r}: schedule must be sorted")


@dataclasses.dataclass(frozen=True)
class Branch:
    """A resistive branch from an RC node to ``other`` (a driven node or
    ground), optionally gated by a switch."""

    other: str
    resistance: float
    switch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise CircuitError(f"branch resistance must be positive, got {self.resistance!r}")


@dataclasses.dataclass(frozen=True)
class RCNodeSpec:
    """A capacitor to ground charged through resistive branches."""

    node: str
    capacitance: float
    branches: Tuple[Branch, ...]
    v0: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise CircuitError(
                f"RC node {self.node!r}: capacitance must be positive, "
                f"got {self.capacitance!r}"
            )
        if not self.branches:
            raise CircuitError(f"RC node {self.node!r} needs at least one branch")


@dataclasses.dataclass(frozen=True)
class SampleHold:
    """Ideal sample-and-hold: at each trigger time the input node's value
    is captured and drives ``output_node`` until the next trigger."""

    input_node: str
    output_node: str
    sample_times: Tuple[float, ...]
    initial: float = 0.0

    def __post_init__(self) -> None:
        times = list(self.sample_times)
        if times != sorted(times):
            raise CircuitError("sample times must be sorted ascending")


@dataclasses.dataclass(frozen=True)
class Comparator:
    """Continuous-time comparator: ``output`` is ``high`` while
    ``pos > neg`` and ``low`` otherwise.

    ``enable`` optionally restricts activity to a ``(start, stop)``
    window; outside it the output is held low.  The ReSiPE output stage
    only enables its comparator during S2 (paper Fig. 2: RST phases).
    """

    pos: str
    neg: str
    output: str
    high: float = 1.0
    low: float = 0.0
    enable: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.enable is not None and self.enable[0] >= self.enable[1]:
            raise CircuitError(
                f"comparator enable window must have start < stop, got {self.enable}"
            )

    def active_at(self, t: float) -> bool:
        """Whether the comparator is enabled at time ``t``."""
        if self.enable is None:
            return True
        return self.enable[0] <= t < self.enable[1]


@dataclasses.dataclass(frozen=True)
class PulseShaper:
    """Rising-edge-triggered one-shot: each rising edge on ``input_node``
    produces a pulse of ``width`` seconds on ``output_node``."""

    input_node: str
    output_node: str
    width: float
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise CircuitError(f"pulse width must be positive, got {self.width!r}")


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
class TransientResult:
    """Waveforms recorded by a :class:`TransientEngine` run."""

    def __init__(self, waveforms: Dict[str, Waveform], t_stop: float) -> None:
        self._waveforms = waveforms
        self.t_stop = t_stop

    def __contains__(self, node: str) -> bool:
        return node in self._waveforms

    def nodes(self) -> List[str]:
        """Recorded node names."""
        return sorted(self._waveforms)

    def waveform(self, node: str) -> Waveform:
        """The recorded waveform of ``node``."""
        try:
            return self._waveforms[node]
        except KeyError:
            raise CircuitError(
                f"node {node!r} was not recorded; available: {self.nodes()}"
            ) from None

    def value_at(self, node: str, t: float) -> float:
        """Interpolated value of ``node`` at time ``t``."""
        return float(self.waveform(node)(t))

    def spike_times(self, node: str, threshold: float = _LOGIC_THRESHOLD) -> List[float]:
        """Rising-edge times of a logic/pulse node."""
        return self.waveform(node).rising_crossings(threshold)


# ----------------------------------------------------------------------
# Internal state records
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Segment:
    t0: float
    t1: float
    v0: float
    v_inf: float
    tau: float  # math.inf => frozen


@dataclasses.dataclass
class _DynState:
    spec: RCNodeSpec
    t0: float
    v0: float
    v_inf: float
    tau: float
    segments: List[_Segment] = dataclasses.field(default_factory=list)

    def value(self, t: float) -> float:
        dt = t - self.t0
        if dt < 0:
            raise CircuitError("cannot evaluate a dynamic node in the past")
        if math.isinf(self.tau):
            return self.v0
        return self.v_inf + (self.v0 - self.v_inf) * math.exp(-dt / self.tau)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TransientEngine:
    """Builds and runs one transient simulation.

    Typical use::

        eng = TransientEngine(t_stop=200e-9)
        eng.add_source(PiecewiseConstantSource.constant("vs", 1.0))
        eng.add_switch(SwitchSpec("rst", ((0.0, False), (99e-9, True))))
        eng.add_rc_node(RCNodeSpec("ramp", 100e-15,
                                   (Branch("vs", 100e3),
                                    Branch("gnd", 100.0, switch="rst"))))
        result = eng.run()
        result.waveform("ramp")
    """

    def __init__(
        self,
        t_stop: float,
        t_start: float = 0.0,
        points_per_segment: int = 64,
        record: Optional[Sequence[str]] = None,
    ) -> None:
        if t_stop <= t_start:
            raise CircuitError(f"need t_stop > t_start, got [{t_start}, {t_stop}]")
        if points_per_segment < 2:
            raise CircuitError("points_per_segment must be >= 2")
        self.t_start = t_start
        self.t_stop = t_stop
        self.points_per_segment = points_per_segment
        self._record = set(record) if record is not None else None

        self._sources: Dict[str, PiecewiseConstantSource] = {}
        self._switch_specs: Dict[str, SwitchSpec] = {}
        self._rc_specs: Dict[str, RCNodeSpec] = {}
        self._sample_holds: List[SampleHold] = []
        self._comparators: List[Comparator] = []
        self._shapers: List[PulseShaper] = []

    # ------------------------------------------------------------------
    # Netlist construction
    # ------------------------------------------------------------------
    def _claim_node(self, node: str) -> None:
        if node == GROUND:
            raise CircuitError("ground cannot be driven")
        owners = (
            node in self._sources
            or node in self._rc_specs
            or any(sh.output_node == node for sh in self._sample_holds)
            or any(c.output == node for c in self._comparators)
            or any(p.output_node == node for p in self._shapers)
        )
        if owners:
            raise CircuitError(f"node {node!r} already has a driver")

    def add_source(self, spec: PiecewiseConstantSource) -> None:
        """Register an ideally driven node."""
        self._claim_node(spec.node)
        self._sources[spec.node] = spec

    def add_switch(self, spec: SwitchSpec) -> None:
        """Register a switch usable by RC-node branches."""
        if spec.name in self._switch_specs:
            raise CircuitError(f"switch {spec.name!r} already defined")
        self._switch_specs[spec.name] = spec

    def add_rc_node(self, spec: RCNodeSpec) -> None:
        """Register a dynamic (capacitor) node."""
        self._claim_node(spec.node)
        self._rc_specs[spec.node] = spec

    def add_sample_hold(self, spec: SampleHold) -> None:
        """Register a sample-and-hold."""
        self._claim_node(spec.output_node)
        self._sample_holds.append(spec)

    def add_comparator(self, spec: Comparator) -> None:
        """Register a comparator."""
        self._claim_node(spec.output)
        self._comparators.append(spec)

    def add_pulse_shaper(self, spec: PulseShaper) -> None:
        """Register a rising-edge one-shot pulse generator."""
        self._claim_node(spec.output_node)
        self._shapers.append(spec)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """SPICE-flavoured listing of the registered netlist.

        Regenerates the content of a schematic (the paper's Fig. 2) as
        text: every source, switch schedule, RC node with its branches,
        sample-and-hold, comparator and pulse shaper.
        """
        lines: List[str] = [f"* transient netlist  (t = 0 .. {self.t_stop:g} s)"]
        for node, src in sorted(self._sources.items()):
            steps = ", ".join(f"{t:g}s->{v:g}V" for t, v in src.schedule)
            lines.append(f"V({node})        source   {steps}")
        for name, sw in sorted(self._switch_specs.items()):
            steps = ", ".join(
                f"{t:g}s->{'on' if s else 'off'}" for t, s in sw.schedule
            )
            lines.append(f"S({name})        switch   {steps}")
        for node, spec in sorted(self._rc_specs.items()):
            lines.append(
                f"C({node})        {spec.capacitance:g} F to gnd, "
                f"V0 = {spec.v0:g} V"
            )
            for branch in spec.branches:
                gate = f" via switch {branch.switch}" if branch.switch else ""
                lines.append(
                    f"  R {node} -> {branch.other}   {branch.resistance:g} Ohm{gate}"
                )
        for sh in self._sample_holds:
            times = ", ".join(f"{t:g}s" for t in sh.sample_times) or "(never)"
            lines.append(
                f"SH {sh.input_node} -> {sh.output_node}   samples @ {times}"
            )
        for comp in self._comparators:
            window = (
                f" enabled {comp.enable[0]:g}s..{comp.enable[1]:g}s"
                if comp.enable is not None else ""
            )
            lines.append(
                f"CMP +{comp.pos} -{comp.neg} -> {comp.output}{window}"
            )
        for shaper in self._shapers:
            lines.append(
                f"PULSE {shaper.input_node} -> {shaper.output_node}   "
                f"width {shaper.width:g} s"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self) -> TransientResult:
        """Execute the transient simulation and return recorded waveforms."""
        self._validate()
        t = self.t_start

        # --- mutable state ------------------------------------------------
        forced: Dict[str, float] = {GROUND: 0.0}
        forced_history: Dict[str, List[Tuple[float, float]]] = {}
        switches: Dict[str, bool] = {}
        dyn: Dict[str, _DynState] = {}
        comp_state: Dict[int, bool] = {}
        comp_gen: Dict[int, int] = {}

        seq = itertools.count()
        queue: List[Tuple[float, int, str, object]] = []

        def push(time: float, kind: str, payload: object) -> None:
            if time <= self.t_stop:
                heapq.heappush(queue, (time, next(seq), kind, payload))

        def record_forced(node: str, value: float, time: float) -> None:
            hist = forced_history.setdefault(node, [])
            if hist and hist[-1][1] != value:
                hist.append((time, hist[-1][1]))
            hist.append((time, value))
            forced[node] = value

        # --- initialise sources, switches, S/H, comparators, shapers -------
        for node, src in self._sources.items():
            first_time, first_value = src.schedule[0]
            record_forced(node, first_value if first_time <= t else 0.0, t)
            for step_t, step_v in src.schedule:
                if step_t > t:
                    push(step_t, "source", (node, step_v))
                else:
                    forced[node] = step_v
                    forced_history[node][-1] = (t, step_v)

        for name, spec in self._switch_specs.items():
            first_time, first_state = spec.schedule[0]
            switches[name] = first_state if first_time <= t else False
            for st, state in spec.schedule:
                if st > t:
                    push(st, "switch", (name, state))
                else:
                    switches[name] = state

        for sh in self._sample_holds:
            record_forced(sh.output_node, sh.initial, t)
            for st in sh.sample_times:
                if st >= t:
                    push(st, "sample", sh)

        for idx, comp in enumerate(self._comparators):
            comp_state[idx] = False
            comp_gen[idx] = 0
            record_forced(comp.output, comp.low, t)

        for shaper in self._shapers:
            record_forced(shaper.output_node, 0.0, t)

        # --- dynamic node helpers ------------------------------------------
        def value_of(node: str, time: float) -> float:
            if node in forced:
                return forced[node]
            if node in dyn:
                return dyn[node].value(time)
            raise CircuitError(f"node {node!r} has no driver and no capacitor")

        def retarget(time: float) -> None:
            """Freeze every dynamic node at ``time`` and recompute its
            asymptote/time-constant from the current topology."""
            for state in dyn.values():
                v_now = state.value(time)
                if state.t0 < time:
                    state.segments.append(
                        _Segment(state.t0, time, state.v0, state.v_inf, state.tau)
                    )
                voltages: List[float] = []
                conductances: List[float] = []
                for branch in state.spec.branches:
                    if branch.switch is not None and not switches.get(branch.switch, False):
                        continue
                    other = branch.other
                    if other in dyn:
                        raise CircuitError(
                            f"branch {state.spec.node!r} -> {other!r} couples two "
                            "dynamic nodes; not supported"
                        )
                    voltages.append(value_of(other, time))
                    conductances.append(1.0 / branch.resistance)
                state.t0 = time
                state.v0 = v_now
                if conductances:
                    eq = thevenin(voltages, conductances)
                    state.v_inf = eq.voltage
                    state.tau = eq.resistance * state.spec.capacitance
                else:
                    state.v_inf = v_now
                    state.tau = math.inf

        for node, spec in self._rc_specs.items():
            dyn[node] = _DynState(spec=spec, t0=t, v0=spec.v0, v_inf=spec.v0, tau=math.inf)
        retarget(t)

        # --- comparator handling -------------------------------------------
        def comparator_should_be_high(idx: int, time: float) -> bool:
            comp = self._comparators[idx]
            if not comp.active_at(time):
                return False
            return value_of(comp.pos, time) > value_of(comp.neg, time)

        def next_crossing(idx: int, time: float) -> Optional[float]:
            """First future time the comparator output must flip, found by
            dense sampling of the frozen analytic segment + bisection."""
            comp = self._comparators[idx]
            want_high = not comp_state[idx]
            if comp.enable is not None:
                start, stop = comp.enable
                if time >= stop:
                    return None
                if time < start:
                    # Re-evaluate once the window opens.
                    return start
                if comp_state[idx]:
                    # Output must drop no later than window close.
                    stop_cap = stop
                else:
                    stop_cap = None
            else:
                stop_cap = None

            def diff(dt: float) -> float:
                return value_of(comp.pos, time + dt) - value_of(comp.neg, time + dt)

            horizon = self.t_stop - time
            if comp.enable is not None:
                horizon = min(horizon, comp.enable[1] - time)
            if horizon <= 0:
                return None
            # Log-spaced probes resolve both ns-scale and slice-scale events.
            probes = np.concatenate(
                ([0.0], np.geomspace(max(horizon * 1e-9, 1e-18), horizon, 256))
            )
            prev_dt = probes[0]
            prev_f = diff(prev_dt)
            for dt in probes[1:]:
                f = diff(dt)
                crossed = (prev_f <= 0 < f) if want_high else (prev_f >= 0 > f)
                if crossed:
                    lo, hi = prev_dt, dt
                    for _ in range(80):
                        mid = 0.5 * (lo + hi)
                        fm = diff(mid)
                        if (fm > 0) == want_high:
                            hi = mid
                        else:
                            lo = mid
                    found = time + hi
                    return found if stop_cap is None else min(found, stop_cap)
                prev_dt, prev_f = dt, f
            return stop_cap

        def flip_comparator(idx: int, time: float) -> None:
            comp = self._comparators[idx]
            comp_state[idx] = not comp_state[idx]
            new_level = comp.high if comp_state[idx] else comp.low
            previous = forced[comp.output]
            record_forced(comp.output, new_level, time)
            if new_level > previous:
                fire_shapers(comp.output, time)

        def fire_shapers(node: str, time: float) -> None:
            for shaper in self._shapers:
                if shaper.input_node != node:
                    continue
                record_forced(shaper.output_node, shaper.high, time)
                push(time + shaper.width, "pulse_end", shaper)

        def reschedule_comparators(time: float) -> None:
            for idx in range(len(self._comparators)):
                comp_gen[idx] += 1
                # Immediate inconsistency (e.g. S/H just dropped below pos).
                guard = 0
                while comparator_should_be_high(idx, time) != comp_state[idx]:
                    flip_comparator(idx, time)
                    guard += 1
                    if guard > 4:
                        raise CircuitError("comparator oscillation at a single instant")
                crossing = next_crossing(idx, time)
                if crossing is not None:
                    push(crossing, "comp", (idx, comp_gen[idx]))

        reschedule_comparators(t)

        # --- main event loop -----------------------------------------------
        while queue:
            time, _, kind, payload = heapq.heappop(queue)
            if time > self.t_stop:
                break
            t = time
            if kind == "source":
                node, value = payload  # type: ignore[misc]
                record_forced(node, value, t)
            elif kind == "switch":
                name, state = payload  # type: ignore[misc]
                switches[name] = state
            elif kind == "sample":
                sh = payload  # type: ignore[assignment]
                sampled = value_of(sh.input_node, t)
                record_forced(sh.output_node, sampled, t)
            elif kind == "pulse_end":
                shaper = payload  # type: ignore[assignment]
                record_forced(shaper.output_node, 0.0, t)
            elif kind == "comp":
                idx, gen = payload  # type: ignore[misc]
                if gen != comp_gen[idx]:
                    continue  # stale prediction; a fresher one is queued
                if comparator_should_be_high(idx, t) != comp_state[idx]:
                    flip_comparator(idx, t)
                # Fall through to retarget/reschedule even without a flip:
                # window-open probes must chain the real crossing search.
            else:  # pragma: no cover - defensive
                raise CircuitError(f"unknown event kind {kind!r}")
            retarget(t)
            reschedule_comparators(t)

        # --- close segments and build waveforms ----------------------------
        retarget(self.t_stop)
        waveforms: Dict[str, Waveform] = {}
        for node, state in dyn.items():
            if self._record is not None and node not in self._record:
                continue
            waveforms[node] = self._dynamic_waveform(state)
        for node, hist in forced_history.items():
            if self._record is not None and node not in self._record:
                continue
            waveforms[node] = self._forced_waveform(hist)
        return TransientResult(waveforms, self.t_stop)

    # ------------------------------------------------------------------
    # Waveform assembly
    # ------------------------------------------------------------------
    def _dynamic_waveform(self, state: _DynState) -> Waveform:
        times: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for seg in state.segments:
            if seg.t1 <= seg.t0:
                continue
            ts = np.linspace(seg.t0, seg.t1, self.points_per_segment)
            if math.isinf(seg.tau):
                vs = np.full_like(ts, seg.v0)
            else:
                vs = seg.v_inf + (seg.v0 - seg.v_inf) * np.exp(-(ts - seg.t0) / seg.tau)
            times.append(ts)
            values.append(vs)
        if not times:
            return Waveform.constant(state.v0, self.t_start, self.t_stop)
        t = np.concatenate(times)
        v = np.concatenate(values)
        if t[-1] < self.t_stop:
            t = np.append(t, self.t_stop)
            v = np.append(v, v[-1])
        return Waveform(t, v)

    def _forced_waveform(self, history: List[Tuple[float, float]]) -> Waveform:
        t = np.array([p[0] for p in history], dtype=float)
        v = np.array([p[1] for p in history], dtype=float)
        if t[0] > self.t_start:
            t = np.insert(t, 0, self.t_start)
            v = np.insert(v, 0, v[0])
        if t[-1] < self.t_stop:
            t = np.append(t, self.t_stop)
            v = np.append(v, v[-1])
        return Waveform(t, v)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._rc_specs and not self._sources:
            raise CircuitError("empty circuit: add at least one source or RC node")
        driven = set(self._sources) | set(self._rc_specs) | {GROUND}
        driven |= {sh.output_node for sh in self._sample_holds}
        driven |= {c.output for c in self._comparators}
        driven |= {p.output_node for p in self._shapers}
        for spec in self._rc_specs.values():
            for branch in spec.branches:
                if branch.switch is not None and branch.switch not in self._switch_specs:
                    raise CircuitError(
                        f"RC node {spec.node!r}: unknown switch {branch.switch!r}"
                    )
                if branch.other not in driven:
                    raise CircuitError(
                        f"RC node {spec.node!r}: branch target {branch.other!r} "
                        "has no driver"
                    )
        for sh in self._sample_holds:
            if sh.input_node not in driven:
                raise CircuitError(f"sample-hold input {sh.input_node!r} has no driver")
        for comp in self._comparators:
            for node in (comp.pos, comp.neg):
                if node not in driven:
                    raise CircuitError(f"comparator input {node!r} has no driver")
        for shaper in self._shapers:
            if shaper.input_node not in driven:
                raise CircuitError(f"pulse-shaper input {shaper.input_node!r} has no driver")
