"""Harvester voltage traces and energy-attack windows.

A trace is a time series of open-circuit voltage measurements taken across a
known load resistor.  The instantaneous harvesting power seen by the device is
recovered as P = V^2 / R_load.  Between samples the voltage is held constant
(zero-order hold), which matches how the traces were recorded: each sample is
the measured level until the next reading.

An energy attack is a window of time during which the harvester produces no
energy at all.  A trace is never rewritten for one: a run applies its attack
windows to the held samples slot by slot (engine._slot_powers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lt

ATTACK_KINDS = ("short", "long")
LOAD_RESISTANCE = 30e3  # ohm, default resistor a trace was measured across
# A synthesized trace is built a sample at a time, at about 80 bytes per sample
# while it is built, so its length / interval is capped before anything is
# allocated: a count memory cannot hold would otherwise hang, not fail.  A day
# sampled every 10 ms is 8.64 M samples.
MAX_TRACE_SAMPLES = 10**7


class TraceError(ValueError):
    """Malformed trace data, or an invalid trace or attack parameter."""


@dataclass(frozen=True)
class EnergyTrace:
    """Voltage-over-time record of a harvesting source.

    Immutable once constructed.  The samples are held as tuples of floats.
    """

    times: tuple  # s, finite, strictly increasing
    voltages: tuple  # V, finite, >= 0
    load_resistance: float  # ohm, resistor the voltage was measured across
    name: str = "trace"

    def __post_init__(self) -> None:
        try:
            times = tuple(map(float, self.times))
            volts = tuple(map(float, self.voltages))
        except (TypeError, ValueError) as exc:
            raise TraceError(f"times and voltages must be sequences of numbers: {exc}") from None
        if len(times) != len(volts):
            raise TraceError("times and voltages must have equal length")
        if not times:
            raise TraceError("trace must contain at least one sample")
        if not all(map(math.isfinite, times)):
            raise TraceError("sample times must be finite")
        if not all(map(lt, times, times[1:])):  # no subtraction, so no overflow
            raise TraceError("sample times must be strictly increasing")
        if not all(map(math.isfinite, volts)) or min(volts) < 0:
            raise TraceError("voltages must be finite and non-negative")
        if not 0 < self.load_resistance < math.inf:
            raise TraceError("load resistance must be positive and finite")
        peak = max(volts)
        if not math.isfinite(peak * peak / self.load_resistance):
            raise TraceError("harvested power V^2 / R must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "voltages", volts)

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) sample time in seconds."""
        return self.times[0], self.times[-1]


@dataclass(frozen=True)
class AttackScenario:
    """One energy-attack window: the harvester is dead for its duration."""

    start: float  # s, window begin (inclusive)
    duration: float  # s, window length; end = start + duration (exclusive)
    kind: str = "short"  # informational label, one of ATTACK_KINDS
    id: str = "attack"

    def __post_init__(self) -> None:
        if not 0 <= self.start < math.inf:
            raise TraceError("attack start must be finite and >= 0")
        if not 0 < self.duration < math.inf:
            raise TraceError("attack duration must be positive and finite")
        if self.kind not in ATTACK_KINDS:
            raise TraceError(f"attack kind must be one of {ATTACK_KINDS}")

    @property
    def end(self) -> float:
        return self.start + self.duration


def validate_scenarios(scenarios: list[AttackScenario]) -> None:
    """Reject overlapping attack windows (a run expects disjoint attacks)."""
    ordered = sorted(scenarios, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise TraceError(f"attack windows {a.id!r} and {b.id!r} overlap")


def load_trace(
    path, load_resistance: float = LOAD_RESISTANCE, name: str | None = None
) -> EnergyTrace:
    """Read a two-column (time_s, voltage_v) delimited text file.

    Lines starting with '#' are comments.  A single non-numeric header line is
    tolerated.  Columns may be separated by commas or whitespace.
    """
    times: list[float] = []
    volts: list[float] = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 2:
            raise TraceError(f"{path}:{lineno}: expected two columns, got {len(fields)}")
        try:
            t, v = float(fields[0]), float(fields[1])
        except ValueError:
            if not header_seen and not times:
                header_seen = True
                continue
            raise TraceError(f"{path}:{lineno}: cannot parse {line!r}") from None
        times.append(t)
        volts.append(v)
    if not times:
        raise TraceError(f"{path}: no samples found")
    trace_name = name if name is not None else str(path)
    return EnergyTrace(times, volts, load_resistance, trace_name)


def synthesize_trace(
    kind: str,
    amplitude: float,
    length: float,
    interval: float,
    period: float | None = None,
    load_resistance: float = LOAD_RESISTANCE,
    name: str | None = None,
) -> EnergyTrace:
    """Generate a synthetic voltage trace.

    kinds:
      constant  -- amplitude everywhere
      sinusoid  -- rectified sine, V(t) = A * |sin(2*pi*t / period)|
      step      -- 0 V for the first half of the trace, amplitude after

    Samples are laid on a regular grid of the given interval, sample i at
    i * interval; the trace has ceil(length / interval) + 1 samples so both
    endpoints are covered.  length / interval must be below MAX_TRACE_SAMPLES.
    """
    if amplitude < 0:
        raise TraceError("amplitude must be non-negative")
    if not 0 < length < math.inf or not 0 < interval < math.inf:
        raise TraceError("length and interval must be positive and finite")
    if not length / interval < MAX_TRACE_SAMPLES:  # inf included
        raise TraceError(f"{length / interval:.3g} trace samples exceed the cap of "
                         f"{MAX_TRACE_SAMPLES:.0e}")
    n = math.ceil(length / interval) + 1
    times = [i * interval for i in range(n)]
    amplitude = float(amplitude)
    if kind == "constant":
        volts = [amplitude] * n
    elif kind == "sinusoid":
        if period is None or not period > 0:
            raise TraceError("sinusoid needs a positive period")
        w, sin = 2.0 * math.pi, math.sin
        volts = [amplitude * abs(sin(w * t / period)) for t in times]
    elif kind == "step":
        half = length / 2.0
        volts = [amplitude if t >= half else 0.0 for t in times]
    else:
        raise TraceError(f"unknown trace kind {kind!r}")
    return EnergyTrace(times, volts, load_resistance, name or kind)

