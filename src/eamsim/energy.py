"""Capacitor-bank energy model for federated storage.

Each energy buffer is a capacitor, and the simulation advances every buffer by
one slot at a time with a single law.  With stored energy E, per-slot drain
fraction sigma, charging efficiency eta and an allotted input power P over a
slot of length t:

    E' = (1 - sigma) * E + eta * P * t

capped at the capacity 0.5 * C * v_max^2.  Under a constant P and sigma > 0 a
buffer therefore settles at min(eta * P * t / sigma, capacity), and with no
input it keeps a fraction (1 - sigma)^k of its energy after k slots.  Energy
and voltage are linked by E = 0.5 * C * V^2 throughout.

Withdrawals model task execution: energy may only be taken if the buffer
stays at or above the power-off threshold v_off afterwards, otherwise nothing
is deducted and the caller must treat the draw as failed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class EnergyModelError(ValueError):
    """Invalid parameter or argument in the energy model."""


class Component(enum.Enum):
    """Hardware components a buffer can power (for availability accounting)."""

    MCU = "mcu"
    SENSING = "sensing"
    ACTUATION = "actuation"


@dataclass(slots=True)
class Capacitor:
    """One energy buffer with its charging characteristics and thresholds."""

    capacitance: float  # F
    efficiency: float = 0.9  # fraction of allotted input energy actually stored
    drain_fraction: float = 0.001  # fraction of stored energy lost per slot
    v_on: float = 2.4  # V, device powers on at or above this
    v_off: float = 1.8  # V, device browns out below this
    v_max: float = 3.0  # V, hard ceiling enforced by the charger
    voltage: float = 0.0  # V, current charge level

    def __post_init__(self) -> None:
        if not 0 < self.capacitance < math.inf:
            raise EnergyModelError("capacitance must be positive and finite")
        if not 0 < self.efficiency <= 1:
            raise EnergyModelError("efficiency must be in (0, 1]")
        if not 0 <= self.drain_fraction < 1:
            raise EnergyModelError("drain fraction must be in [0, 1)")
        if not 0 <= self.v_off < self.v_on <= self.v_max < math.inf:
            raise EnergyModelError("need 0 <= v_off < v_on <= v_max, all finite")
        if not 0 <= self.voltage <= self.v_max:
            raise EnergyModelError("voltage must lie in [0, v_max]")


def energy_of(cap: Capacitor) -> float:
    """Stored energy 0.5 * C * V^2 in joules."""
    return 0.5 * cap.capacitance * cap.voltage * cap.voltage


def voltage_of(energy: float, cap: Capacitor) -> float:
    """Voltage corresponding to a stored energy on this capacitor."""
    if energy < 0:
        raise EnergyModelError("energy must be non-negative")
    return math.sqrt(2.0 * energy / cap.capacitance)


def energy_at(cap: Capacitor, volts: float) -> float:
    """Energy stored at a given voltage level (e.g. the v_on threshold)."""
    return 0.5 * cap.capacitance * volts * volts


def capacity_of(cap: Capacitor) -> float:
    """Maximum storable energy, at v_max."""
    return energy_at(cap, cap.v_max)


def slot_constants(cap: Capacitor) -> tuple[float, ...]:
    """Per-buffer constants of the slot update, in the order slot_update reads
    them: (0.5 * C, 1 - sigma, sigma, eta, capacity, C, v_max)."""
    half_c = 0.5 * cap.capacitance
    return (
        half_c,
        1.0 - cap.drain_fraction,
        cap.drain_fraction,
        cap.efficiency,
        half_c * cap.v_max * cap.v_max,
        cap.capacitance,
        cap.v_max,
    )


def slot_update(caps, constants, shares, dt: float, ledger: list) -> float:
    """Advance every buffer of a bank by one slot.

    Buffer b, holding E = 0.5 * C * V^2 and allotted shares[b] watts, goes to
    E' = (1 - sigma) * E + eta * P * dt, clipped at its capacity, and its
    voltage is written back from E'.  constants[b] is slot_constants() of the
    buffer.  ledger holds the running [charged, drained, spilled] sums, to
    which each buffer's harvested input, drain and clipped excess are added in
    buffer order.  Returns the bank's new energy, the sum of the E' values.
    """
    charged, drained, spilled = ledger
    total = 0.0
    for cap, (half_c, keep, sigma, eta, ceiling, c, v_max), share in zip(caps, constants, shares):
        v = cap.voltage
        energy = half_c * v * v
        gain = eta * share * dt
        new = keep * energy + gain
        charged += gain
        drained += sigma * energy
        if new > ceiling:
            spilled += new - ceiling
            new = ceiling
        v = math.sqrt(2.0 * new / c)
        cap.voltage = v if v < v_max else v_max
        total += new
    ledger[0], ledger[1], ledger[2] = charged, drained, spilled
    return total


def drain(cap: Capacitor, amount: float) -> float:
    """Take amount joules out of the buffer, or all it holds if that is less;
    returns the energy actually taken (the floor is zero, not v_off)."""
    energy = 0.5 * cap.capacitance * cap.voltage * cap.voltage
    taken = amount if amount < energy else energy
    if taken > 0.0:
        cap.voltage = math.sqrt(2.0 * (energy - taken) / cap.capacitance)
    return taken


def usable_energy(cap: Capacitor) -> float:
    """Energy the buffer can give before it falls to v_off (negative below)."""
    v = cap.voltage
    v_off = cap.v_off
    return 0.5 * cap.capacitance * (v * v - v_off * v_off)


def set_energy(cap: Capacitor, energy: float) -> None:
    """Charge the buffer to the given stored energy, clipped at v_max."""
    cap.voltage = min(voltage_of(energy, cap), cap.v_max)


def set_soc(cap: Capacitor, soc: float) -> None:
    """Charge the buffer to a state of charge, a fraction of its capacity."""
    cap.voltage = cap.v_max * math.sqrt(soc)


def withdraw(cap: Capacitor, amount: float) -> bool:
    """Take energy out of the buffer if it can stay at or above v_off.

    Returns True and deducts the energy when the post-withdrawal voltage is
    still >= v_off; otherwise deducts nothing and returns False.
    """
    if amount < 0:
        raise EnergyModelError("withdrawal amount must be non-negative")
    if amount == 0.0:
        return True
    remaining = energy_of(cap) - amount
    if remaining < energy_at(cap, cap.v_off):
        return False
    cap.voltage = voltage_of(remaining, cap)
    return True


@dataclass
class CapacitorBank:
    """Ordered collection of buffers plus what hardware each one powers."""

    capacitors: list[Capacitor]
    component_map: dict[int, tuple[Component, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.capacitors:
            raise EnergyModelError("bank needs at least one capacitor")
        for idx in self.component_map:
            if not 0 <= idx < len(self.capacitors):
                raise EnergyModelError(f"component map references missing buffer {idx}")

    def __len__(self) -> int:
        return len(self.capacitors)


def total_energy(bank: CapacitorBank) -> float:
    """Aggregate stored energy across all buffers (sum convention)."""
    total = 0.0
    for cap in bank.capacitors:
        total += 0.5 * cap.capacitance * cap.voltage * cap.voltage
    return total


def total_capacity(bank: CapacitorBank) -> float:
    return fold_sum(capacity_of(c) for c in bank.capacitors)


def fold_sum(values) -> float:
    """The floats added one at a time, left to right, as builtin sum() did
    before Python 3.12, whose sum() compensates the rounding."""
    total = 0.0
    for x in values:
        total += x
    return total

