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
    """Per-buffer constants of the slot update, in the order bank_slot reads
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


def bank_slot(energies, constants, shares, dt: float) -> list:
    """One slot of the slot law on buffers that hold energies[b] joules,
    allotted shares[b] watts; constants[b] is slot_constants() of buffer b.

    Buffer b, holding E, goes to E' = (1 - sigma) * E + eta * P * dt,
    clipped at its capacity.  Returns, buffer by buffer, (V', gain
    eta * P * dt, leak sigma * E, clipped excess or 0.0, E'), with V' the
    voltage of E', at most v_max.  Pure: slot_update applies it to a bank,
    and engine._hold judges held power runs with it."""
    out = []
    for energy, (_, keep, sigma, eta, ceiling, c, v_max), share in zip(energies, constants, shares):
        gain = eta * share * dt
        new = keep * energy + gain
        spill = 0.0
        if new > ceiling:
            spill, new = new - ceiling, ceiling
        v = math.sqrt(2.0 * new / c)
        out.append((v if v < v_max else v_max, gain, sigma * energy, spill, new))
    return out


def slot_update(caps, constants, shares, dt: float, ledger: list) -> float:
    """Advance every buffer of a bank by one slot (bank_slot) and write each
    voltage back.  ledger holds the running [charged, drained, spilled] sums,
    to which each buffer's gain, leak and clipped excess are added in buffer
    order.  Returns the bank's new energy, the sum of the E' values."""
    charged, drained, spilled = ledger
    total = 0.0
    slot = bank_slot(map(energy_of, caps), constants, shares, dt)
    for cap, (v, gain, leak, spill, new) in zip(caps, slot):
        cap.voltage = v
        charged += gain
        drained += leak
        spilled += spill  # 0.0 leaves the sum, never -0.0, as it is
        total += new
    ledger[0], ledger[1], ledger[2] = charged, drained, spilled
    return total


def take_from(v: float, capacitance: float, amount: float) -> tuple[float, float]:
    """The voltage left and the energy taken when amount joules, or all it
    holds if that is less, are taken out of a buffer of capacitance F at v
    volts (the floor is zero, not v_off)."""
    energy = 0.5 * capacitance * v * v
    taken = amount if amount < energy else energy
    return (math.sqrt(2.0 * (energy - taken) / capacitance) if taken > 0.0 else v), taken


def drain(cap: Capacitor, amount: float) -> float:
    """Take amount joules out of the buffer (take_from); returns the energy
    actually taken."""
    cap.voltage, taken = take_from(cap.voltage, cap.capacitance, amount)
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


_BINADE_TOP = 2**53 - 1  # the last float of a binade, in ulps of the binade


class UlpSum:
    """A float sum that add(addends, k) advances as
    `for _ in range(k): for a in addends: s += a` does, bit for bit.

    Every float of the binade of s is a multiple of u = ulp(s), and so is
    the next binade's first (for a subnormal s or +0.0, u is the subnormal
    spacing, which the first normal binade shares).  While the sums stay
    below that, adding a rounds the sum to that grid: a adds its whole count
    of ulps rounded to nearest or, halfway between two, as many as make the
    sum's last bit even.  So a round's ulps depend on the parity of the sum
    it starts from alone, and a round with a halfway addend ends on a parity
    its addends fix: every round after the first adds the same n ulps.  The
    sum is kept as its count of ulps across calls, and the rounds that keep
    it inside the binade add in integer arithmetic.  A round that would
    leave the binade, or that starts from -0.0 or has an addend that is
    negative or above the sum, adds float by float."""

    __slots__ = ("_s", "_units", "_u")

    def __init__(self, s: float):
        self._s, self._units, self._u = s, None, 0.0

    def value(self) -> float:
        return self._s if self._units is None else self._units * self._u

    def add(self, addends, k: int) -> None:
        units, u = self._units, self._u
        while k > 0:
            if units is None and math.copysign(1.0, self._s) > 0.0 and self._s < math.inf:
                u = math.ulp(self._s)
                units = int(self._s / u)
            if units is not None:
                first, tied = _round(units, u, addends)
                if first <= _BINADE_TOP:
                    n = _round(first, u, addends)[0] - first if tied else first - units
                    m = k - 1 if n == 0 else min(k - 1, (_BINADE_TOP - first) // n)
                    units, k = first + m * n, k - 1 - m
                    continue
                self._s, units = units * u, None
            s = self._s
            for a in addends:
                s += a
            self._s, k = s, k - 1
        self._units, self._u = units, u


def repeat_add(s: float, addends, k: int) -> float:
    """What `for _ in range(k): for a in addends: s += a` leaves, bit for bit
    (UlpSum)."""
    total = UlpSum(s)
    total.add(addends, k)
    return total.value()


def _round(units: int, u: float, addends) -> tuple[int, bool]:
    """A sum of units ulps u after one round of the addends, each rounded to
    the grid of u, a halfway one to an even sum, while it stays inside its
    binade, and whether one lay halfway; past _BINADE_TOP where an addend is
    negative or above the sum it is added to."""
    tied = False
    for a in addends:
        q = a / u  # exact, or far below a half: u is a power of two and q < 2**53
        if not 0.0 <= q <= units:
            return _BINADE_TOP + 1, tied
        whole = int(q)
        units += whole + (q - whole > 0.5)
        if q - whole == 0.5:
            units += units & 1
            tied = True
    return units, tied
