"""Energy-buffer model: the slot update (the one charge and leak law), withdrawals."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eamsim.energy import (
    Capacitor,
    CapacitorBank,
    Component,
    EnergyModelError,
    capacity_of,
    energy_at,
    energy_of,
    set_soc,
    slot_constants,
    slot_update,
    total_capacity,
    total_energy,
    voltage_of,
    withdraw,
)


def default_bank(initial_soc: float = 1.0) -> CapacitorBank:
    """Two-buffer reference bank: 33 uF for MCU+sensing, 220 uF for actuation,
    every buffer at initial_soc of its capacity."""
    if not 0 <= initial_soc <= 1:
        raise EnergyModelError("initial_soc must be in [0, 1]")
    caps = [Capacitor(capacitance=33e-6), Capacitor(capacitance=220e-6)]
    for cap in caps:
        set_soc(cap, initial_soc)
    return CapacitorBank(
        capacitors=caps,
        component_map={
            0: (Component.MCU, Component.SENSING),
            1: (Component.ACTUATION,),
        },
    )


def make_cap(c=100e-6, v=0.0, **kw):
    return Capacitor(capacitance=c, voltage=v, **kw)


def step(cap, power, dt):
    """One slot of slot_update on a one-buffer bank; returns E'."""
    return slot_update((cap,), (slot_constants(cap),), (power,), dt, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(capacitance=0.0),
        dict(capacitance=-1e-6),
        dict(capacitance=math.inf),
        dict(capacitance=1e-6, efficiency=0.0),
        dict(capacitance=1e-6, efficiency=1.1),
        dict(capacitance=1e-6, drain_fraction=-0.1),
        dict(capacitance=1e-6, drain_fraction=1.0),
        dict(capacitance=1e-6, v_off=2.5),  # v_off >= v_on
        dict(capacitance=1e-6, v_on=3.5),  # v_on > v_max
        dict(capacitance=1e-6, voltage=3.5),  # above v_max
        dict(capacitance=1e-6, voltage=-0.1),
    ],
)
def test_capacitor_rejects_bad_parameters(kw):
    with pytest.raises(EnergyModelError):
        Capacitor(**kw)


def test_energy_helpers():
    cap = make_cap(v=3.0)
    assert energy_of(cap) == 0.5 * 100e-6 * 9.0
    assert capacity_of(cap) == energy_of(cap)  # at v_max
    assert energy_at(cap, 1.8) == 0.5 * 100e-6 * 1.8 * 1.8
    with pytest.raises(EnergyModelError):
        voltage_of(-1e-9, cap)


@given(st.floats(min_value=0.0, max_value=3.0))
def test_voltage_energy_roundtrip(v):
    cap = make_cap(v=v)
    assert voltage_of(energy_of(cap), cap) == pytest.approx(v, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------- slot update


def test_slot_update_hand_example():
    # E' = (1 - sigma) E + eta P dt with sigma=0.1, eta=0.8, E=10 mJ,
    # P=5 mW, dt=1 s  ->  0.9*10 + 0.8*5 = 13 mJ.
    cap = Capacitor(capacitance=3e-3, efficiency=0.8, drain_fraction=0.1)
    cap.voltage = voltage_of(10e-3, cap)
    e_in = energy_of(cap)
    e_out = step(cap, 5e-3, 1.0)
    assert e_out == (1.0 - 0.1) * e_in + 0.8 * 5e-3 * 1.0  # bit-for-bit
    assert e_out == pytest.approx(13e-3, rel=1e-12)


def test_slot_update_oracle_bitwise():
    # Independent one-line evaluation of the slot update, clamp-free region.
    rng = random.Random(99)
    for _ in range(1000):
        c = rng.uniform(10e-6, 1e-3)
        sigma = rng.uniform(0.0, 0.5)
        eta = rng.uniform(0.1, 1.0)
        v = rng.uniform(0.0, 2.6)
        p = rng.uniform(0.0, 1e-4)
        dt = rng.uniform(1e-4, 0.5)
        cap = Capacitor(capacitance=c, efficiency=eta, drain_fraction=sigma, voltage=v)
        expected = (1.0 - sigma) * (0.5 * c * v * v) + eta * p * dt
        assert expected <= capacity_of(cap)  # stay clamp-free
        got = step(cap, p, dt)
        assert got == expected
        assert cap.voltage == min(math.sqrt(2.0 * expected / c), cap.v_max)


def test_slot_update_ceiling_clip():
    cap = make_cap(v=2.9)
    e = step(cap, 1.0, 1.0)
    assert e == capacity_of(cap)
    assert cap.voltage == cap.v_max


# -------------------------------------------------------------- withdrawals


def test_withdraw_floors_exactly_at_voff():
    # Power-of-two values keep the arithmetic exact: E = 2.25 J, floor 0.25 J.
    def fresh():
        return Capacitor(capacitance=0.5, v_off=1.0, v_on=2.0, v_max=4.0, voltage=3.0)

    cap = fresh()
    assert withdraw(cap, 2.0) is True  # landing exactly on the floor is fine
    assert cap.voltage == 1.0

    cap2 = fresh()
    assert withdraw(cap2, 2.0 + 1e-12) is False
    assert cap2.voltage == 3.0  # failed withdrawal leaves the buffer untouched


def test_withdraw_zero_and_negative():
    cap = make_cap(v=2.0)
    assert withdraw(cap, 0.0) is True
    assert cap.voltage == 2.0
    with pytest.raises(EnergyModelError):
        withdraw(cap, -1e-9)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=500e-6),
)
def test_withdraw_never_breaks_the_floor(v, amount):
    cap = make_cap(v=v)
    before = energy_of(cap)
    ok = withdraw(cap, amount)
    if ok and amount > 0.0:
        # A real withdrawal only succeeds if the buffer stays at/above v_off.
        assert energy_of(cap) >= energy_at(cap, cap.v_off) - 1e-18
        assert energy_of(cap) == pytest.approx(before - amount, rel=1e-9, abs=1e-15)
    else:
        assert cap.voltage == v  # zero amount or refusal: buffer untouched


# --------------------------------------------------------------------- bank


def test_bank_component_lookup_and_totals():
    bank = default_bank(initial_soc=1.0)
    assert len(bank) == 2
    assert [c.capacitance for c in bank.capacitors] == [33e-6, 220e-6]
    assert bank.component_map == {
        0: (Component.MCU, Component.SENSING),
        1: (Component.ACTUATION,),
    }
    assert total_energy(bank) == sum(energy_of(c) for c in bank.capacitors)
    assert total_capacity(bank) == pytest.approx(0.5 * (33e-6 + 220e-6) * 9.0)


def test_default_bank_soc_scaling():
    bank = default_bank(initial_soc=0.25)
    for cap in bank.capacitors:
        assert energy_of(cap) == pytest.approx(0.25 * capacity_of(cap), rel=1e-12)
    with pytest.raises(EnergyModelError):
        default_bank(initial_soc=1.5)


def test_bank_validation():
    with pytest.raises(EnergyModelError):
        CapacitorBank(capacitors=[])
    with pytest.raises(EnergyModelError):
        CapacitorBank(capacitors=[make_cap()], component_map={1: (Component.MCU,)})
    bank = CapacitorBank(capacitors=[make_cap()])
    assert bank.component_map == {}  # no buffer powers any component
