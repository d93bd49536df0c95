"""Baseline policies: fixed-share harvesting (FH) and a central capacitor.

Both baselines run the same release/dispatch scheduler as the mitigation
policy but pinned to the normal profile, and neither ever consults the attack
detector; they only differ in how energy storage is organised:

* FH keeps the federated bank and splits harvested power across buffers in
  fixed proportion to their capacitance, regardless of what tasks need.

* Central replaces the bank with a single capacitor holding the summed
  capacitance; every task and hardware component hangs off that one buffer.

Both pay the same per-slot decision cost as the mitigation policy so that
scheduling overhead never favours one side.
"""

from __future__ import annotations

import dataclasses

from .apps import AppSpec, Profile
from .detector import AttackInfo
from .energy import Capacitor, CapacitorBank, Component, fold_sum, set_energy, total_energy
from .policy import PolicyParams, split_power

POLICY_NAMES = ("eam", "fh", "central")


def pin_nml(info: AttackInfo, total: float, params: PolicyParams) -> Profile:
    """Baselines have no profile machinery; they always run NML."""
    return Profile.NML


def fh_capacity_fractions(bank: CapacitorBank) -> tuple[float, ...]:
    total = fold_sum(c.capacitance for c in bank.capacitors)
    return tuple(c.capacitance / total for c in bank.capacitors)


def fixed_split(fractions: tuple[float, ...]):
    """Allocation hook splitting the harvest by the same fractions every slot,
    whatever the scheduler state: fh_capacity_fractions of the run's bank,
    which for the central policy's one-buffer bank is (1.0,)."""

    def allocate(state, spec, bank, power, params):
        return fractions, split_power(power, fractions)

    return allocate


def central_bank(bank: CapacitorBank) -> CapacitorBank:
    """Merge a federated bank into one capacitor of the summed capacitance.

    Threshold voltages, efficiency and drain are taken from the first buffer;
    the merged buffer starts with the bank's total stored energy (capped at
    the merged capacity).  Every hardware component maps to the single buffer.
    """
    first = bank.capacitors[0]
    merged_c = fold_sum(c.capacitance for c in bank.capacitors)
    merged = Capacitor(
        capacitance=merged_c,
        efficiency=first.efficiency,
        drain_fraction=first.drain_fraction,
        v_on=first.v_on,
        v_off=first.v_off,
        v_max=first.v_max,
    )
    set_energy(merged, total_energy(bank))
    components = tuple(Component)
    return CapacitorBank(capacitors=[merged], component_map={0: components})


def central_app(spec: AppSpec) -> AppSpec:
    """Clone an application with every task drawing from buffer 0."""
    tasks = tuple(dataclasses.replace(t, buffer=0) for t in spec.tasks)
    return AppSpec(name=spec.name, tasks=tasks, sink_task=spec.sink_task)
