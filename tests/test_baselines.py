"""Baseline policies: fixed-share harvesting and a single pooled store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eamsim.apps import Profile, builtin_app
from eamsim.baselines import (
    POLICY_NAMES,
    central_app,
    central_bank,
    fh_capacity_fractions,
    fixed_split,
    pin_nml,
)
from eamsim.config import build_sim_config, load_config
from eamsim.detector import NO_ATTACK, AttackInfo
from eamsim.energy import (
    Capacitor,
    CapacitorBank,
    Component,
    energy_of,
    total_energy,
    voltage_of,
)
from eamsim.engine import init_sim, run
from eamsim.policy import PolicyParams, TaskState, init_scheduler, split_power
from conftest import CONFIGS, of_kind


def make_bank():
    return CapacitorBank(
        capacitors=[
            Capacitor(capacitance=33e-6, drain_fraction=1e-6, voltage=2.6),
            Capacitor(capacitance=220e-6, drain_fraction=1e-6, voltage=2.5),
        ],
        component_map={0: (Component.MCU, Component.SENSING), 1: (Component.ACTUATION,)},
    )


# ------------------------------------------------------------------ pin_nml


def test_pin_nml_ignores_attack_reports():
    hot = AttackInfo(ongoing=True, accuracy=1.0, elapsed=5.0, remaining=600.0)
    params = PolicyParams()
    assert pin_nml(NO_ATTACK, 0.0, params) is Profile.NML
    assert pin_nml(hot, 0.0, params) is Profile.NML
    assert pin_nml(hot, 1e9, params) is Profile.NML


def test_policy_names():
    assert POLICY_NAMES == ("eam", "fh", "central")


# ------------------------------------------------------------- fixed shares


def test_fh_capacity_fractions():
    fr = fh_capacity_fractions(make_bank())
    assert fr == (pytest.approx(33.0 / 253.0, rel=1e-12),
                  pytest.approx(220.0 / 253.0, rel=1e-12))
    assert sum(fr) == pytest.approx(1.0, rel=1e-12)


def test_fh_allocate_shares():
    sh = split_power(1e-3, fh_capacity_fractions(make_bank()))
    assert sh[0] == 1e-3 * (33.0 / 253.0)
    assert sum(sh) == pytest.approx(1e-3, rel=1e-12)
    assert all(s >= 0.0 for s in sh)


def test_fh_allocate_is_time_invariant():
    bank = make_bank()
    fractions = fh_capacity_fractions(bank)
    first = split_power(2e-4, fractions)
    bank.capacitors[0].voltage = 1.0  # stored charge must not matter
    assert fh_capacity_fractions(bank) == fractions
    assert split_power(2e-4, fractions) == first


def test_fh_hook_ignores_scheduler_state():
    bank = make_bank()
    app = builtin_app("hvac")
    state = init_scheduler(app, Profile.NML)
    allocate = fixed_split(fh_capacity_fractions(bank))
    fr, sh = allocate(state, app, bank, 1e-3, PolicyParams())
    assert fr == fh_capacity_fractions(bank)
    assert sh == split_power(1e-3, fr)
    # Making tasks hot must not move the split.
    for tid in state.states:
        state.states[tid] = TaskState.READY
    assert allocate(state, app, bank, 1e-3, PolicyParams()) == (fr, sh)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_fh_allocate_conserves_power(power):
    sh = split_power(power, fh_capacity_fractions(make_bank()))
    assert all(s >= 0.0 for s in sh)
    assert sum(sh) == pytest.approx(power, rel=1e-12, abs=1e-18)


# ------------------------------------------------------------- pooled store


def test_central_allocate_hook_routes_everything_to_the_pool():
    app = builtin_app("hvac")
    state = init_scheduler(app, Profile.NML)
    bank = central_bank(make_bank())
    assert fh_capacity_fractions(bank) == (1.0,)
    allocate = fixed_split(fh_capacity_fractions(bank))
    assert allocate(state, app, bank, 1e-3, PolicyParams()) == ((1.0,), (1e-3,))
    assert allocate(state, app, bank, 0.0, PolicyParams()) == ((1.0,), (0.0,))


def test_central_bank_merges_capacitance_and_energy():
    bank = make_bank()
    e_total = total_energy(bank)
    pooled = central_bank(bank)
    assert len(pooled.capacitors) == 1
    merged = pooled.capacitors[0]
    assert merged.capacitance == pytest.approx(253e-6, rel=1e-12)
    # Threshold geometry and loss model come from the first buffer.
    first = bank.capacitors[0]
    assert merged.v_on == first.v_on and merged.v_off == first.v_off
    assert merged.v_max == first.v_max
    assert merged.efficiency == first.efficiency
    assert merged.drain_fraction == first.drain_fraction
    # Stored energy carries over exactly (within the v_max ceiling).
    assert energy_of(merged) == pytest.approx(e_total, rel=1e-12)
    assert merged.voltage == pytest.approx(voltage_of(e_total, merged), rel=1e-12)
    # Every component now lives on the single buffer.
    assert pooled.component_map == {0: tuple(Component)}


def test_central_bank_clips_at_ceiling():
    bank = CapacitorBank(
        capacitors=[
            Capacitor(capacitance=100e-6, voltage=3.0, v_max=3.0),
            Capacitor(capacitance=100e-6, voltage=3.0, v_max=3.0),
        ],
        component_map={0: (Component.MCU,), 1: (Component.ACTUATION,)},
    )
    merged = central_bank(bank).capacitors[0]
    assert merged.voltage == 3.0  # sqrt(2E/C) would exceed v_max; clipped


def test_central_app_rehomes_tasks_to_buffer_zero():
    app = builtin_app("hvac")
    flat = central_app(app)
    assert flat.name == app.name
    assert flat.sink_task == app.sink_task
    assert [t.id for t in flat.tasks] == [t.id for t in app.tasks]
    assert all(t.buffer == 0 for t in flat.tasks)
    for orig, moved in zip(app.tasks, flat.tasks):
        assert moved.energy_cost == orig.energy_cost
        assert moved.duration == orig.duration
        assert moved.rates == orig.rates
        assert moved.predecessors == orig.predecessors


# ------------------------------------------------- attack-blindness, engine


@pytest.mark.parametrize("policy", ["fh", "central"])
def test_baselines_never_react_to_attacks(policy):
    cfg = load_config(CONFIGS / "compare_constant_300s.yaml")
    cfg["policy"] = policy
    report, log = run(build_sim_config(cfg))
    assert report.policy == policy
    # An attack window is in force, yet no profile change is ever logged.
    assert of_kind(log, "profile") == []
    init = of_kind(log, "init")[0]
    assert init[2] == policy
    assert report.completions > 0


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_the_engine_is_blind_to_reports_exactly_under_a_pinned_profile(policy):
    """The engine withholds the detector's report from the policies whose
    profile is pinned to NML, as such a profile reads none: fh and central,
    not eam."""
    cfg = load_config(CONFIGS / "compare_constant_300s.yaml")
    cfg["policy"] = policy
    sim = init_sim(build_sim_config(cfg))
    assert (sim.profile_fn is pin_nml) is (policy != "eam")
    assert sim.detector_blind is (sim.profile_fn is pin_nml)
