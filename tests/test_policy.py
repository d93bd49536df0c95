"""Mitigation policy: profile selection, task readiness, harvest allocation."""

import copy
import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from eamsim.apps import AppSpec, DataQueue, Profile, TaskSpec, Token, builtin_app
from eamsim.config import _build_params
from eamsim.detector import NO_ATTACK, AttackInfo, DetectorConfig, detect
from eamsim.energy import Capacitor, CapacitorBank, Component, drain, energy_of, usable_energy
import eamsim.engine as engine
from eamsim.engine import SimConfig, init_sim, run, step
from eamsim.policy import (
    PolicyError,
    PolicyParams,
    TaskState,
    allocate_harvest,
    apply_profile,
    build_active_set,
    energy_profile_slots,
    fire_releases,
    init_scheduler,
    is_ready,
    pick_execution_task,
    policy_step,
    released_tasks,
    select_profile,
    set_task_states,
    unready_slots,
)
from eamsim.traces import AttackScenario, synthesize_trace


def attack(remaining, accuracy=1.0):
    return AttackInfo(ongoing=True, accuracy=accuracy, elapsed=1.0, remaining=remaining)


def make_bank(v0=2.4, v1=2.4, c0=100e-6, c1=100e-6):
    return CapacitorBank(
        capacitors=[
            Capacitor(capacitance=c0, drain_fraction=1e-6, voltage=v0),
            Capacitor(capacitance=c1, drain_fraction=1e-6, voltage=v1),
        ],
        component_map={0: (Component.MCU, Component.SENSING), 1: (Component.ACTUATION,)},
    )


def simple_app(cost=50e-6, duration=10e-3, buffer=0, rates=None):
    task = TaskSpec(
        id="T", energy_cost=cost, duration=duration, buffer=buffer,
        rates=rates or {p: 30.0 for p in Profile},
    )
    return AppSpec(name="single", tasks=(task,), sink_task="T")


# ------------------------------------------------------------------- params


def test_policy_params_validation():
    for kw in [
        dict(alpha=-1.0),
        dict(omega0=2.0, omega1=1.0),
        dict(omega0=-1.0),
        dict(lambda_hi=0.1, lambda_lo=0.2),
        dict(lambda_lo=-0.1),
        dict(lambda_hi=0.0, lambda_lo=0.0),
        dict(decision_cost=-1e-9),
    ]:
        with pytest.raises(PolicyError):
            PolicyParams(**kw)


def test_params_for_bank_threshold_fractions():
    # Config thresholds are fractions of the bank's capacity (default 0.2/0.6).
    bank = make_bank()
    capacity = 2 * 0.5 * 100e-6 * 9.0
    p = _build_params(None, bank)
    assert p.omega0 == pytest.approx(0.2 * capacity, rel=1e-12)
    assert p.omega1 == pytest.approx(0.6 * capacity, rel=1e-12)


# -------------------------------------------------------- profile selection


GRID_PARAMS = PolicyParams(alpha=60.0, omega0=2.0, omega1=6.0)

# (ongoing, remaining, total energy) -> expected profile; remaining is a
# don't-care when no attack is reported, energy is a don't-care during one.
PROFILE_GRID = [
    (False, 30.0, 1.0, Profile.CTL),
    (False, 30.0, 4.0, Profile.LP),
    (False, 30.0, 9.0, Profile.NML),
    (False, 120.0, 1.0, Profile.CTL),
    (False, 120.0, 4.0, Profile.LP),
    (False, 120.0, 9.0, Profile.NML),
    (True, 30.0, 1.0, Profile.SA),
    (True, 30.0, 4.0, Profile.SA),
    (True, 30.0, 9.0, Profile.SA),
    (True, 120.0, 1.0, Profile.LA),
    (True, 120.0, 4.0, Profile.LA),
    (True, 120.0, 9.0, Profile.LA),
]


@pytest.mark.parametrize("ongoing,remaining,total,expected", PROFILE_GRID)
def test_profile_grid(ongoing, remaining, total, expected):
    info = attack(remaining) if ongoing else NO_ATTACK
    assert select_profile(info, total, GRID_PARAMS) is expected


def test_profile_boundaries():
    p = GRID_PARAMS
    assert select_profile(NO_ATTACK, p.omega1, p) is Profile.LP  # > is strict
    assert select_profile(NO_ATTACK, p.omega0, p) is Profile.LP  # < is strict
    assert select_profile(attack(p.alpha), 9.0, p) is Profile.SA  # > is strict


def test_profile_accuracy_gate():
    gated = PolicyParams(alpha=60.0, omega0=2.0, omega1=6.0,
                         accuracy_gate=True, accuracy_threshold=0.5)
    # Untrusted detector: fall back to the energy rules despite the attack.
    assert select_profile(attack(120.0, accuracy=0.4), 9.0, gated) is Profile.NML
    assert select_profile(attack(120.0, accuracy=0.4), 1.0, gated) is Profile.CTL
    assert select_profile(attack(120.0, accuracy=0.9), 1.0, gated) is Profile.LA
    # Threshold is strict: exactly-at-threshold accuracy is not trusted.
    assert select_profile(attack(120.0, accuracy=0.5), 9.0, gated) is Profile.NML


@given(
    st.booleans(),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_profile_partition(ongoing, remaining, total):
    info = attack(remaining) if ongoing else NO_ATTACK
    got = select_profile(info, total, GRID_PARAMS)
    if ongoing:
        assert got in (Profile.SA, Profile.LA)
    else:
        assert got in (Profile.NML, Profile.LP, Profile.CTL)


# ------------------------------------------------------------ scheduler core


def test_build_active_set_drops_disabled_tasks():
    rates = {Profile.NML: 10.0, Profile.LA: 0.0}
    t1 = TaskSpec(id="A", energy_cost=1e-6, duration=1e-3, buffer=0, rates=rates)
    t2 = TaskSpec(id="B", energy_cost=1e-6, duration=1e-3, buffer=0,
                  rates={Profile.NML: 5.0, Profile.LA: 5.0}, predecessors=("A",))
    app = AppSpec(name="x", tasks=(t1, t2), sink_task="B")
    active, r = build_active_set(app, Profile.NML)
    assert active == ["A", "B"] and r == {"A": 10.0, "B": 5.0}
    active, r = build_active_set(app, Profile.LA)
    assert active == ["B"] and r == {"B": 5.0}


def test_init_scheduler_state():
    app = builtin_app("hvac")
    st_ = init_scheduler(app, Profile.NML, now=5.0)
    assert st_.profile is Profile.NML
    assert all(s is TaskState.BLOCKED for s in st_.states.values())
    assert not any(st_.pending.values())
    assert all(st_.next_release[tid] == 5.0 for tid in st_.active)
    assert st_.periods["AC"] == 120.0


def test_fire_releases_is_periodic_without_backlog():
    app = simple_app()
    state = init_scheduler(app, Profile.NML, now=0.0)  # period 120 s
    assert fire_releases(state, 0.0) == ["T"]
    assert state.pending["T"]
    assert state.next_release["T"] == 120.0
    assert fire_releases(state, 60.0) == []
    # Jumping far past several due points fires once, without backlog.
    state.pending["T"] = False
    assert fire_releases(state, 600.0) == ["T"]
    assert state.next_release["T"] == 720.0


def test_set_task_states_energy_gate_no_attack():
    app = simple_app(cost=50e-6)
    bank = make_bank(v0=2.4)  # usable = 0.5*C*(v^2 - v_off^2) = 126 uJ
    state = init_scheduler(app, Profile.NML)
    fire_releases(state, 0.0)
    trans = set_task_states(state, bank, NO_ATTACK, {})
    assert trans == [("T", TaskState.BLOCKED, TaskState.READY)]
    # Repeat invocation: no state change, no transition records.
    assert set_task_states(state, bank, NO_ATTACK, {}) == []


def test_set_task_states_exact_cost_boundary():
    bank = make_bank(v0=2.4)
    cap = bank.capacitors[0]
    usable = 0.5 * cap.capacitance * (cap.voltage**2 - cap.v_off**2)
    app = simple_app(cost=usable)  # energy exactly equals the cost
    state = init_scheduler(app, Profile.NML)
    fire_releases(state, 0.0)
    # Idle: usable >= cost admits the task.
    set_task_states(state, bank, NO_ATTACK, {})
    assert state.states["T"] is TaskState.READY
    # Under attack the energy test is strict, so the same level is refused.
    state2 = init_scheduler(app, Profile.NML)
    fire_releases(state2, 0.0)
    set_task_states(state2, bank, attack(remaining=1000.0), {})
    assert state2.states["T"] is TaskState.BLOCKED


def test_set_task_states_attack_period_rule():
    app = simple_app(cost=10e-6)  # period 120 s at 30/h
    bank = make_bank(v0=2.4)

    def classify(remaining):
        state = init_scheduler(app, Profile.NML)
        fire_releases(state, 0.0)
        set_task_states(state, bank, attack(remaining), {})
        return state.states["T"]

    assert classify(120.0) is TaskState.BLOCKED  # remaining == period: refused
    assert classify(120.0 + 1e-6) is TaskState.READY
    assert classify(60.0) is TaskState.BLOCKED


def test_set_task_states_requires_release_and_data():
    t1 = TaskSpec(id="A", energy_cost=1e-6, duration=1e-3, buffer=0,
                  rates={Profile.NML: 30.0})
    t2 = TaskSpec(id="B", energy_cost=1e-6, duration=1e-3, buffer=1,
                  rates={Profile.NML: 30.0}, predecessors=("A",))
    app = AppSpec(name="x", tasks=(t1, t2), sink_task="B")
    bank = make_bank()
    queues = {("A", "B"): DataQueue(4)}

    state = init_scheduler(app, Profile.NML)
    set_task_states(state, bank, NO_ATTACK, queues)
    assert state.states["A"] is TaskState.BLOCKED  # no release fired yet

    fire_releases(state, 0.0)
    set_task_states(state, bank, NO_ATTACK, queues)
    assert state.states["A"] is TaskState.READY
    assert state.states["B"] is TaskState.BLOCKED  # released but starved of data

    queues[("A", "B")].push(Token(0, 0.0, frozenset({"A"})))
    set_task_states(state, bank, NO_ATTACK, queues)
    assert state.states["B"] is TaskState.READY


def test_set_task_states_skips_running_task():
    app = simple_app(cost=50e-6)
    bank = make_bank()
    state = init_scheduler(app, Profile.NML)
    fire_releases(state, 0.0)
    set_task_states(state, bank, NO_ATTACK, {})
    assert pick_execution_task(state, app, PolicyParams()) == "T"
    # Drain the buffer below cost; the running task must not be re-classified.
    bank.capacitors[0].voltage = bank.capacitors[0].v_off
    assert set_task_states(state, bank, NO_ATTACK, {}) == []
    assert state.states["T"] is TaskState.RUNNING


def test_pick_execution_task_order_and_bookkeeping():
    t1 = TaskSpec(id="A", energy_cost=1e-6, duration=2e-3, buffer=0,
                  rates={Profile.NML: 30.0})
    t2 = TaskSpec(id="B", energy_cost=1e-6, duration=3e-3, buffer=0,
                  rates={Profile.NML: 30.0})
    app = AppSpec(name="x", tasks=(t1, t2), sink_task="B")
    bank = make_bank()
    state = init_scheduler(app, Profile.NML)
    fire_releases(state, 0.0)
    set_task_states(state, bank, NO_ATTACK, {})
    assert state.states["A"] is TaskState.READY and state.states["B"] is TaskState.READY

    picked = pick_execution_task(state, app, PolicyParams())
    assert picked == "A"  # first Ready task in spec order
    assert state.executing == "A"
    assert state.exec_remaining == 2e-3
    assert state.pending["A"] is False
    # One core: nothing else may start while A runs.
    assert pick_execution_task(state, app, PolicyParams()) is None


def test_pick_execution_task_edf_order():
    t1 = TaskSpec(id="A", energy_cost=1e-6, duration=2e-3, buffer=0,
                  rates={Profile.NML: 30.0})
    t2 = TaskSpec(id="B", energy_cost=1e-6, duration=3e-3, buffer=0,
                  rates={Profile.NML: 30.0})
    app = AppSpec(name="x", tasks=(t1, t2), sink_task="B")
    bank = make_bank()
    params = PolicyParams(edf_order=True)
    state = init_scheduler(app, Profile.NML)
    fire_releases(state, 0.0)
    set_task_states(state, bank, NO_ATTACK, {})
    state.next_release["A"] = 240.0  # B's next deadline is nearer
    state.next_release["B"] = 120.0
    assert pick_execution_task(state, app, params) == "B"


# --------------------------------------------------------------- allocation


def two_buffer_state(hot0=False, hot1=False):
    t1 = TaskSpec(id="A", energy_cost=1e-6, duration=1e-3, buffer=0,
                  rates={Profile.NML: 30.0})
    t2 = TaskSpec(id="B", energy_cost=1e-6, duration=1e-3, buffer=1,
                  rates={Profile.NML: 30.0})
    app = AppSpec(name="x", tasks=(t1, t2), sink_task="B")
    state = init_scheduler(app, Profile.NML)
    if hot0:
        state.states["A"] = TaskState.READY
    if hot1:
        state.states["B"] = TaskState.READY
    return app, state


def test_allocate_weights_follow_task_states():
    bank = make_bank()
    params = PolicyParams()  # lambda 0.8 / 0.2

    app, state = two_buffer_state(hot0=True, hot1=False)
    fr, sh = allocate_harvest(state, app, bank, 1e-3, params)
    assert fr == (0.8, 0.2)
    assert sh[0] == 0.8e-3 and sh[0] + sh[1] == pytest.approx(1e-3, rel=1e-12)

    app, state = two_buffer_state(hot0=True, hot1=True)
    fr, _ = allocate_harvest(state, app, bank, 1e-3, params)
    assert fr == (0.5, 0.5)

    app, state = two_buffer_state()  # nothing Ready or Running
    fr, _ = allocate_harvest(state, app, bank, 1e-3, params)
    assert fr == (0.5, 0.5)  # both blocked: lambda_lo each, normalised


def test_allocate_normalises_by_a_left_to_right_sum():
    """Three weights 0.8, 0.2, 0.2 add up to 1.2 left to right, and to
    1.2000000000000002 under Python 3.12's compensated sum(), which would
    move every fraction; the run's artifacts must not depend on the Python
    version."""
    tasks = tuple(TaskSpec(id=tid, energy_cost=1e-6, duration=1e-3, buffer=b,
                           rates={Profile.NML: 30.0}) for b, tid in enumerate("ABC"))
    app = AppSpec(name="x", tasks=tasks, sink_task="C")
    state = init_scheduler(app, Profile.NML)
    state.states["A"] = TaskState.READY
    bank = CapacitorBank(capacitors=[Capacitor(capacitance=100e-6) for _ in range(3)])
    fr, _ = allocate_harvest(state, app, bank, 1e-3, PolicyParams())
    expected = (0.6666666666666667, 0.16666666666666669, 0.16666666666666669)
    assert [f.hex() for f in fr] == [f.hex() for f in expected]


def test_allocate_ignores_unreferenced_buffer():
    app, state = two_buffer_state(hot0=True, hot1=True)
    bank = CapacitorBank(
        capacitors=[Capacitor(capacitance=100e-6, voltage=2.0) for _ in range(3)],
        component_map={0: (Component.MCU,)},
    )
    fr, sh = allocate_harvest(state, app, bank, 1e-3, PolicyParams())
    assert fr[2] == 0.0 and sh[2] == 0.0
    assert fr == (0.5, 0.5, 0.0)


def test_allocate_with_no_active_tasks_splits_evenly():
    # A profile that disables every task must not drop the harvest.
    rates = {Profile.NML: 30.0, Profile.LA: 0.0}
    task = TaskSpec(id="A", energy_cost=1e-6, duration=1e-3, buffer=0, rates=rates)
    app = AppSpec(name="x", tasks=(task,), sink_task="A")
    state = init_scheduler(app, Profile.LA)
    fr, sh = allocate_harvest(state, app, make_bank(), 1e-3, PolicyParams())
    assert fr == (0.5, 0.5)
    assert sum(sh) == pytest.approx(1e-3, rel=1e-12)


def test_allocate_zero_lambda_lo_falls_back_to_even_split():
    app, state = two_buffer_state()  # nothing hot
    params = PolicyParams(lambda_hi=0.8, lambda_lo=0.0)
    fr, sh = allocate_harvest(state, app, make_bank(), 1e-3, params)
    assert fr == (0.5, 0.5)  # even split instead of dropping the power
    assert sum(sh) == pytest.approx(1e-3, rel=1e-12)


def test_allocate_follows_state_and_power_changes():
    bank = make_bank()
    params = PolicyParams()
    app, state = two_buffer_state(hot0=True)
    first = allocate_harvest(state, app, bank, 1e-3, params)
    again = allocate_harvest(state, app, bank, 1e-3, params)
    assert again == first
    # Changing the hot set moves the split.
    state.states["B"] = TaskState.RUNNING
    fr, _ = allocate_harvest(state, app, bank, 1e-3, params)
    assert fr == (0.5, 0.5)
    # Changing only the power recomputes the shares.
    _, sh = allocate_harvest(state, app, bank, 2e-3, params)
    assert sum(sh) == pytest.approx(2e-3, rel=1e-12)


@given(
    st.booleans(), st.booleans(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_allocate_conserves_power(hot0, hot1, power, hi, lo_frac):
    lo = hi * lo_frac
    params = PolicyParams(lambda_hi=hi, lambda_lo=lo)
    app, state = two_buffer_state(hot0=hot0, hot1=hot1)
    fr, sh = allocate_harvest(state, app, make_bank(), power, params)
    assert all(s >= 0.0 for s in sh)
    assert all(f >= 0.0 for f in fr)
    assert sum(fr) == pytest.approx(1.0, rel=1e-12)
    assert sum(sh) == pytest.approx(power, rel=1e-12, abs=1e-18)


# ----------------------------------------------------------- profile change


def assert_fires_as_a_full_scan(state, *times):
    """fire_releases at each of times fires what a scan of every active
    task fires, as it did when apply_profile left it nothing to skip, and
    leaves the same schedule."""
    for now in times:
        fast, scan = copy.deepcopy(state), copy.deepcopy(state)
        scan._next_fire = -math.inf
        assert fire_releases(fast, now) == fire_releases(scan, now)
        assert (fast.next_release, fast.pending) == (scan.next_release, scan.pending)
        assert fast._next_fire == scan._next_fire


def test_apply_profile_rephases_releases():
    rates_a = {Profile.NML: 30.0, Profile.SA: 0.0}  # disabled under SA and LA
    rates_b = {Profile.NML: 30.0, Profile.SA: 8.0, Profile.LA: 4.0}
    t1 = TaskSpec(id="A", energy_cost=1e-6, duration=1e-3, buffer=0, rates=rates_a)
    t2 = TaskSpec(id="B", energy_cost=1e-6, duration=1e-3, buffer=0, rates=rates_b)
    app = AppSpec(name="x", tasks=(t1, t2), sink_task="B")

    def next_fire_is_the_earliest_release():
        return state._next_fire == min(state.next_release[tid] for tid in state.active)

    state = init_scheduler(app, Profile.SA, now=0.0)  # only B active
    assert state.active == ["B"]
    assert fire_releases(state, 0.0) == ["B"]  # next at 450 s
    # SA -> LA keeps the set: B keeps its release, 450 < 5 + 900.
    apply_profile(state, Profile.LA, now=5.0)
    assert state.active == ["B"] and state.next_release["B"] == 450.0
    assert next_fire_is_the_earliest_release()
    assert_fires_as_a_full_scan(state, 5.0, 449.0, 450.0, 2000.0)
    assert fire_releases(state, 450.0) == ["B"]  # next at 1350 s
    # LA -> SA: B never waits longer than one SA period, 500 + 450.
    apply_profile(state, Profile.SA, now=500.0)
    assert state.next_release["B"] == 950.0
    assert next_fire_is_the_earliest_release()
    assert_fires_as_a_full_scan(state, 500.0, 949.0, 950.0)

    apply_profile(state, Profile.NML, now=510.0)
    assert state.active == ["A", "B"]
    assert state.next_release["A"] == 510.0  # newly enabled: release immediately
    # B keeps its schedule, clipped to one new period out.
    assert state.next_release["B"] <= 510.0 + 120.0
    assert next_fire_is_the_earliest_release()
    assert_fires_as_a_full_scan(state, 510.0, 629.0, 630.0)

    fire_releases(state, 510.0)
    assert state.pending["A"]
    apply_profile(state, Profile.SA, now=520.0)
    assert state.pending["A"] is False  # excluded tasks lose pending releases
    assert state.profile is Profile.SA
    assert next_fire_is_the_earliest_release()
    assert_fires_as_a_full_scan(state, 520.0, 629.0, 630.0)


# A nonzero gap between two of the sums below is at least 2**-1074, as each
# is a sum of integer multiples of floats; a point _EPS inside an end of a
# move's range is on that end's side of every threshold.
_EPS = Fraction(1, 2**1100)


@st.composite
def energy_rule_cases(draw):
    """Thresholds omega0 <= omega1, a stored total near either of them or
    anywhere, and a positive bound on the rise and on the fall per slot.
    Totals up to 1e3 J and bounds from 1e-12 J keep every horizon below
    2**50 slots, where energy_profile_slots is exact."""
    energy = st.floats(0.0, 1e3)
    omega0, omega1 = sorted((draw(energy), draw(energy)))
    near = st.sampled_from([omega0, omega1]).flatmap(
        lambda w: st.builds(lambda scale, frac: w + scale * frac,
                            st.sampled_from([1e-300, 1e-12, 1e-3, 1.0]), st.floats(-1.0, 1.0)))
    total = draw(near | energy)
    step = st.floats(1e-12, 1e3) | st.sampled_from([1e-12, 2.0**-10, 0.5])
    return max(total, 0.0), PolicyParams(omega0=omega0, omega1=omega1), draw(step), draw(step)


def energy_rule(total, params):
    return select_profile(NO_ATTACK, total, params)


# 1.0 - _ROUNDS_UP rounds up to 1.0, so flooring the rounded gap over a
# step of 2**-10 or 1.0 counts one slot too many; 1.0 - _ROUNDS_DOWN rounds
# down, and over _FIFTH_DOWN (0.2's float less an ulp) it counts one too few.
_ROUNDS_UP, _ROUNDS_DOWN = 2.0**-54 - 2.0**-80, 2.0**-54 + 2.0**-80
_FIFTH_DOWN = float.fromhex("0x1.9999999999999p-3")


@given(energy_rule_cases(), st.floats(0.0, 1.0))
@example((1.0, PolicyParams(omega0=_ROUNDS_UP, omega1=_ROUNDS_UP), 1.0, 2.0**-10), 0.5)
@example((1.0, PolicyParams(omega0=_ROUNDS_UP, omega1=_ROUNDS_UP), 1.0, 1.0), 0.0)
@example((1.0, PolicyParams(omega0=_ROUNDS_DOWN, omega1=_ROUNDS_DOWN), 1.0, _FIFTH_DOWN), 0.0)
@example((_ROUNDS_UP, PolicyParams(omega0=1.0, omega1=1.0), 2.0**-10, 1.0), 0.0)
@example((_ROUNDS_DOWN, PolicyParams(omega0=1.0, omega1=2.0), _FIFTH_DOWN, 1.0), 0.0)
@example((1.0, PolicyParams(omega0=_ROUNDS_DOWN, omega1=2.0), 1.0, _FIFTH_DOWN), 0.0)
def test_energy_profile_slots_is_the_exact_horizon_of_the_energy_rule(case, frac):
    """energy_profile_slots(total, ...) = k: a total that moves by less than
    rise up and fall down per slot keeps select_profile's energy-rule answer
    over k slots, and k + 1 slots can change it.  Each profile holds an
    interval of totals, so the answer stays over j slots exactly when it
    holds just inside both ends of (total - j * fall, total + j * rise),
    computed in exact rationals."""
    total, params, rise, fall = case
    k = energy_profile_slots(total, params, rise, fall)
    assert 0.0 <= k < 2**50 and k == int(k)
    answer = energy_rule(total, params)

    def answers_within(j):
        low = Fraction(total) - j * Fraction(fall)
        high = Fraction(total) + j * Fraction(rise)
        return {energy_rule(low + _EPS, params), energy_rule(high - _EPS, params)}

    for j in {j for j in (1, int(frac * k), int(k)) if 0 < j <= k}:
        assert answers_within(j) == {answer}, j
    assert answers_within(int(k) + 1) != {answer}


@st.composite
def readiness_cases(draw):
    """An eam run of 0.01 s slots whose one task, on buffer b of one to
    three buffers, is released on slot 0 at the same period in every
    profile.  Its buffer leaks nothing or a little and may pay the decision
    cost; the harvest is constant.  Half the runs have no attack, so the
    task waits for energy; the other half have an attack from t = 0 to at
    most 3 s, reported from its start with or without noise, under which
    the harvest is dead and a funded task waits for the remaining time to
    exceed its period of 0.1 to 10 s."""
    n = draw(st.integers(1, 3))
    b = draw(st.integers(0, n - 1))
    leak = draw(st.sampled_from([0.0, 0.0, 1e-6]))
    caps = [Capacitor(capacitance=draw(st.floats(47e-6, 470e-6)),
                      efficiency=draw(st.floats(0.5, 1.0)), drain_fraction=leak,
                      v_on=2.0, v_off=1.0, v_max=4.0, voltage=draw(st.floats(1.0, 4.0)))
            for _ in range(n)]
    rate = draw(st.sampled_from([360.0, 1800.0, 7200.0, 36000.0]))
    task = TaskSpec(id="T0", energy_cost=draw(st.floats(1e-6, 400e-6)), duration=0.01,
                    buffer=b, rates={p: rate for p in Profile})
    attacks = ([AttackScenario(0.0, draw(st.floats(0.05, 3.0)), "long", "a0")]
               if draw(st.booleans()) else [])
    return SimConfig(
        trace=synthesize_trace("constant", amplitude=draw(st.floats(1.0, 4.0)), length=30.0,
                               interval=1.0),
        app=AppSpec(name="wait", tasks=(task,), sink_task="T0"),
        bank=CapacitorBank(capacitors=caps,
                           component_map={k: (c,) for k, c in zip(range(n), Component)}),
        params=PolicyParams(decision_cost=draw(st.sampled_from([0.0, 0.0, 1.781e-9]))),
        detector=DetectorConfig(remaining_time_error=draw(st.sampled_from([0.0, 0.0, 0.3])),
                                rng_seed=draw(st.integers(0, 100))),
        attacks=attacks,
        policy="eam",
        dt=0.01,
        horizon=30.0,
        timeline_stride=0,
    )


_STEPS = 2_000  # slots stepped at most past a horizon


def waiting_under_a_report(duration, noise=0.0, seed=0):
    """A task at a period of 0.5 s, released on slot 0, whose buffer slot
    0's harvest of 3 µJ funds from slot 1 on, under a report from slot 1
    (t = 0.01 s) of an attack lasting duration."""
    cost, v_off = 100e-6, 1.0
    cap = Capacitor(capacitance=100e-6, efficiency=1.0, drain_fraction=0.0, v_on=2.0,
                    v_off=v_off, v_max=4.0)
    cap.voltage = math.sqrt(v_off * v_off + 2.0 * (cost - 1.5e-6) / cap.capacitance)
    task = TaskSpec(id="T0", energy_cost=cost, duration=0.01, buffer=0,
                    rates={p: 7200.0 for p in Profile})
    return SimConfig(
        trace=synthesize_trace("constant", amplitude=3.0, length=30.0, interval=1.0),
        app=AppSpec(name="wait", tasks=(task,), sink_task="T0"),
        bank=CapacitorBank(capacitors=[cap], component_map={0: (Component.MCU,)}),
        params=PolicyParams(decision_cost=0.0),
        detector=DetectorConfig(remaining_time_error=noise, rng_seed=seed),
        attacks=[AttackScenario(0.01, duration, "long", "a0")],
        policy="eam", dt=0.01, horizon=30.0, timeline_stride=0,
    )


def test_unready_slots_is_the_horizon_of_the_readiness_rule():
    """unready_slots(task, bank, info, rise) = h after slot 0 released the
    task, which is_ready turns down on slot i = 1: over the next h slots,
    stepped with engine.step, is_ready keeps turning it down, as the buffer
    gains less than rise per slot, its eta * share * dt plus _next_check's
    slack for rounding.  It is exact in two cases, where the answer must
    change on the slot after the horizon.  With no report, no leak and no
    decision drain on the task's buffer, the buffer gains eta * share * dt
    each slot, rounding aside: where the energy deficit is not within 1% of
    a whole number of gains and the buffer does not clip, slot i + h + 1
    funds the task.  Under a noise-free report with the task funded and
    neither leak nor drain, its period alone holds it: the remaining time
    only shrinks, so h is infinite, and the first slot after the window
    admits it.  Each exact case is drawn at least three times."""
    exact_cases = {"energy": 0, "period": 0}

    @given(readiness_cases())
    @example(waiting_under_a_report(0.5))  # 0.5 s left on slot 1: the period, not above it
    @example(waiting_under_a_report(0.55, 0.3, 3))  # the noise turns it down on slot 1 only
    def check(config):
        sim = init_sim(config)
        step(sim)
        i, dt = sim.i, config.dt

        def report(j):
            return detect(j * dt, config.attacks, config.detector)

        waiting = released_tasks(sim.sched, sim.queues)
        info = report(i)
        assume(waiting and not is_ready(waiting[0], sim.bank, info))
        task = waiting[0]
        b, cost = task[1], task[2]
        cap, (_, keep, _, eta, capacity, _, _) = sim.bank.capacitors[b], sim.buffer_constants[b]
        power = sim.run_powers[-1]  # the harvest outside the attack
        gain = eta * sim.allocate_fn(sim.sched, sim.app, sim.bank, power, sim.params)[1][b] * dt
        assume(gain > 0.0)
        h = unready_slots(task, sim.bank, info, gain + engine._SLACK * capacity)
        still = keep == 1.0 and (b != 0 or config.params.decision_cost == 0.0)
        deficit = cost - usable_energy(cap)
        if info.ongoing:
            window_end = next(j for j in range(i, sim.n_slots) if not report(j).ongoing)
            exact = still and deficit < 0.0 and config.detector.remaining_time_error == 0.0
            last, change = min(h, window_end - 1 - i), min(i + h + 1, window_end)
        else:
            room = usable_energy(dataclasses.replace(cap, voltage=cap.v_max)) - cost
            gains = deficit / gain
            exact = (still and 0.01 < gains - math.floor(gains) < 0.99 and h < _STEPS
                     and room > 2 * gain)
            last, change = min(h, _STEPS), i + h + 1
        for j in range(1, int(last) + 1):
            step(sim)
            assert not is_ready(task, sim.bank, report(i + j)), j
        if exact:
            exact_cases["period" if info.ongoing else "energy"] += 1
            while sim.i < change:
                step(sim)
            assert is_ready(task, sim.bank, report(change))

    check()
    assert min(exact_cases.values()) >= 3, exact_cases


# ---------------------------------------------------------------- full step


def test_policy_step_composition_and_decision_drain():
    app = builtin_app("hvac")
    bank = make_bank(v0=2.6, v1=2.6)
    params = PolicyParams(omega0=0.0, omega1=0.0)
    state = init_scheduler(app, Profile.NML)
    queues = {edge: DataQueue(4) for edge in app.edges}

    e0_before = energy_of(bank.capacitors[0])
    rec = policy_step(state, app, bank, NO_ATTACK, queues, params,
                      now=0.0, power=1e-3)
    assert rec.profile is Profile.NML and not rec.profile_changed
    assert set(rec.fired) == {"TS", "HS", "D", "AC"}
    assert rec.started == "TS"  # first Ready task in spec order
    assert energy_of(bank.capacitors[0]) == e0_before  # the engine drains, not the policy
    assert drain(bank.capacitors[0], params.decision_cost) == params.decision_cost
    assert energy_of(bank.capacitors[0]) == pytest.approx(
        e0_before - params.decision_cost, rel=1e-9
    )
    # Sensing work is hot on buffer 0; actuation is released but data-starved.
    assert rec.weights == (0.8, 0.2)
    assert rec.shares[0] == 0.8e-3


def test_policy_step_switches_profile_under_attack():
    app = builtin_app("hvac")
    bank = make_bank()
    params = _build_params(None, bank)
    state = init_scheduler(app, Profile.NML)
    queues = {edge: DataQueue(4) for edge in app.edges}
    rec = policy_step(state, app, bank, attack(remaining=30.0), queues, params,
                      now=0.0, power=1e-3)
    assert rec.profile is Profile.SA and rec.profile_changed
    rec = policy_step(state, app, bank, attack(remaining=300.0), queues, params,
                      now=0.025, power=1e-3)
    assert rec.profile is Profile.LA and rec.profile_changed


def test_policy_step_decision_drain_floors_at_zero():
    app = simple_app()
    bank = CapacitorBank(
        capacitors=[Capacitor(capacitance=100e-6, voltage=0.0),
                    Capacitor(capacitance=100e-6, voltage=2.0)],
        component_map={0: (Component.MCU,)},
    )
    params = PolicyParams()
    assert drain(bank.capacitors[0], params.decision_cost) == 0.0  # nothing to take
    assert bank.capacitors[0].voltage == 0.0
    # Over a run, the decision_drained ledger entry holds what was taken: nothing.
    report, log = run(SimConfig(
        trace=synthesize_trace("constant", 0.0, length=1.0, interval=1.0),
        app=app, bank=bank, params=params, dt=1e-3, horizon=0.01,
    ))
    assert report.overhead_invocations == 10
    assert log.totals["decision_drained"] == 0.0
    assert len(log.timeline_v) == 2 * 10  # row-major: a voltage per buffer, a row per slot
    assert log.timeline_v[0::2].tolist() == [0.0] * 10
