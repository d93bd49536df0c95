"""Property tests over random valid configurations: every run finishes, its
energy ledger balances, the MCU runs at most one task, and every task start
was funded by its buffer; engine.run, which skips the policy on quiet slots,
batches the slots its bounds prove quiet and replays the slots that repeat
an exact fixed point, gives exactly what stepping every slot gives."""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamsim.apps import AppSpec, Profile, TaskSpec
from eamsim.detector import DetectorConfig
from eamsim.energy import Capacitor, CapacitorBank, Component, energy_at
import eamsim.engine as engine
from eamsim.engine import SimConfig, _finalize, init_sim, run, step, validate_config
from eamsim.policy import PolicyParams
from eamsim.traces import LOAD_RESISTANCE, AttackScenario, EnergyTrace, synthesize_trace
from conftest import assert_run_matches_steps, full_bank_config, of_kind

HORIZON = 20.0  # s
DT = 0.01  # s


@st.composite
def capacitors(draw):
    v_max = draw(st.floats(2.0, 5.0))
    v_on = v_max * draw(st.floats(0.3, 1.0))
    v_off = v_on * draw(st.floats(0.0, 0.95))
    return Capacitor(
        capacitance=draw(st.floats(10e-6, 1000e-6)),
        efficiency=draw(st.floats(0.1, 1.0)),
        drain_fraction=draw(st.floats(0.0, 0.01)),
        v_on=v_on,
        v_off=v_off,
        v_max=v_max,
        voltage=v_max * draw(st.floats(0.0, 1.0)),
    )


RATES = (0.0, 360.0, 1800.0, 7200.0, 36000.0)  # per hour


@st.composite
def chains(draw, n_buffers, rates=RATES):
    """A chain T0 -> T1 -> ... of one to four tasks."""
    n = draw(st.integers(1, 4))
    rate = st.sampled_from(rates)
    tasks = tuple(
        TaskSpec(
            id=f"T{k}",
            energy_cost=draw(st.floats(1e-6, 200e-6)),
            duration=draw(st.floats(1e-3, 0.1)),
            buffer=draw(st.integers(0, n_buffers - 1)),
            rates={p: draw(rate) for p in Profile},
            predecessors=(f"T{k - 1}",) if k else (),
        )
        for k in range(n)
    )
    return AppSpec(name="chain", tasks=tasks, sink_task=tasks[-1].id)


@st.composite
def attack_lists(draw):
    """Zero to three disjoint attack windows inside the horizon."""
    attacks, t = [], 0.0
    for k in range(draw(st.integers(0, 3))):
        start = t + draw(st.floats(0.0, 5.0))
        duration = draw(st.floats(0.05, 5.0))
        attacks.append(
            AttackScenario(start, duration, draw(st.sampled_from(["short", "long"])), f"a{k}")
        )
        t = start + duration
    return attacks


@st.composite
def sim_configs(draw):
    caps = draw(st.lists(capacitors(), min_size=1, max_size=3))
    bank = CapacitorBank(
        capacitors=caps,
        component_map={b: (c,) for b, c in zip(range(len(caps)), Component)},
    )
    capacity = sum(energy_at(c, c.v_max) for c in caps)
    omega0 = capacity * draw(st.floats(0.0, 0.5))
    return SimConfig(
        trace=synthesize_trace(
            draw(st.sampled_from(["constant", "sinusoid", "step"])),
            amplitude=draw(st.floats(0.0, 4.0)),
            length=HORIZON,
            interval=draw(st.sampled_from([0.1, 1.0])),
            period=draw(st.floats(1.0, 30.0)),
        ),
        app=draw(chains(len(caps))),
        bank=bank,
        params=PolicyParams(
            alpha=draw(st.floats(0.0, 10.0)),
            omega0=omega0,
            omega1=omega0 + capacity * draw(st.floats(0.0, 0.5)),
            lambda_lo=draw(st.floats(0.0, 0.5)),
            decision_cost=draw(st.floats(0.0, 1e-6)),
        ),
        detector=DetectorConfig(
            detection_delay=draw(st.floats(0.0, 2.0)),
            remaining_time_error=draw(st.floats(0.0, 0.5)),
            rng_seed=draw(st.integers(0, 100)),
        ),
        attacks=draw(attack_lists()),
        policy=draw(st.sampled_from(["eam", "fh", "central"])),
        dt=DT,
        horizon=HORIZON,
        timeline_stride=0,
        equal_budget=draw(st.booleans()),
        budget_soc=draw(st.none() | st.floats(0.0, 1.0)),
    )


@settings(max_examples=100)
@given(sim_configs())
def test_random_valid_configs_balance_and_schedule_soundly(config):
    assert validate_config(config) == []
    sim = init_sim(config)
    while sim.i < sim.n_slots:
        step(sim)
    _, log = _finalize(sim)

    t = log.totals
    residual = (
        t["e_start"] + t["charged"] - t["sigma_drain"] - t["withdrawn"]
        - t["decision_drained"] - t["spilled"] + t["reset_delta"] - t["e_end"]
    )
    assert abs(residual) < 1e-9

    running = None
    for ev in log.events:
        kind = ev[1]
        if kind == "start":
            assert running is None, ev  # the MCU runs one task at a time
            running = tid = ev[2]
            cap = sim.bank.capacitors[sim.app.task(tid).buffer]
            # The start logs the energy after the decision cost was drained
            # from buffer 0; readiness was judged before that drain.
            slack = config.params.decision_cost if sim.app.task(tid).buffer == 0 else 0.0
            assert ev[3] - energy_at(cap, cap.v_off) >= ev[4] - slack - 1e-15, ev
        elif kind in ("finish", "abort"):
            assert ev[2] == running, ev
            running = None


@given(sim_configs(), st.sampled_from([0, 1, 7]))
def test_run_matches_stepping_every_slot(config, stride):
    assert_run_matches_steps(dataclasses.replace(config, timeline_stride=stride))


@st.composite
def fixed_point_configs(draw):
    """(kind, config): sim_configs pushed towards an exact fixed point of the
    slot.  Tasks run at most every 10 s.  "full": every buffer starts at
    v_max, leaks little or nothing, pays a small decision cost and harvests
    a constant or step trace, so it spills back to its ceiling.  "empty":
    every buffer starts empty and an attack silences the harvester from
    t = 0, so nothing charges, leaks or drains; eam is drawn too, as it must
    not replay slots once the attack is reported."""
    config = draw(sim_configs())
    kind = draw(st.sampled_from(["full", "empty"]))
    bank = CapacitorBank(
        capacitors=[
            dataclasses.replace(
                cap,
                voltage=cap.v_max if kind == "full" else 0.0,
                drain_fraction=draw(st.sampled_from([0.0, 1e-7])),
            )
            for cap in config.bank.capacitors
        ],
        component_map=config.bank.component_map,
    )
    app = draw(chains(len(bank), rates=RATES[:2]))
    if kind == "full":
        trace = synthesize_trace(
            draw(st.sampled_from(["constant", "step"])),
            amplitude=draw(st.floats(2.0, 4.0)),
            length=HORIZON,
            interval=draw(st.sampled_from([0.1, 1.0])),
            period=draw(st.floats(1.0, 30.0)),
        )
        return kind, dataclasses.replace(
            config,
            bank=bank,
            trace=trace,
            app=app,
            params=dataclasses.replace(config.params, decision_cost=draw(st.floats(0.0, 1e-8))),
            equal_budget=False,
        )
    attack = AttackScenario(0.0, draw(st.floats(1.0, HORIZON)), "long", "dark")
    return kind, dataclasses.replace(
        config,
        bank=bank,
        app=app,
        attacks=[attack],
        policy=draw(st.sampled_from(["fh", "central", "eam"])),
        equal_budget=False,
    )


def test_run_matches_stepping_through_exact_fixed_points(monkeypatch):
    """At least two in three runs of each kind reach a slot that leaves the
    bank bit-identical, and run replays slots after it (82 of the 89 "full"
    runs drawn and all 61 "empty" ones); run still gives what stepping every
    slot gives."""
    reached = {"full": [], "empty": []}
    replayed = [0]
    hold = engine._hold

    def counted(sim, i, r, stop, check, shares):
        out = hold(sim, i, r, stop, check, shares)
        replayed[0] += out[0] - i
        return out

    monkeypatch.setattr(engine, "_hold", counted)

    @given(fixed_point_configs(), st.sampled_from([0, 1, 7]))
    def check(drawn, stride):
        kind, config = drawn
        replayed[0] = 0
        assert_run_matches_steps(dataclasses.replace(config, timeline_stride=stride))
        reached[kind].append(replayed[0] > 0)

    check()
    for kind, runs in reached.items():
        assert 3 * sum(runs) >= 2 * len(runs), (kind, sum(runs), len(runs))


def counting_holds(monkeypatch):
    """Wrap engine._hold; the list returned gets (i, r, first slot not
    replayed, its run) per call."""
    calls = []
    hold = engine._hold

    def counted(sim, i, r, stop, check, shares):
        out = hold(sim, i, r, stop, check, shares)
        calls.append((i, r, out[0], out[1]))
        return out

    monkeypatch.setattr(engine, "_hold", counted)
    return calls


@pytest.mark.parametrize("policy", ["eam", "fh", "central"])
def test_a_bank_held_full_for_many_slots_is_replayed_in_one_hold(monkeypatch, policy):
    """A full bank under one constant power, with no task ever released,
    spills back to its ceiling on every slot: run replays slots 2 to 19,999,
    the last of its 20,000, in its one engine._hold call, with no cap on the
    slots one call covers, and still gives what stepping every slot
    gives."""
    holds = counting_holds(monkeypatch)
    config = full_bank_config(
        policy, synthesize_trace("constant", amplitude=3.0, length=200.0, interval=1.0))
    run(config)
    assert holds == [(2, 0, 20_000, 0)]
    assert_run_matches_steps(config)


@pytest.mark.parametrize("policy", ["eam", "fh", "central"])
def test_a_full_bank_is_held_across_power_runs_until_a_trial_slot_moves(monkeypatch, policy):
    """Two full buffers harvest a trace whose power changes every second,
    so each second is a power run, and goes dark for 3 s at t = 100 s.
    Every run while the power lasts keeps the bank at its ceiling, so one
    engine._hold call carries across runs 0 to 99, from slot 2; on slot
    10,000, the first dark slot, a trial slot of the dark run on the held
    energies (energy.bank_slot) would move the voltages, so the hold stops
    there, and the span checks and charges the dark run.  The bank is full
    again after slot 10,300, and a second call carries across the 97 runs
    left, to the horizon.  Each call still gives what stepping every slot
    gives."""
    holds = counting_holds(monkeypatch)
    times = [float(k) for k in range(201)]
    volts = [0.0 if 100 <= k < 103 else 3.0 + 0.01 * (k % 7) for k in range(201)]
    config = full_bank_config(policy, EnergyTrace(times, volts, LOAD_RESISTANCE), n_buffers=2)
    sim = init_sim(config)
    assert len(sim.run_ends) == 198 and sim.run_ends[99:101] == [10_000, 10_300]
    run(config)
    assert holds == [(2, 0, 10_000, 99), (10_302, 101, 20_000, 197)]
    assert_run_matches_steps(config)


@pytest.mark.parametrize("policy", ["eam", "fh", "central"])
@pytest.mark.parametrize("n_buffers", [1, 2, 3])
def test_each_bank_width_recharges_through_v_on_as_stepping_does(monkeypatch, policy,
                                                                 n_buffers):
    """engine._charge runs a loop compiled for the bank's width.  Here the
    buffers start below v_on at different voltages, an attack silences the
    harvester from 5 s to 15 s, and a weak constant harvest then lifts each
    buffer through v_on while the attack's recovery watch is open, so the
    loop stops at each buffer's crossing and runs engine._watch there, on
    the federated bank of each width and on central's one merged buffer.
    run still gives what stepping every slot gives."""
    config = full_bank_config(
        policy, synthesize_trace("constant", amplitude=0.5, length=200.0, interval=1.0),
        n_buffers=n_buffers)
    bank = config.bank
    config = dataclasses.replace(
        config,
        attacks=[AttackScenario(start=5.0, duration=10.0)],
        bank=CapacitorBank(
            capacitors=[dataclasses.replace(cap, voltage=1.2 + 0.3 * b)
                        for b, cap in enumerate(bank.capacitors)],
            component_map=bank.component_map,
        ),
    )
    watches_in_charge = [0]
    watch = engine._watch

    def counted(sim, t):
        watches_in_charge[0] += sys._getframe(1).f_code.co_name == "_charge"
        return watch(sim, t)

    monkeypatch.setattr(engine, "_watch", counted)
    _, log = run(config)
    assert [e[2] for e in of_kind(log, "recovered")] == [15.0]
    assert watches_in_charge == [1 if policy == "central" else n_buffers]
    monkeypatch.undo()
    assert_run_matches_steps(config)


@st.composite
def charging_configs(draw):
    """sim_configs with buffers that start low and charge slowly from a weak
    harvest, leaking nothing or a little, and tasks released from the start
    that wait for energy: their readiness and eam's energy profiles are
    settled by the bounds of engine._next_check, which are tight where a
    buffer neither leaks nor pays the decision cost.  The detector is
    noise-free or noisy; every policy is drawn."""
    config = draw(sim_configs())
    bank = CapacitorBank(
        capacitors=[
            dataclasses.replace(
                cap,
                voltage=cap.v_on * draw(st.floats(0.0, 1.0)),
                drain_fraction=draw(st.sampled_from([0.0, 1e-6, 1e-4])),
            )
            for cap in config.bank.capacitors
        ],
        component_map=config.bank.component_map,
    )
    trace = synthesize_trace(
        draw(st.sampled_from(["constant", "step", "sinusoid"])),
        amplitude=draw(st.floats(0.2, 1.5)),
        length=HORIZON,
        interval=1.0,
        period=draw(st.floats(5.0, 30.0)),
    )
    return dataclasses.replace(
        config,
        bank=bank,
        trace=trace,
        app=draw(chains(len(bank), rates=RATES[1:3])),
        params=dataclasses.replace(
            config.params, decision_cost=draw(st.sampled_from([0.0, 1e-9]))),
        detector=dataclasses.replace(
            config.detector, remaining_time_error=draw(st.sampled_from([0.0, 0.3]))),
        policy=draw(st.sampled_from(["eam", "fh", "central"])),
        equal_budget=False,
    )


def test_run_matches_stepping_while_buffers_charge(monkeypatch):
    """At least two in three runs batch slots in engine._charge; run still
    gives what stepping every slot gives."""
    batched = []
    charge = engine._charge

    def counted(sim, i, *args):
        out = charge(sim, i, *args)
        batched[-1] += out[0] - i
        return out

    monkeypatch.setattr(engine, "_charge", counted)

    @given(charging_configs(), st.sampled_from([0, 1, 7]))
    def check(config, stride):
        batched.append(0)
        assert_run_matches_steps(dataclasses.replace(config, timeline_stride=stride))

    check()
    assert 3 * sum(k > 0 for k in batched) >= 2 * len(batched), batched


def switch_config(cost: float, noise: float = 0.0, seed: int = 0) -> SimConfig:
    """One task, released every 10 s in NML, every 5 s in SA and every 20 s
    in LA, on a full buffer; one attack over [12, 31) s with alpha = 10 s.
    The release at 20 s comes while the attack has 11 s left: LA, and 11 s
    is less than the LA period, so the task waits.  Once the estimate drops
    to alpha the profile switches to SA, whose 5 s period it exceeds, so a
    funded task becomes Ready on the switch slot itself."""
    cap = Capacitor(capacitance=100e-6, drain_fraction=0.0, voltage=3.0)
    rates = {Profile.NML: 360.0, Profile.LP: 360.0, Profile.CTL: 360.0,
             Profile.SA: 720.0, Profile.LA: 180.0}
    task = TaskSpec(id="T0", energy_cost=cost, duration=0.05, buffer=0, rates=rates)
    return SimConfig(
        trace=synthesize_trace("constant", amplitude=3.0, length=40.0, interval=1.0),
        app=AppSpec(name="switch", tasks=(task,), sink_task="T0"),
        bank=CapacitorBank(capacitors=[cap], component_map={0: (Component.MCU,)}),
        params=PolicyParams(alpha=10.0),
        detector=DetectorConfig(remaining_time_error=noise, rng_seed=seed),
        attacks=[AttackScenario(12.0, 19.0, "long", "a0")],
        dt=DT,
        horizon=40.0,
        timeline_stride=1,
    )


def test_a_profile_switch_that_readies_a_task_is_stepped():
    """The LA -> SA switch at 21 s makes the released task Ready: run starts
    it on that slot, as stepping every slot does.  With a cost its buffer
    cannot fund, the same switch changes only the profile and the span
    applies it itself."""
    _, log = run(switch_config(50e-6))
    switch = [ev[0] for ev in log.events if ev[1] == "profile" and ev[2] == Profile.SA.value]
    starts = [ev[0] for ev in log.events if ev[1] == "start"]
    assert switch and switch[0] in starts and 20.0 < switch[0] < 22.0
    for cost in (50e-6, 1e-3):
        assert_run_matches_steps(switch_config(cost))


def test_noisy_profile_switches_with_a_released_task_match_stepping(monkeypatch):
    """A noisy estimate moves both ways, so a released task that a switch
    left Blocked can pass the readiness rule under the new periods on a
    later slot of the same span.  A cost of 1 mJ is never funded, so the
    stretches where the noise band straddles alpha run long.  At least two
    in three runs send engine._charge such a stretch of more than one slot,
    whose profile it settles slot by slot."""
    stretches = []
    charge = engine._charge

    def counted(sim, i, stop, shares, attack=None):
        out = charge(sim, i, stop, shares, attack)
        stretches[-1] += attack is not None and out[0] - i > 1
        return out

    monkeypatch.setattr(engine, "_charge", counted)

    @settings(max_examples=25)
    @given(st.sampled_from([50e-6, 1e-3]), st.floats(0.05, 0.9), st.integers(0, 1000))
    def check(cost, noise, seed):
        stretches.append(0)
        assert_run_matches_steps(switch_config(cost, noise, seed))

    check()
    assert 3 * sum(k > 0 for k in stretches) >= 2 * len(stretches), stretches


@pytest.mark.parametrize("delay", [0.0, 0.5])
def test_an_empty_bank_held_through_a_reported_attack_switches_on_time(delay):
    """An empty bank under an attack is a fixed point from the first slot,
    but eam's profile still reads the clock: with alpha = 5 s the report
    turns from LA to SA at 10 s, inside a replayed stretch, and no release
    is due then (every period but SA's is 60 s)."""
    cap = Capacitor(capacitance=100e-6, drain_fraction=0.0, voltage=0.0)
    rates = {p: 60.0 for p in Profile} | {Profile.SA: 360.0}
    task = TaskSpec(id="T0", energy_cost=50e-6, duration=0.05, buffer=0, rates=rates)
    config = SimConfig(
        trace=synthesize_trace("constant", amplitude=3.0, length=40.0, interval=1.0),
        app=AppSpec(name="dark", tasks=(task,), sink_task="T0"),
        bank=CapacitorBank(capacitors=[cap], component_map={0: (Component.MCU,)}),
        params=PolicyParams(alpha=5.0),
        detector=DetectorConfig(detection_delay=delay),
        attacks=[AttackScenario(0.0, 15.0, "long", "a0")],
        dt=DT,
        horizon=40.0,
        timeline_stride=1,
    )
    _, log = run(config)
    assert [ev[:3] for ev in of_kind(log, "profile")][:2] == [
        (delay, "profile", "LA"), (10.0, "profile", "SA")]
    assert_run_matches_steps(config)


def test_a_running_task_on_a_buffer_refilled_every_slot_is_stepped():
    """The harvest refills the task's buffer to its ceiling on every slot, so
    each slot of the execution leaves the bank bit-identical; the task still
    draws, progresses and finishes slot by slot, which replaying the bank
    (engine._hold) would skip."""
    cap = Capacitor(capacitance=100e-6, drain_fraction=0.0, voltage=3.0)
    task = TaskSpec(id="T0", energy_cost=1e-6, duration=1.0, buffer=0,
                    rates={p: 360.0 for p in Profile})
    config = SimConfig(
        trace=synthesize_trace("constant", amplitude=3.0, length=HORIZON, interval=1.0),
        app=AppSpec(name="full", tasks=(task,), sink_task="T0"),
        bank=CapacitorBank(capacitors=[cap], component_map={0: (Component.MCU,)}),
        params=PolicyParams(),
        dt=DT,
        horizon=HORIZON,
        timeline_stride=1,
    )
    _, log = run(config)
    assert [ev[0] for ev in log.events if ev[1] == "start"] == [0.0, 10.0]
    assert len(of_kind(log, "finish")) == 2
    assert_run_matches_steps(config)


@pytest.mark.parametrize("policy", ["eam", "fh"])
def test_a_hold_carries_across_runs_that_clip_only_some_buffers(monkeypatch, policy):
    """Two full buffers at v_max = 4 V, where their stored energy is exactly
    their ceiling, neither leak nor pay a decision cost.  Their trace is
    3 V for two seconds of every three and 0.87 µV in the third.  At 3 V
    each buffer clips at its ceiling.  At 0.87 µV buffer 0 still gains more
    than half an ulp of its ceiling and clips, but buffer 1, with a tenth of
    its efficiency, gains less: its energy rounds back to its ceiling,
    unclipped, and its voltage stays.  So one engine._hold call carries from
    slot 2 to the horizon, judging each of the 133 runs by one slot of
    energy.bank_slot, the 66 dim ones too.  run still gives what stepping
    every slot gives."""
    holds = counting_holds(monkeypatch)
    verdicts, judge = [0], engine.bank_slot

    def counted(energies, constants, shares, dt):
        verdicts[0] += sys._getframe(1).f_code.co_name == "_hold"
        return judge(energies, constants, shares, dt)

    monkeypatch.setattr(engine, "bank_slot", counted)
    times = [float(k) for k in range(201)]
    volts = [8.66e-7 if k % 3 == 2 else 3.0 for k in range(201)]
    config = full_bank_config(policy, EnergyTrace(times, volts, LOAD_RESISTANCE), n_buffers=2)
    config = dataclasses.replace(
        config,
        bank=CapacitorBank(
            capacitors=[dataclasses.replace(cap, v_max=4.0, voltage=4.0, drain_fraction=0.0,
                                            efficiency=eta)
                        for cap, eta in zip(config.bank.capacitors, (1.0, 0.1))],
            component_map=config.bank.component_map,
        ),
        params=dataclasses.replace(config.params, decision_cost=0.0),
    )
    assert len(init_sim(config).run_ends) == 133
    run(config)
    assert holds == [(2, 0, 20_000, 132)] and verdicts == [133]
    monkeypatch.undo()
    assert_run_matches_steps(config)
