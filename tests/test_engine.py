"""Simulation engine: slot loop, energy ledger, events, metrics."""

import bisect
import contextlib
import io
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import eamsim.cli as cli
import eamsim.engine as engine
from eamsim.apps import AppSpec, Profile, TaskSpec, builtin_app
from eamsim.config import apply_overrides, build_sim_config, load_config
from eamsim.detector import AttackInfo, DetectorConfig, detect
from eamsim.energy import (
    Capacitor,
    CapacitorBank,
    Component,
    buffer_step,
    energy_at,
    total_capacity,
)
from eamsim.engine import (
    EngineError,
    compute_metrics,
    init_sim,
    run,
    step,
    validate_config,
)
from eamsim.engine import SimConfig
from eamsim.policy import PolicyParams
from eamsim.traces import AttackScenario, EnergyTrace, synthesize_trace
from conftest import CONFIGS, NOISY_HVAC, WORKLOADS

ALL_RATES = {p: 30.0 for p in Profile}


def residual(log):
    t = log.totals
    return (
        t["e_start"] + t["charged"] - t["sigma_drain"] - t["withdrawn"]
        - t["decision_drained"] - t["spilled"] + t["reset_delta"] - t["e_end"]
    )


def bank_params(bank):
    """Policy thresholds at 20% / 60% of the bank's capacity."""
    capacity = total_capacity(bank)
    return PolicyParams(omega0=0.2 * capacity, omega1=0.6 * capacity)


def hvac_bank(v0=3.0, v1=3.0, sigma=1e-6):
    return CapacitorBank(
        capacitors=[
            Capacitor(capacitance=33e-6, drain_fraction=sigma, voltage=v0),
            Capacitor(capacitance=220e-6, drain_fraction=sigma, voltage=v1),
        ],
        component_map={0: (Component.MCU, Component.SENSING), 1: (Component.ACTUATION,)},
    )


def one_task_config(**over):
    """Single task on a single buffer; zero decision overhead."""
    task = TaskSpec(id="T", energy_cost=100e-6, duration=2.0, buffer=0,
                    rates=ALL_RATES)
    app = AppSpec(name="single", tasks=(task,), sink_task="T")
    bank = CapacitorBank(
        capacitors=[Capacitor(capacitance=100e-6,
                              drain_fraction=over.pop("sigma", 0.01),
                              voltage=3.0)],
        component_map={0: tuple(Component)},
    )
    base = dict(
        trace=synthesize_trace("constant", 0.0, 120.0, 1.0),
        app=app,
        bank=bank,
        params=PolicyParams(decision_cost=0.0, decision_time=0.0),
        dt=0.02,
        horizon=60.0,
        timeline_stride=0,
    )
    base.update(over)
    return SimConfig(**base)


# -------------------------------------------------------------- validation


def test_validate_config_reports_problems():
    cfg = one_task_config()
    assert validate_config(cfg) == []
    bad = one_task_config(policy="greedy", dt=-1.0, queue_capacity=0,
                          timeline_stride=-2, budget_soc=1.5)
    problems = "\n".join(validate_config(bad))
    for needle in ("policy", "dt", "queue capacity", "stride", "budget_soc"):
        assert needle in problems
    short = one_task_config(horizon=500.0)  # trace covers only 120 s
    assert any("span" in p for p in validate_config(short))


@pytest.mark.parametrize(
    "over, problem",
    [
        ({"horizon": math.nan}, "horizon must be finite"),
        ({"horizon": math.inf}, "horizon must be finite"),
        ({"horizon": 1e300, "dt": 1e-300}, "horizon must be finite"),  # count overflows
        ({"dt": math.nan}, "dt must be positive and finite"),
        ({"dt": math.inf}, "dt must be positive and finite"),
    ],
)
def test_validate_config_rejects_non_finite_slot_counts(over, problem):
    problems = validate_config(one_task_config(**over))
    assert len(problems) == 1 and problems[0].startswith(problem)


def test_init_sim_raises_on_invalid_config():
    with pytest.raises(EngineError):
        init_sim(one_task_config(policy="greedy"))


def test_step_after_finish_raises():
    cfg = one_task_config(horizon=0.1)  # 5 slots
    sim = init_sim(cfg)
    for _ in range(sim.n_slots):
        step(sim)
    with pytest.raises(EngineError):
        step(sim)


def test_compute_metrics_requires_finished_run():
    from eamsim.engine import EventLog

    with pytest.raises(EngineError):
        compute_metrics(EventLog(), one_task_config())


# ------------------------------------------------------- steady normal hour


def test_steady_hour_completes_at_the_normal_rate():
    cfg = SimConfig(
        trace=synthesize_trace("constant", 3.0, 3700.0, 1.0),
        app=builtin_app("hvac"),
        bank=hvac_bank(),
        params=bank_params(hvac_bank()),
        dt=0.05,
        horizon=3600.0,
        timeline_stride=0,
    )
    report, log = run(cfg)
    # 30 releases/h at the normal profile, all of them served.
    assert report.completions == 30
    assert report.app_exec_rate == pytest.approx(30.0, rel=1e-12)
    assert set(report.schedulability) == {"TS", "HS", "D", "AC"}
    assert all(v == 1.0 for v in report.schedulability.values())
    assert all(v == 1.0 for v in report.availability.values())
    assert report.aborts == 0 and report.wasted_energy == 0.0
    assert report.in_attack_completions == 0
    assert report.post_onset_completions == 0
    assert math.isnan(report.post_onset_rate)
    assert report.overhead_invocations == log.totals["n_slots"] == 72000
    assert report.completions_timeline[-1][1] == 30
    assert abs(residual(log)) < 1e-9


# ------------------------------------- mitigation degenerates to fixed shares


def test_equal_weights_equal_capacitance_reduces_to_fh():
    def make_cfg(policy):
        bank = CapacitorBank(
            capacitors=[
                Capacitor(capacitance=100e-6, drain_fraction=1e-6, voltage=2.0),
                Capacitor(capacitance=100e-6, drain_fraction=1e-6, voltage=2.6),
            ],
            component_map={
                0: (Component.MCU, Component.SENSING),
                1: (Component.ACTUATION,),
            },
        )
        return SimConfig(
            trace=synthesize_trace("constant", 1.5, 700.0, 1.0),
            app=builtin_app("hvac"),
            bank=bank,
            params=PolicyParams(lambda_hi=0.5, lambda_lo=0.5),
            policy=policy,
            dt=0.01,
            horizon=600.0,
            timeline_stride=0,
        )

    rep_eam, log_eam = run(make_cfg("eam"))
    rep_fh, log_fh = run(make_cfg("fh"))
    # With equal weights, equal capacitances and no attack the two policies
    # make identical decisions; only the init record differs.
    assert log_eam.events[0][2] == "eam" and log_fh.events[0][2] == "fh"
    assert log_eam.events[0][3:] == log_fh.events[0][3:]
    assert log_eam.events[1:] == log_fh.events[1:]
    rows_eam = dict(rep_eam.to_rows())
    rows_fh = dict(rep_fh.to_rows())
    assert rows_eam.pop("policy") == "eam" and rows_fh.pop("policy") == "fh"
    assert rows_eam == rows_fh


# ------------------------------------------------------------------- aborts


def test_execution_aborts_on_failed_withdrawal():
    report, log = run(one_task_config(sigma=0.01))
    aborts = log.of_kind("abort")
    assert len(aborts) == 1
    t, _, tid, drawn, reason = aborts[0]
    assert tid == "T" and reason == "withdrawal"
    # The run starts the task at t = 0 and drains 1 uJ per 20 ms slot; the
    # buffer (no harvest, 1%/slot leak) can no longer fund slot 73.
    assert t == pytest.approx(1.46, abs=1e-9)
    assert drawn == pytest.approx(7.3e-5, rel=1e-6)
    assert report.aborts == 1
    assert report.wasted_energy == drawn  # whole partial draw is lost
    assert report.completions == 0
    assert log.totals["completions"] == []
    state_kinds = [(e[3], e[4]) for e in log.of_kind("state") if e[2] == "T"]
    assert ("running", "suspended") in state_kinds
    assert abs(residual(log)) < 1e-9


def test_execution_aborts_on_brownout():
    report, log = run(one_task_config(sigma=0.2, horizon=10.0))
    aborts = log.of_kind("abort")
    assert len(aborts) == 1
    t, _, tid, drawn, reason = aborts[0]
    assert tid == "T" and reason == "brownout"
    # A 20%-per-slot leak pulls the buffer under v_off within four slots.
    assert t == pytest.approx(0.08, abs=1e-9)
    assert drawn == pytest.approx(4.0e-6, rel=1e-6)
    assert report.aborts == 1 and report.completions == 0
    assert abs(residual(log)) < 1e-9


# -------------------------------------------------------------- equal budget


def budget_config(**over):
    bank = CapacitorBank(
        capacitors=[
            Capacitor(capacitance=100e-6, drain_fraction=1e-6, voltage=2.2),
            Capacitor(capacitance=100e-6, drain_fraction=1e-6, voltage=2.2),
        ],
        component_map={
            0: (Component.MCU, Component.SENSING),
            1: (Component.ACTUATION,),
        },
    )
    base = dict(
        trace=synthesize_trace("constant", 2.95, 150.0, 1.0),
        app=builtin_app("hvac"),
        bank=bank,
        params=bank_params(bank),
        attacks=[AttackScenario(start=50.0, duration=30.0)],
        dt=0.5,
        horizon=100.0,
        timeline_stride=0,
        equal_budget=True,
        budget_soc=0.3,
    )
    base.update(over)
    return SimConfig(**base)


def test_equal_budget_resets_to_the_requested_soc():
    report, log = run(budget_config())
    resets = log.of_kind("budget_reset")
    assert len(resets) == 1
    t, _, energies = resets[0]
    assert t == 50.0  # first slot of the first attack
    target = 0.3 * (0.5 * 100e-6 * 9.0)  # soc * capacity at v_max
    assert energies == pytest.approx([target, target], rel=1e-12)
    assert log.totals["reset_delta"] < 0  # buffers were fuller than the budget
    assert abs(residual(log)) < 1e-9


def test_equal_budget_without_soc_restores_initial_energies():
    _, log = run(budget_config(budget_soc=None))
    (reset,) = log.of_kind("budget_reset")
    initial = energy_at(Capacitor(capacitance=100e-6), 2.2)
    assert reset[2] == pytest.approx([initial, initial], rel=1e-12)


def test_budget_reset_logs_energies_in_buffer_order():
    config = budget_config(budget_soc=None)
    config.bank.capacitors[0].capacitance = 1000e-6  # buffer 0 now holds the most
    _, log = run(config)
    (reset,) = log.of_kind("budget_reset")
    energies = reset[2]
    assert energies[0] > energies[1]
    (line,) = [ln for ln in log.export_lines() if ",budget_reset," in ln]
    assert line.split(",")[2] == "+".join(str(e) for e in energies)


def test_equal_budget_is_inert_without_attacks():
    _, log = run(budget_config(attacks=[]))
    assert log.of_kind("budget_reset") == []
    assert log.totals["reset_delta"] == 0.0


def test_no_reset_when_flag_is_off():
    _, log = run(budget_config(equal_budget=False))
    assert log.of_kind("budget_reset") == []


# ----------------------------------------------- detector/profile integration


def test_attack_window_drives_profile_changes():
    bank = hvac_bank(v0=2.8, v1=2.8)
    cfg = SimConfig(
        trace=synthesize_trace("constant", 2.6, 300.0, 1.0),
        app=builtin_app("hvac"),
        bank=bank,
        params=bank_params(bank),
        detector=DetectorConfig(detection_delay=3.0),
        attacks=[AttackScenario(start=100.0, duration=40.0)],
        dt=0.5,
        horizon=200.0,
        timeline_stride=0,
    )
    _, log = run(cfg)
    assert log.of_kind("attack_seen") == [
        (103.0, "attack_seen", "begin"),  # onset surfaces after the delay
        (140.0, "attack_seen", "end"),
    ]
    # 37 s of attack left at detection: below alpha, so the short profile.
    assert log.of_kind("profile") == [
        (103.0, "profile", "SA"),
        (140.0, "profile", "NML"),
    ]


# ----------------------------------------------------------------- timeline


def test_timeline_stride_downsamples():
    for stride in (1, 7):
        _, log = run(one_task_config(horizon=20.0, dt=0.005, timeline_stride=stride))
        n = log.totals["n_slots"]
        assert n == 4000
        rows = (n + stride - 1) // stride
        assert log.timeline_t.shape == (rows,)
        assert log.timeline_v.shape == (rows, 1)
        assert log.timeline_profile.shape == (rows,)
        assert log.timeline_running.shape == (rows,)
        # Row r is slot i = r * stride, at the t = i * dt that slot computes.
        assert log.timeline_t.tolist() == [(r * stride) * 0.005 for r in range(rows)]
        assert log.timeline_t.tolist() == [i * 0.005 for i in range(0, n, stride)]


def test_timeline_stride_zero_disables_sampling():
    _, log = run(one_task_config(horizon=1.0, timeline_stride=0))
    assert log.timeline_t is None and log.timeline_v is None


# --------------------------------------------- engine mirrors the buffer law


def test_engine_buffer_integration_matches_buffer_step():
    # A task too expensive to ever start leaves the buffer untouched by
    # withdrawals, so the recorded voltages must replay the charge law alone.
    task = TaskSpec(id="T", energy_cost=1.0, duration=2.0, buffer=0,
                    rates=ALL_RATES)
    app = AppSpec(name="single", tasks=(task,), sink_task="T")
    cap = Capacitor(capacitance=100e-6, drain_fraction=0.01, voltage=2.0)
    cfg = SimConfig(
        trace=synthesize_trace("constant", 2.5, 150.0, 1.0),
        app=app,
        bank=CapacitorBank(capacitors=[cap], component_map={0: tuple(Component)}),
        params=PolicyParams(decision_cost=0.0, decision_time=0.0),
        dt=0.05,
        horizon=100.0,
        timeline_stride=1,
    )
    _, log = run(cfg)

    twin = Capacitor(capacitance=100e-6, drain_fraction=0.01, voltage=2.0)
    v = cfg.trace.voltage_at(0.0)
    power = v * v / cfg.trace.load_resistance
    expected = []
    for _ in range(2000):
        buffer_step(twin, power, 0.05)
        expected.append(twin.voltage)
    assert log.timeline_v.shape == (2000, 1)
    assert np.array_equal(log.timeline_v[:, 0], np.array(expected))
    assert abs(residual(log)) < 1e-9


# ------------------------------------------------------------- idle spans


# -------------------------------------------------------------- power runs


def per_slot_powers(config, n_slots):
    """Harvested power sampled slot by slot, as step's order describes it:
    the trace voltage held since the last sample at or before i * dt, zero
    inside any attack window, then V^2 / R."""
    times, volts = config.trace.times.tolist(), config.trace.voltages.tolist()
    powers = []
    for i in range(n_slots):
        t = i * config.dt
        v = volts[bisect.bisect_right(times, t) - 1]
        if any(sc.start <= t < sc.end for sc in config.attacks):
            v = 0.0
        powers.append(v * v / config.trace.load_resistance)
    return powers


def expand_runs(sim):
    powers, start = [], 0
    for end, power in zip(sim.run_ends, sim.run_powers):
        assert end > start
        powers += [power] * (end - start)
        start = end
    return powers


def assert_runs_match_sampling(config):
    sim = init_sim(config)
    expected = per_slot_powers(config, sim.n_slots)
    assert sim.run_ends[-1] == sim.n_slots
    assert np.array(expand_runs(sim)).tobytes() == np.array(expected).tobytes()
    # Each run is as long as it can be: neighbours differ in power.
    assert all(a != b for a, b in zip(sim.run_powers, sim.run_powers[1:]))
    return sim


def test_hvac_hour_power_is_3541_runs():
    """The bundled attack starts and ends on trace samples."""
    sim = assert_runs_match_sampling(
        build_sim_config(load_config(CONFIGS / "hvac_attack.yaml")))
    assert sim.n_slots == 720_000
    assert len(sim.run_ends) == 3541


def test_power_runs_with_attacks_on_and_between_trace_samples():
    config = one_task_config(
        trace=synthesize_trace("sinusoid", 3.0, 120.0, 1.0, period=40.0),
        attacks=[
            AttackScenario(start=10.0, duration=5.0, kind="short", id="on"),
            AttackScenario(start=20.47, duration=2.25, kind="short", id="between"),
        ],
    )
    assert_runs_match_sampling(config)


def test_constant_trace_is_one_power_run():
    config = one_task_config(trace=synthesize_trace("constant", 3.0, 120.0, 1.0))
    sim = assert_runs_match_sampling(config)
    assert sim.run_ends == [sim.n_slots]
    assert sim.run_powers == [3.0 * 3.0 / config.trace.load_resistance]


@st.composite
def sampled_power_configs(draw):
    """A one-task config whose trace and attacks put slot boundaries on,
    next to and between slot starts: dt does not divide the sample
    interval, the first sample may lie before 0, attacks start on samples,
    between them, on a slot start or at t = 0, and may run to or past the
    horizon; they come in any order.  Voltages repeat so that neighbouring
    stretches merge."""
    dt = draw(st.sampled_from([0.003, 0.007, 0.0123]))
    n_slots = draw(st.integers(1, 2500))
    horizon = n_slots * dt
    last_t = (n_slots - 1) * dt
    first = draw(st.sampled_from([0.0, -0.0123]) | st.floats(-1.0, 0.0))
    if draw(st.booleans()):
        interval = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25]))
        times = [first + k * interval for k in range(int((last_t - first) / interval) + 2)]
    else:
        times = [first]
        while times[-1] < last_t:
            times.append(times[-1] + draw(st.floats(1e-3, 2.0)))
    volts = draw(st.lists(st.sampled_from([0.0, 1.5, 2.0, 3.3]),
                          min_size=len(times), max_size=len(times)))
    on_trace = [t for t in times if 0.0 <= t <= horizon]
    starts = sorted(set(draw(st.lists(
        st.sampled_from(on_trace or [0.0])
        | st.floats(0.0, horizon)
        | st.just(0.0)
        | st.integers(0, n_slots).map(lambda i: i * dt),
        max_size=4,
    ))))
    attacks = []
    for k, start in enumerate(starts):
        room = (starts[k + 1] if k + 1 < len(starts) else horizon) - start
        if k + 1 == len(starts) and draw(st.booleans()):
            duration = draw(st.just(room) | st.floats(room, 2 * horizon))  # to or past the end
        else:  # up to the next start or the horizon, or part of the way
            duration = room * draw(st.just(1.0) | st.floats(0.01, 1.0))
        if duration > 0 and (k + 1 == len(starts) or start + duration <= starts[k + 1]):
            attacks.append(AttackScenario(start, duration, "short", f"a{k}"))
    trace = EnergyTrace(np.array(times), np.array(volts), 30e3)
    return one_task_config(trace=trace, attacks=draw(st.permutations(attacks)),
                           dt=dt, horizon=horizon)


@given(sampled_power_configs())
def test_power_runs_equal_sampling_every_slot(config):
    assert validate_config(config) == []
    assert_runs_match_sampling(config)


def test_init_sim_memory_does_not_grow_with_the_slot_count():
    """A 4 h hvac_attack run has 2,880,000 slots.  init_sim's traced peak
    stays under a bound fixed in advance: power runs are found from the
    3,600 trace samples per hour and the attack edges, never slot by slot.
    Sampling every slot traced 23.8 MB at 1 h and 95 MB at 4 h."""
    doc = apply_overrides(load_config(CONFIGS / "hvac_attack.yaml"),
                          ["sim.horizon_s=14400", "trace.length_s=14500"])
    config = build_sim_config(doc)
    tracemalloc.start()
    try:
        sim = init_sim(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.n_slots == 2_880_000
    assert peak < 4_000_000


def test_run_invokes_the_policy_only_at_decision_points(monkeypatch):
    calls = [0]
    policy_step = engine.policy_step

    def counted(*args):
        calls[0] += 1
        return policy_step(*args)

    monkeypatch.setattr(engine, "policy_step", counted)
    report, log = run(build_sim_config(load_config(CONFIGS / "hvac_attack.yaml")))
    n_slots = log.totals["n_slots"]
    assert n_slots == 720_000
    assert calls[0] <= 400  # 271, with spans through running tasks
    # The modelled device still decides, and pays, on every slot.
    assert report.overhead_invocations == n_slots


def test_run_replays_the_slots_that_leave_the_bank_unchanged(monkeypatch):
    """On the one-hour hvac run the bank sits at its v_max ceiling for most
    slots; run replays their ledger sums instead of integrating the buffers
    and tallying them one slot at a time."""
    calls = {"slot_update": 0, "_tally": 0}

    def counting(name):
        inner = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(engine, name, counting(name))
    report, log = run(build_sim_config(load_config(CONFIGS / "hvac_attack.yaml")))
    n_slots = log.totals["n_slots"]
    assert n_slots == 720_000
    assert calls["slot_update"] <= 0.2 * n_slots
    assert calls["_tally"] <= 0.2 * n_slots
    assert report.overhead_invocations == n_slots
    assert abs(residual(log)) < 1e-9


def test_run_skips_the_policy_inside_a_noisy_reported_attack(monkeypatch):
    """With a late, noisy detector, eam's quiet spans cover the reported
    attack and the slots whose tasks wait for energy, and the detector draws
    its noise only where a threshold lies inside the noise band."""
    config = build_sim_config(apply_overrides(load_config(CONFIGS / "hvac_attack.yaml"),
                                              list(NOISY_HVAC)))
    calls, draws = [0], [0]
    policy_step = engine.policy_step

    def counted(*args):
        calls[0] += 1
        return policy_step(*args)

    class CountedRandom(random.Random):
        def __init__(self, *args):
            draws[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(engine, "policy_step", counted)
    monkeypatch.setattr(random, "Random", CountedRandom)
    report, log = run(config)
    n_slots = log.totals["n_slots"]
    assert n_slots == 120_000
    assert len(log.of_kind("profile")) == 980  # the estimates do cross alpha
    # A profile switch ends the span and step applies it: 47 calls.
    assert calls[0] <= 60
    assert 0 < draws[0] <= 4_000
    assert report.overhead_invocations == n_slots


def test_run_spans_profile_switches_and_running_tasks_in_an_attack_storm(monkeypatch):
    """attack_storm variant 5: a four-task pipeline released every second, a
    noisy late detector over eight attacks and 22,728 SA/LA switches.  The
    policy runs on 3,759 of the 300,000 slots (33,502 when every profile
    switch and every slot with a running task was stepped); _charge settles
    nearly all of the switches, and a switch found by a span check goes to
    step.  The span reads 58,431 reports.  The noise is drawn on the 58,057
    slots whose band straddles alpha, every way.  The span checks 2,182
    times, and _slot_tail runs 11,071 times: on step's slots and on the
    span's slots with a task running (59,882 and 68,736 when the span
    stepped the band-straddle slots, 149,449 and 159,945 when every slot of
    a noisy report was checked)."""
    config = build_sim_config(WORKLOADS.storm_config(5))
    calls = dict.fromkeys(("policy_step", "detect", "_slot_tail", "_next_check", "Random"), 0)

    def counting(name):
        inner = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    class CountedRandom(random.Random):
        def __init__(self, *args):
            calls["Random"] += 1
            super().__init__(*args)

    for name in ("policy_step", "detect", "_slot_tail", "_next_check"):
        monkeypatch.setattr(engine, name, counting(name))
    monkeypatch.setattr(random, "Random", CountedRandom)
    report, log = run(config)
    n_slots = log.totals["n_slots"]
    assert n_slots == 300_000
    assert len(log.of_kind("profile")) == 22_728
    assert calls["policy_step"] <= 4_000
    assert calls["detect"] <= 60_000
    assert calls["_slot_tail"] <= 12_000
    assert calls["_next_check"] <= 3_000
    assert calls["Random"] == 58_057
    assert report.overhead_invocations == n_slots
    assert abs(residual(log)) < 1e-9


@given(
    dt=st.sampled_from([0.005, 0.01, 0.02]),
    end=st.floats(min_value=1.0, max_value=50.0),
    alpha=st.floats(min_value=0.0, max_value=60.0),
    err=st.sampled_from([0.0, 0.35, 1.0, 1.5]) | st.floats(min_value=0.0, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
# Slot 0, where _band_slot's ceil guess is one slot off and a correction loop
# moves it: band bottom 368 -> 367 and 4766 -> 4767; band top 204 -> 203 and
# 1033 -> 1034.
@example(dt=0.005, end=49.61277777777778, alpha=43.0, err=0.1, frac=0.0)
@example(dt=0.005, end=28.652222222222225, alpha=4.34, err=0.1, frac=0.0)
@example(dt=0.01, end=29.30272727272727, alpha=30.0, err=0.1, frac=0.0)
@example(dt=0.005, end=38.69501828259137, alpha=43.58902376736878, err=0.3, frac=0.0)
def test_la_hold_ends_on_the_first_slot_whose_noise_band_reaches_alpha(dt, end, alpha, err,
                                                                        frac):
    """_next_check's LA hold from a slot i inside a reported attack: on every
    slot before the hold's end the report settles LA without a draw, and on
    that slot the band's bottom is at or below alpha.  The hold ends at the
    slot returned or, where the band already straddles alpha on slot i + 1,
    there; the check then comes on the first slot whose band top is at most
    alpha, and the band straddles alpha on every slot before it."""
    config = one_task_config(
        dt=dt, horizon=60.0, attacks=[AttackScenario(start=0.0, duration=end)],
        detector=DetectorConfig(remaining_time_error=err),
        params=PolicyParams(alpha=alpha, decision_cost=0.0, decision_time=0.0),
    )
    sim = init_sim(config)
    sim.sched.profile = Profile.LA
    i = int(frac * (end / dt - 1))
    info = detect(i * dt, config.attacks, config.detector)
    j, settle = engine._next_check(sim, i, info, None, [], (0.0,), None, end)
    assert i < j <= sim.n_slots
    hold = i + 1 if settle else j
    with mock.patch.object(random, "Random", side_effect=AssertionError("noise drawn")):
        for s in range(i + 1, hold):
            assert detect(s * dt, config.attacks, config.detector).remaining_exceeds(alpha)
        for s in range(hold, j):
            assert not detect(s * dt, config.attacks, config.detector).never_exceeds(alpha)
    assert hold == sim.n_slots or AttackInfo.band_bottom(end - hold * dt, err) <= alpha
    assert not settle or j == sim.n_slots or AttackInfo.band_top(end - j * dt, err) <= alpha


@pytest.mark.parametrize("policy", ["eam", "fh"])
def test_run_batches_the_attack_and_recharge_of_a_sweep_cell(monkeypatch, tmp_path, policy):
    """The 300 s attack cell of policy_sweep variant 3 (120,000 slots): the
    bounds of _next_check leave the checks idle through the attack and the
    recharge after it, so _charge runs nearly every slot the policy does not.
    eam reads 5 reports where it read one per reported slot (60,000); the
    span steps 48 (eam) and 62 (fh) slots one at a time and calls _charge
    324 times."""
    calls = dict.fromkeys(("detect", "policy_step", "_slot_tail", "_charge"), 0)

    def counting(name):
        inner = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(engine, name, counting(name))
    argv = ["compare", "--config", str(CONFIGS / "hvac_attack.yaml"), "--seed", "3",
            "--policies", policy, "--attack-durations", "300", "--set", "sim.horizon_s=600",
            "--set", "sim.timeline_stride=0", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls["detect"] <= 20
    assert calls["_slot_tail"] - calls["policy_step"] <= 100
    assert calls["_charge"] <= 400


# --------------------------------------------------------------- determinism


def test_repeated_runs_are_identical():
    cfg_doc = load_config(CONFIGS / "compare_sine_30s.yaml")
    first_rep, first_log = run(build_sim_config(load_config(CONFIGS / "compare_sine_30s.yaml")))
    second_rep, second_log = run(build_sim_config(cfg_doc))
    assert list(first_log.export_lines()) == list(second_log.export_lines())
    assert first_rep.to_rows() == second_rep.to_rows()


# ------------------------------------------------------ metrics cross-checks


def derived_schedulability(log):
    total, served, unserved = {}, {}, {}
    for ev in log.events:
        kind = ev[1]
        if kind == "release":
            tid = ev[2]
            total[tid] = total.get(tid, 0) + 1
            unserved[tid] = True
        elif kind == "finish":
            tid = ev[2]
            if unserved.get(tid):
                served[tid] = served.get(tid, 0) + 1
                unserved[tid] = False
    return {tid: served.get(tid, 0) / n for tid, n in total.items()}


def test_metrics_derive_from_the_event_log():
    doc = load_config(CONFIGS / "compare_constant_300s.yaml")
    doc["sim"]["timeline_stride"] = 1
    cfg = build_sim_config(doc)
    report, log = run(cfg)

    assert report.schedulability == derived_schedulability(log)
    for tid, n in log.totals["releases_total"].items():
        assert n == len([e for e in log.of_kind("release") if e[2] == tid])

    # Availability equals the fraction of timeline rows at or above v_on.
    for comp, buf in log.totals["component_buffers"].items():
        von = cfg.bank.capacitors[buf].v_on
        frac = np.count_nonzero(log.timeline_v[:, buf] >= von) / log.totals["n_slots"]
        assert report.availability[comp] == frac

    # Completion counters against the raw finish events.
    sinks = [e for e in log.of_kind("finish") if e[3] == 1]
    assert report.completions == len(sinks)
    stamps = log.totals["completions"]
    assert stamps == [e[0] for e in sinks]
    window = cfg.attacks[0]
    assert report.in_attack_completions == sum(
        1 for ts in stamps if window.start <= ts < window.end
    )
    assert report.post_onset_completions == sum(
        1 for ts in stamps if ts >= window.start
    )
    assert report.completions_timeline == [(ts, k + 1) for k, ts in enumerate(stamps)]

    # Overheads are exact products of the per-invocation constants.
    assert report.overhead_invocations == log.totals["n_slots"]
    assert report.overhead_energy == report.overhead_invocations * cfg.params.decision_cost
    assert report.overhead_time == report.overhead_invocations * cfg.params.decision_time


def test_central_availability_is_uniform():
    doc = load_config(CONFIGS / "compare_constant_300s.yaml")
    doc["policy"] = "central"
    report, _ = run(build_sim_config(doc))
    values = set(report.availability.values())
    assert len(values) == 1  # one pooled buffer backs every component
